"""Diagnostics over curricula and run metrics.

Noise rates per subset level measure how well the design separates
mislabeled data; the rate-interval report bins categories by the correctness
of their given labels and compares per-bin test gains of a curriculum run
against a baseline run. All computations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .curriculum import CurriculumDesign
from .trainer import RunMetrics

N_BINS = 10


class AnalysisError(ValueError):
    pass


@dataclass(frozen=True)
class SubsetNoiseRates:
    """Per-level label-noise statistics against a reference labeling."""

    sizes: tuple[int, ...]
    mislabeled: tuple[int, ...]
    rates: tuple[float, ...]  # nan for empty levels
    overall_rate: float


@dataclass(frozen=True)
class NoiseAudit:
    """Categories binned by correct-label rate, with per-bin test gains.

    ``histogram[b]`` counts categories whose correct rate falls in
    [b/10, (b+1)/10); a rate of exactly 1.0 lands in the top bin.
    ``interval_gains[b]`` is the mean top-k accuracy gain (curriculum minus
    baseline) over the bin's categories, nan where the bin is empty.
    """

    correct_rates: tuple[float, ...]
    histogram: tuple[int, ...]
    interval_gains: tuple[float, ...]


def _mismatches(cd: CurriculumDesign, reference: Mapping[str, int]) -> np.ndarray:
    missing = [sid for sid in cd.sample_ids if sid not in reference]
    if missing:
        raise AnalysisError(
            f"reference labels missing for {len(missing)} ids (first: {missing[0]!r})"
        )
    ref = np.array([reference[sid] for sid in cd.sample_ids], dtype=np.int64)
    return cd.categories != ref


def subset_noise_rates(
    cd: CurriculumDesign, reference: Mapping[str, int]
) -> SubsetNoiseRates:
    """Fraction of each subset level whose given label disagrees with the
    reference (ground truth or an external auditor's predictions)."""
    wrong = _mismatches(cd, reference)
    sizes, bad, rates = [], [], []
    for level in range(cd.n_subsets):
        mask = cd.levels == level
        size = int(mask.sum())
        mis = int(wrong[mask].sum())
        sizes.append(size)
        bad.append(mis)
        rates.append(mis / size if size else math.nan)
    return SubsetNoiseRates(
        sizes=tuple(sizes),
        mislabeled=tuple(bad),
        rates=tuple(rates),
        overall_rate=sum(bad) / cd.n_samples,
    )


def category_correct_rates(
    cd: CurriculumDesign, reference: Mapping[str, int]
) -> np.ndarray:
    """Per-category fraction of samples whose given label matches the
    reference."""
    wrong = _mismatches(cd, reference)
    c = cd.n_categories
    n = np.bincount(cd.categories, minlength=c)[:c]
    n_wrong = np.bincount(cd.categories[wrong], minlength=c)[:c]
    with np.errstate(invalid="ignore"):  # 0 / 0: nan for an empty category
        return 1.0 - n_wrong / n


def rate_bin(rate: float) -> int:
    if not 0.0 <= rate <= 1.0:
        raise AnalysisError(f"correct rate {rate} outside [0, 1]")
    return min(int(rate * N_BINS), N_BINS - 1)


def rate_interval_report(
    correct_rates: np.ndarray,
    baseline: RunMetrics,
    curriculum: RunMetrics,
) -> NoiseAudit:
    """Bin categories by correct rate and average the curriculum-over-
    baseline top-k accuracy gain within each bin."""
    correct_rates = np.asarray(correct_rates, dtype=np.float64)
    c = correct_rates.shape[0]
    for name, metrics in (("baseline", baseline), ("curriculum", curriculum)):
        if metrics.per_category_topk is None or metrics.per_category_topk.shape[0] != c:
            raise AnalysisError(
                f"{name} metrics lack per-category accuracies for {c} categories"
            )
    gains = curriculum.per_category_topk - baseline.per_category_topk
    histogram = [0] * N_BINS
    bin_gains: list[list[float]] = [[] for _ in range(N_BINS)]
    for cat in range(c):
        b = rate_bin(float(correct_rates[cat]))
        histogram[b] += 1
        if math.isfinite(gains[cat]):
            bin_gains[b].append(float(gains[cat]))
    interval_gains = tuple(
        sum(g) / len(g) if g else math.nan for g in bin_gains
    )
    return NoiseAudit(
        correct_rates=tuple(float(r) for r in correct_rates),
        histogram=tuple(histogram),
        interval_gains=interval_gains,
    )
