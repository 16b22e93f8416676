"""Diagnostics over curricula and run metrics.

Noise rates per subset level measure how well the design separates
mislabeled data; the rate-interval report bins categories by the correctness
of their given labels and compares per-bin test gains of a curriculum run
against a baseline run. All computations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .curriculum import CurriculumDesign
from .data import category_rows

if TYPE_CHECKING:
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
    baseline) over the bin's categories with a finite gain, nan where there
    is none. A category with no samples has no correct rate (nan): it is in
    no bin and adds no gain.
    """

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
    reference (ground truth or an external auditor's predictions). A sample
    whose level is outside [0, n_subsets) counts toward no level. A
    curriculum with no samples raises AnalysisError."""
    if not cd.n_samples:
        raise AnalysisError("the curriculum holds no samples; there is nothing to audit")
    wrong = _mismatches(cd, reference)
    by_level = category_rows(cd.levels, cd.n_subsets)
    sizes = tuple(rows.size for rows in by_level)
    bad = tuple(int(np.count_nonzero(wrong[rows])) for rows in by_level)
    return SubsetNoiseRates(
        sizes=sizes,
        mislabeled=bad,
        rates=tuple(m / n if n else math.nan for m, n in zip(bad, sizes)),
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


def rate_bin(rate: float | np.ndarray) -> np.ndarray:
    """The bin of each correct rate: b for [b/10, (b+1)/10), and the top bin
    for 1.0. A rate outside [0, 1], nan included, raises AnalysisError."""
    rate = np.asarray(rate, dtype=np.float64)
    outside = rate[~((rate >= 0.0) & (rate <= 1.0))]
    if outside.size:
        raise AnalysisError(f"correct rate {outside[0]} outside [0, 1]")
    return np.minimum((rate * N_BINS).astype(np.int64), N_BINS - 1)


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
    has_rate = ~np.isnan(correct_rates)
    bins = rate_bin(correct_rates[has_rate])
    gains = (curriculum.per_category_topk - baseline.per_category_topk)[has_rate]
    finite = np.isfinite(gains)
    # A weighted bincount adds each bin's gains in category order from 0.0.
    total = np.bincount(bins[finite], weights=gains[finite], minlength=N_BINS)
    count = np.bincount(bins[finite], minlength=N_BINS)
    with np.errstate(invalid="ignore"):  # 0 / 0: nan for a bin without a finite gain
        mean = total / count
    return NoiseAudit(
        histogram=tuple(np.bincount(bins, minlength=N_BINS).tolist()),
        interval_gains=tuple(mean.tolist()),
    )
