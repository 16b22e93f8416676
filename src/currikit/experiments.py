"""Ablation harness: the training strategies and the noise-fraction sweep.

A strategy is a design method for the 3-subset curriculum plus a schedule:
the first n stages of the reference plan (``default_schedule``), or the
plain baseline's single stage. All share the learning-rate plan and the
total iteration budget, so runs differ only in which data each stage admits:

* ModelA        density design; plain schedule: everything at once,
                unweighted uniform sampling.
* ModelB        density design; 1 stage: the clean subset only,
                category-balanced batches.
* ModelC        density design; 2 stages over the clean and noisy subsets;
                the highly-noisy subset is never sampled.
* ModelD        density design; all 3 stages.
* ModelD_kmeans k-means baseline design; all 3 stages.

``run_grid`` is the one loop that trains them: strategies x seeds, or the
highly-noisy-fraction sweep, ModelD with a share of its highly-noisy subset
masked out.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import replace

import numpy as np

from .curriculum import CurriculumDesign, CurriculumParams, design
from .data import FeatureSet
from .schedule import StageSpec, default_schedule, plain_schedule
from .seeding import component_rng
from .trainer import RunMetrics, train

# tag -> (design method, stages of the reference plan; None = plain schedule)
_STRATEGIES = {
    "ModelA": ("density", None),
    "ModelB": ("density", 1),
    "ModelC": ("density", 2),
    "ModelD": ("density", 3),
    "ModelD_kmeans": ("kmeans", 3),
}
STRATEGY_TAGS = tuple(_STRATEGIES)


class CurriculumCache:
    """Designs each needed 3-subset curriculum exactly once per method."""

    def __init__(self, fs_train: FeatureSet, params: CurriculumParams):
        self.fs_train = fs_train
        self.params = replace(params, n_subsets=3)
        self._cache: dict[str, CurriculumDesign] = {}

    def get(self, method: str) -> CurriculumDesign:
        if method not in self._cache:
            self._cache[method] = design(self.fs_train, self.params, method)
        return self._cache[method]


def build_strategy(
    tag: str, curricula: CurriculumCache, batch_size: int, scale: float
) -> tuple[CurriculumDesign, list[StageSpec]]:
    """The (curriculum, schedule) pair that strategy `tag` trains with."""
    if tag not in _STRATEGIES:
        raise ValueError(f"unknown strategy {tag!r}; expected one of {STRATEGY_TAGS}")
    method, n_stages = _STRATEGIES[tag]
    cd = curricula.get(method)
    if n_stages is None:
        return cd, plain_schedule(batch_size, scale)
    return cd, default_schedule(batch_size, scale, n_stages)


def restrict_highly_noisy(
    cd: CurriculumDesign, fraction: float, seed: int
) -> np.ndarray:
    """Keep-mask over cd's samples retaining a seeded uniform `fraction` of
    the highest subset level (every other sample is always kept)."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    top = cd.n_subsets - 1
    hn = np.flatnonzero(cd.levels == top)
    keep = np.ones(cd.n_samples, dtype=bool)
    n_keep = int(math.floor(fraction * hn.size + 0.5))
    if n_keep < hn.size:
        rng = component_rng(seed, "hn-fraction", int(round(fraction * 10_000)))
        kept = rng.choice(hn, size=n_keep, replace=False) if n_keep else np.empty(0, dtype=np.int64)
        keep[hn] = False
        keep[kept] = True
    return keep


def run_grid(
    tags: list[str],
    seeds: list[int],
    fs_train: FeatureSet,
    fs_test: FeatureSet,
    params: CurriculumParams,
    *,
    fractions: list[float] | None = None,
    batch_size: int = 64,
    scale: float = 0.001,
    arch: str = "linear",
    hidden_dim: int = 32,
    topk: int = 5,
    batch_log: bool = False,
) -> Iterator[tuple[RunMetrics, list | None]]:
    """Train every strategy x seed, or with `fractions` every strategy x
    fraction x seed, and yield each run's (metrics, batch log or None) in
    that order. Each curriculum is designed once.

    A fraction run keeps only a seeded uniform share of the highly-noisy
    subset (:func:`restrict_highly_noisy`) and is tagged
    ``"{tag}@hn={fraction:g}"``. Excluded samples are masked out of the
    sampler pools while the dataset (and input standardization) stays fixed,
    so runs differ only in the data the sampler may draw. For ModelD,
    fraction 1 is identical to ModelD itself, and at fraction 0 no
    highly-noisy sample is ever used, so the batch mix reduces to ModelC's
    clean+noisy subsets."""
    if fractions is not None and any(f < 0 or f > 1 for f in fractions):
        raise ValueError("fractions must lie in [0, 1]")
    curricula = CurriculumCache(fs_train, params)
    for tag in tags:
        cd, schedule = build_strategy(tag, curricula, batch_size, scale)
        for fraction in [None] if fractions is None else fractions:
            run_tag = tag if fraction is None else f"{tag}@hn={fraction:g}"
            for seed in seeds:
                keep = None if fraction is None else restrict_highly_noisy(cd, fraction, seed)
                log = [] if batch_log else None
                _, metrics = train(
                    run_tag, fs_train, fs_test, cd, schedule, seed, arch=arch,
                    hidden_dim=hidden_dim, topk=topk, batch_log=log, include_mask=keep,
                )
                yield metrics, log


def summarize(results: list[RunMetrics]) -> dict[str, dict[str, float]]:
    """Mean / population-std of the final errors per strategy tag."""
    by_tag: dict[str, list[RunMetrics]] = {}
    for m in results:
        by_tag.setdefault(m.strategy, []).append(m)
    out = {}
    for tag, runs in by_tag.items():
        top1 = np.array([m.final_top1 for m in runs])
        topk = np.array([m.final_topk for m in runs])
        out[tag] = {
            "runs": len(runs),
            "mean_top1": float(top1.mean()),
            "std_top1": float(top1.std()),
            "mean_topk": float(topk.mean()),
            "std_topk": float(topk.std()),
        }
    return out
