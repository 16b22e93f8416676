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
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .curriculum import (
    CurriculumDesign,
    CurriculumParams,
    design_curriculum,
    design_curriculum_kmeans_baseline,
)
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
    """Designs each needed (method, n_subsets) curriculum exactly once."""

    def __init__(self, fs_train: FeatureSet, params: CurriculumParams):
        self.fs_train = fs_train
        self.params = params
        self._cache: dict[tuple[str, int], CurriculumDesign] = {}

    def get(self, method: str, n_subsets: int) -> CurriculumDesign:
        key = (method, n_subsets)
        if key not in self._cache:
            params = replace(self.params, n_subsets=n_subsets)
            if method == "density":
                self._cache[key] = design_curriculum(self.fs_train, params)
            elif method == "kmeans":
                self._cache[key] = design_curriculum_kmeans_baseline(self.fs_train, params)
            else:
                raise ValueError(f"unknown design method {method!r}")
        return self._cache[key]


def build_strategy(
    tag: str, curricula: CurriculumCache, batch_size: int, scale: float
) -> tuple[CurriculumDesign, list[StageSpec]]:
    """The (curriculum, schedule) pair that strategy `tag` trains with."""
    if tag not in _STRATEGIES:
        raise ValueError(f"unknown strategy {tag!r}; expected one of {STRATEGY_TAGS}")
    method, n_stages = _STRATEGIES[tag]
    cd = curricula.get(method, 3)
    if n_stages is None:
        return cd, plain_schedule(batch_size, scale)
    return cd, default_schedule(batch_size, scale, n_stages)


def run_ablation(
    tags: list[str],
    seeds: list[int],
    fs_train: FeatureSet,
    fs_test: FeatureSet,
    params: CurriculumParams,
    *,
    batch_size: int = 64,
    scale: float = 0.001,
    arch: str = "linear",
    hidden_dim: int = 32,
    topk: int = 5,
) -> list[RunMetrics]:
    """Every strategy x seed combination, in deterministic order."""
    curricula = CurriculumCache(fs_train, params)
    strategies = {tag: build_strategy(tag, curricula, batch_size, scale) for tag in tags}
    results = []
    for tag in tags:
        cd, schedule = strategies[tag]
        for seed in seeds:
            _, metrics = train(
                tag, fs_train, fs_test, cd, schedule, seed,
                arch=arch, hidden_dim=hidden_dim, topk=topk,
            )
            results.append(metrics)
    return results


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


def noisy_fraction_sweep(
    fractions: list[float],
    seeds: list[int],
    fs_train: FeatureSet,
    fs_test: FeatureSet,
    params: CurriculumParams,
    *,
    batch_size: int = 64,
    scale: float = 0.001,
    arch: str = "linear",
    hidden_dim: int = 32,
    topk: int = 5,
) -> list[tuple[float, RunMetrics]]:
    """Rerun the three-stage curriculum sampling from only a fraction of the
    highly-noisy subset, for every fraction x seed. The kept subset is a
    seeded uniform draw; excluded samples are masked out of the sampler
    pools while the dataset (and input standardization) stays fixed, so runs
    differ only in the data the sampler may draw. At fraction 1 the run is
    identical to ModelD; at fraction 0 no highly-noisy sample is ever used
    and the batch mix reduces to the clean+noisy two-subset schedule."""
    if any(f < 0 or f > 1 for f in fractions):
        raise ValueError("fractions must lie in [0, 1]")
    cd3 = design_curriculum(fs_train, replace(params, n_subsets=3))
    schedule = default_schedule(batch_size, scale)
    results = []
    for fraction in fractions:
        for seed in seeds:
            keep = restrict_highly_noisy(cd3, fraction, seed)
            _, metrics = train(
                f"ModelD@hn={fraction:g}",
                fs_train,
                fs_test,
                cd3,
                schedule,
                seed,
                arch=arch,
                hidden_dim=hidden_dim,
                topk=topk,
                include_mask=keep,
            )
            results.append((fraction, metrics))
    return results


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
