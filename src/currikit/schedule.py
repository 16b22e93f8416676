"""Stage schedules and two-level balanced batch sampling.

The reference plan trains in three stages with per-batch subset-level
compositions (256, 0, 0), (128, 128, 0) and (128, 64, 64) at batch size 256,
loss weights (1.0, 0.5, 0.5), an initial learning rate of 0.1 decaying by 10x
at iterations 300k / 500k / 600k / 650k of a 700k-iteration run, and stage
transitions at the first two decay points. ``default_schedule`` returns the
first n stages of that plan, the last of them running to the end of the
budget; it scales both the composition (to any batch size divisible by 4)
and the iteration axis (by a factor in (0, 1]) so the same plan runs at desk
scale. ``plain_schedule`` is the plain-training baseline: one unrestricted,
unweighted stage over the same budget and learning-rate plan. ``spans`` is the
one reader of a schedule's stage and rate changes.

Batches apply two balancing rules: the level-0 (clean) portion draws that
many distinct categories uniformly and then one uniformly random clean sample
from each (category-level balance); higher-level portions are plain uniform
draws with replacement from their subsets, deliberately without category
balance.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from itertools import zip_longest

import numpy as np

from .curriculum import CurriculumDesign, CurriculumError
from .data import FeatureSet

logger = logging.getLogger(__name__)

BASE_BATCH = 256
BASE_COMPOSITIONS = ((256, 0, 0), (128, 128, 0), (128, 64, 64))
BASE_TOTAL_ITERS = 700_000
BASE_LR = 0.1
LR_DECAY_FACTOR = 10.0
BASE_LR_DECAY_ITERS = (300_000, 500_000, 600_000, 650_000)
# Stage transitions coincide with the first two decay points.
BASE_STAGE_BOUNDS = (300_000, 500_000)

DEFAULT_LOSS_WEIGHTS = (1.0, 0.5, 0.5)


@dataclass(frozen=True)
class StageSpec:
    """One training stage.

    ``batch_composition`` gives per-level sample counts per batch; ``None``
    means unrestricted uniform sampling over all levels up to ``stage_index``
    (used by the plain-training baseline). ``lr_plan`` is a tuple of
    (global iteration, learning rate) breakpoints; a rate applies from its
    iteration until the next breakpoint.
    """

    stage_index: int
    batch_size: int
    batch_composition: tuple[int, ...] | None
    loss_weights: tuple[float, ...]
    iterations: int
    lr_plan: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if self.batch_composition is not None:
            if any(c < 0 for c in self.batch_composition):
                raise ValueError("batch composition counts must be >= 0")
            if sum(self.batch_composition) != self.batch_size:
                raise ValueError("batch composition must sum to the batch size")
            for level, count in enumerate(self.batch_composition):
                if level > self.stage_index and count > 0:
                    raise ValueError(
                        f"stage {self.stage_index} cannot draw from level {level}"
                    )
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if not self.lr_plan:
            raise ValueError("lr_plan must have at least one breakpoint")

    def sample_weights(self, levels: np.ndarray) -> np.ndarray:
        """Loss weight of each sample, looked up by its subset level."""
        return np.asarray(self.loss_weights, dtype=np.float64)[levels]


@dataclass(frozen=True)
class Batch:
    """Sampled mini-batch: dataset row indices with per-sample loss weights."""

    indices: np.ndarray
    weights: np.ndarray
    levels: np.ndarray

    @property
    def size(self) -> int:
        return self.indices.shape[0]

    def level_counts(self, n_levels: int) -> tuple[int, ...]:
        return tuple(int(x) for x in np.bincount(self.levels, minlength=n_levels))


def _scale_iteration(base: int, scale: float) -> int:
    return int(round(base * scale))


def lr_at(lr_plan: tuple[tuple[int, float], ...], iteration: int) -> float:
    """Learning rate in effect at a global iteration."""
    rate = lr_plan[0][1]
    for start, lr in lr_plan:
        if iteration >= start:
            rate = lr
        else:
            break
    return rate


def full_lr_plan(scale: float = 1.0) -> tuple[tuple[int, float], ...]:
    """The whole-run learning-rate plan: 0.1 decaying by 10x at each scaled
    decay iteration."""
    plan = [(0, BASE_LR)]
    lr = BASE_LR
    for base_it in BASE_LR_DECAY_ITERS:
        lr /= LR_DECAY_FACTOR
        plan.append((_scale_iteration(base_it, scale), lr))
    return tuple(plan)


def default_schedule(
    batch_size: int = BASE_BATCH, scale: float = 1.0, n_stages: int = 3
) -> list[StageSpec]:
    """The first `n_stages` stages of the reference plan, composition scaled
    to `batch_size` and the iteration axis scaled by `scale`. The last stage
    runs to the end of the budget: 3 stages are the full curriculum, 2 never
    sample the highly-noisy subset and 1 trains on the clean subset only. A
    scale that leaves any stage without an iteration is rejected."""
    if batch_size < 4 or batch_size % 4 != 0:
        raise ValueError("batch_size must be a positive multiple of 4")
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    if not 1 <= n_stages <= len(BASE_COMPOSITIONS):
        raise ValueError(f"n_stages must be in [1, {len(BASE_COMPOSITIONS)}]")
    plan = full_lr_plan(scale)
    bounds = (
        [0]
        + [_scale_iteration(b, scale) for b in BASE_STAGE_BOUNDS[: n_stages - 1]]
        + [_scale_iteration(BASE_TOTAL_ITERS, scale)]
    )
    for s in range(n_stages):
        if bounds[s] == bounds[s + 1]:
            raise ValueError(f"scale {scale:g} leaves stage {s} with no iterations")
    return [
        StageSpec(
            stage_index=s,
            batch_size=batch_size,
            batch_composition=tuple(c * batch_size // BASE_BATCH for c in BASE_COMPOSITIONS[s]),
            loss_weights=DEFAULT_LOSS_WEIGHTS,
            iterations=stop - start,
            lr_plan=((start, lr_at(plan, start)),
                     *((it, lr) for it, lr in plan if start < it < stop)),
        )
        for s, (start, stop) in enumerate(zip(bounds, bounds[1:]))
    ]


def plain_schedule(batch_size: int = BASE_BATCH, scale: float = 1.0) -> list[StageSpec]:
    """One stage for the whole budget with unrestricted, unweighted sampling
    over every level (the plain-training baseline): ModelB's one stage of
    :func:`default_schedule`, with its budget and learning-rate plan."""
    n_levels = len(DEFAULT_LOSS_WEIGHTS)
    return [replace(default_schedule(batch_size, scale, 1)[0], stage_index=n_levels - 1,
                    batch_composition=None, loss_weights=(1.0,) * n_levels)]


def spans(schedule: list[StageSpec]) -> list[tuple[int, int, StageSpec, float]]:
    """(start, stop, stage, learning rate) of each non-empty run of global
    iterations over which the stage and the rate stay the same: the schedule
    cut at every stage boundary and ``lr_plan`` breakpoint, tiling [0, total)."""
    out = []
    start = 0
    for stage in schedule:
        stop = start + stage.iterations
        cuts = sorted({it for it, _ in stage.lr_plan if start < it < stop})
        out += [(a, b, stage, lr_at(stage.lr_plan, a))
                for a, b in zip([start, *cuts], [*cuts, stop]) if a < b]
        start = stop
    return out


# ---------------------------------------------------------------------------
# sampling


def _move_picks(
    composition: tuple[int, ...], pool_sizes: list[int]
) -> tuple[list[int], list[tuple[int, int, int]]]:
    """The per-level pick counts of `composition`, padded to one count per
    pool, after each count asked of an empty pool above level 0 has moved to
    the nearest lower non-empty level (level 0 if none); and the (level,
    count, target level) moves, from the top level down."""
    if len(composition) > len(pool_sizes):
        raise ValueError(
            f"stage composition spans {len(composition)} levels but the "
            f"curriculum has {len(pool_sizes)}"
        )
    counts = list(composition) + [0] * (len(pool_sizes) - len(composition))
    moves = []
    for level in range(len(counts) - 1, 0, -1):
        if counts[level] and not pool_sizes[level]:
            target = level - 1
            while target > 0 and not pool_sizes[target]:
                target -= 1
            moves.append((level, counts[level], target))
            counts[target] += counts[level]
            counts[level] = 0
    return counts, moves


def report_moves(schedule: list[StageSpec], pool_sizes: list[int]) -> None:
    """Log each move of picks off an empty level that `schedule`'s batches
    make over pools of `pool_sizes` samples per level (:func:`_move_picks`)."""
    for stage in schedule:
        if stage.batch_composition is not None:
            for level, count, target in _move_picks(stage.batch_composition, pool_sizes)[1]:
                logger.warning("stage %d: level %d subset is empty; moving %d picks to level %d",
                               stage.stage_index, level, count, target)


class CurriculumSampler:
    """Draws stage batches from a curriculum over the dataset it was designed on.

    The sampler is a pure function of the generator passed to
    :meth:`next_batch`; two identically seeded generators yield identical
    batches. If a required subset is empty dataset-wide, its count shifts to
    the nearest lower non-empty level, silently (:func:`report_moves` logs
    it for a run). `include` masks samples out of every pool without
    touching the dataset (used by the highly-noisy-fraction sweep).

    The clean pools are one index array grouped by category, each category's
    pool at ``clean_start[c]:clean_start[c] + clean_size[c]`` in ascending
    sample order. What a stage draws from is worked out on its first batch
    and reused for the rest.
    """

    def __init__(
        self,
        cd: CurriculumDesign,
        fs: FeatureSet,
        include: np.ndarray | None = None,
    ):
        if fs.sample_ids != cd.sample_ids:
            row, given, known = next((i, a, b) for i, (a, b) in enumerate(
                zip_longest(fs.sample_ids, cd.sample_ids)) if a != b)
            raise CurriculumError(f"dataset row {row} has sample id {given!r} where the "
                                  f"curriculum has {known!r}: not the dataset it was designed on")
        self.levels = cd.levels
        self.n_levels = cd.n_subsets
        self.include = (np.ones(fs.n_samples, dtype=bool) if include is None
                        else np.asarray(include, dtype=bool))
        if self.include.shape != (fs.n_samples,):
            raise ValueError("include mask length does not match the dataset")
        self.by_level = [np.flatnonzero((self.levels == s) & self.include)
                         for s in range(self.n_levels)]
        clean = self.by_level[0]
        clean_labels = fs.labels[clean]
        self.clean_flat = clean[np.argsort(clean_labels, kind="stable")]
        self.clean_size = np.bincount(clean_labels, minlength=fs.n_categories)
        self.clean_start = np.cumsum(self.clean_size) - self.clean_size
        self.categories_with_clean = np.flatnonzero(self.clean_size)
        self._stage_draws: dict[StageSpec, tuple[list, np.ndarray]] = {}

    def stage_pool(self, stage: StageSpec) -> np.ndarray:
        """The included samples at or below `stage`'s level, in row order:
        what an unrestricted stage draws from, and what the stage's training
        loss is taken over."""
        return np.flatnonzero((self.levels <= stage.stage_index) & self.include)

    def _draws(self, stage: StageSpec) -> tuple[list, np.ndarray]:
        """The (pool, count) draws of one batch of `stage`, in draw order,
        and its loss weight per level. A pool of None is the category-balanced
        clean draw; any other pool is drawn uniformly with replacement."""
        plan = self._stage_draws.get(stage)
        if plan is None:
            if stage.batch_composition is None:
                pool = self.stage_pool(stage)
                if not pool.size:
                    raise ValueError("no samples available for an unrestricted stage")
                draws = [(pool, stage.batch_size)]
            else:
                counts = _move_picks(stage.batch_composition, [p.size for p in self.by_level])[0]
                if counts[0] and not self.by_level[0].size:
                    raise ValueError("level 0 subset is empty; cannot build a batch")
                draws = [(None if level == 0 else self.by_level[level], count)
                         for level, count in enumerate(counts) if count]
            plan = draws, np.asarray(stage.loss_weights, dtype=np.float64)
            self._stage_draws[stage] = plan
        return plan

    def _draw_clean(self, count: int, rng: np.random.Generator) -> np.ndarray:
        cats = self.categories_with_clean
        replace = cats.size < count
        picked = rng.choice(cats, size=count, replace=replace)
        # One bounded draw per pick, in pick order: the same generator stream
        # as a scalar rng.integers(0, size) per pick.
        return self.clean_flat[
            self.clean_start[picked] + rng.integers(0, self.clean_size[picked])
        ]

    def next_batch(self, stage: StageSpec, rng: np.random.Generator) -> Batch:
        draws, level_weights = self._draws(stage)
        parts = [
            self._draw_clean(count, rng) if pool is None
            else pool[rng.integers(0, pool.size, size=count)]
            for pool, count in draws
        ]
        indices = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        levels = self.levels[indices]
        return Batch(indices=indices, weights=level_weights[levels], levels=levels)
