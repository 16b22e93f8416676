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

import copy
import ctypes
import glob
import math
import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cache
from itertools import groupby

import numpy as np

from .curriculum import CurriculumDesign, CurriculumParams, design
from .data import FeatureSet
from .schedule import StageSpec, default_schedule, plain_schedule, report_moves, spans
from .seeding import component_rng
from .trainer import RunMetrics, TrainState, _check_model, _check_topk, replay_batches, train

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


def _schedule(tag: str, batch_size: int, scale: float) -> tuple[str, list[StageSpec]]:
    """The design method and the schedule of strategy `tag`."""
    if tag not in _STRATEGIES:
        raise ValueError(f"unknown strategy {tag!r}; expected one of {STRATEGY_TAGS}")
    method, n_stages = _STRATEGIES[tag]
    if n_stages is None:
        return method, plain_schedule(batch_size, scale)
    return method, default_schedule(batch_size, scale, n_stages)


def build_strategy(
    tag: str, curricula: CurriculumCache, batch_size: int, scale: float
) -> tuple[CurriculumDesign, list[StageSpec]]:
    """The (curriculum, schedule) pair that strategy `tag` trains with."""
    method, schedule = _schedule(tag, batch_size, scale)
    return curricula.get(method), schedule


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
) -> Iterator[tuple[RunMetrics, Iterator | None]]:
    """Train every strategy x seed, or with `fractions` every strategy x
    fraction x seed, and yield each run's (metrics, batch log or None) in
    that order. Each curriculum is designed once. An empty strategy, seed
    or fraction list, a strategy or seed listed twice, a batch size or scale
    that gives a strategy no valid schedule, or a `hidden_dim` or `topk`
    that no run could train with raises ValueError before anything is designed.

    A fraction run keeps only a seeded uniform share of the highly-noisy
    subset (:func:`restrict_highly_noisy`) and is tagged
    ``"{tag}@hn={fraction:g}"``. Excluded samples are masked out of the
    sampler pools while the dataset (and input standardization) stays fixed,
    so runs differ only in the data the sampler may draw. For ModelD,
    fraction 1 is identical to ModelD itself, and at fraction 0 no
    highly-noisy sample is ever used, so the batch mix reduces to ModelC's
    clean+noisy subsets.

    Runs of one seed and curriculum that train identically up to a stage
    boundary train that prefix once: ModelB, ModelC and ModelD share their
    first stage, ModelC and ModelD their second, and every fraction of a
    sweep shares the stages that never draw the highly-noisy subset. The
    grid is planned as a tree of segments (:class:`_Grid`); each segment
    continues where the one before it ended, and each run's metrics are the
    same as from its own :func:`train` call. A run's batch log draws that
    call's batches again, in this process, as it is read (:func:`replay_batches`).

    The parent process designs the curricula, builds every run's schedule
    and keep-mask and plans the segments; forked worker processes, one per
    usable core and never more than the runs, then train the segments,
    while numpy's OpenBLAS runs one thread. A segment is sent to a worker
    as soon as the one before it ends. The parent logs each run's pick
    moves (:func:`report_moves`) at the start of its turn. A run's outputs
    and warnings do not depend on the number of workers.
    Where the OpenBLAS thread-count call is not found, the runs train one
    after another in this process."""
    for what, entries in (("strategy", tags), ("seed", seeds), ("fraction", fractions)):
        if entries is not None and not entries:
            raise ValueError(f"at least one {what} is required")
    for what, entries in (("strategy", tags), ("seed", seeds)):
        for i, entry in enumerate(entries):
            if entry in entries[:i]:
                raise ValueError(f"{what} {entry!r} is listed twice; each run needs its own entry")
    if not all(0 <= f <= 1 for f in fractions or ()):
        raise ValueError("fractions must lie in [0, 1]")
    for i, f in enumerate(fractions or ()):
        twin = next((g for g in fractions[:i] if f"{g:g}" == f"{f:g}"), None)
        if twin is not None:
            raise ValueError(f"fractions {twin!r} and {f!r} share the run tag suffix "
                             f"@hn={f:g}; each fraction needs its own tag")
    for tag in tags:
        _schedule(tag, batch_size, scale)
    _check_model(arch, hidden_dim)
    _check_topk(topk, fs_train.n_categories)
    with _one_blas_thread() as capped:
        curricula = CurriculumCache(fs_train, params)
        strategies = {tag: build_strategy(tag, curricula, batch_size, scale) for tag in tags}
        runs = []
        for tag in tags:
            cd, schedule = strategies[tag]
            for fraction in [None] if fractions is None else fractions:
                run_tag = tag if fraction is None else f"{tag}@hn={fraction:g}"
                for seed in seeds:
                    keep = restrict_highly_noisy(cd, 1.0 if fraction is None else fraction, seed)
                    runs.append(_Run(run_tag, cd, schedule, seed, keep))
        grid = _Grid(runs, fs_train, fs_test, arch=arch, hidden_dim=hidden_dim, topk=topk)
        workers = min(_usable_cores(), sum(not c for c in grid.children))
        serial = workers <= 1 or not capped or not hasattr(os, "fork")
        results = (grid.walk(lambda i, start: grid.train_segment(i, copy.deepcopy(start)))
                   if serial else grid.train_in_pool(workers))
        for run, metrics in zip(runs, results):
            yield metrics, (replay_batches(fs_train, run.cd, run.schedule, run.seed, run.keep)
                            if batch_log else None)


@dataclass(frozen=True, eq=False)
class _Run:
    tag: str
    cd: CurriculumDesign
    schedule: list[StageSpec]
    seed: int
    keep: np.ndarray

    def report_moves(self) -> None:
        n = self.cd.n_subsets
        report_moves(self.schedule, np.bincount(self.cd.levels[self.keep], minlength=n))


@dataclass(frozen=True)
class _Segment:
    """The iterations up to `stop` that `runs` (grid indices, in serial
    order) train identically, from the end of the segment before it on
    their paths or from a fresh start. The first of the runs trains it."""

    runs: tuple[int, ...]
    stop: int


class _Grid:
    """The runs of one grid, planned as a prefix tree of segments.

    A stage's batches are a function of its pools alone, so two runs share
    iterations [0, t) when they have the same curriculum, seed and total
    iterations, and their spans before t pair up with the same stop,
    learning rate, stage index, batch size and composition, loss weights,
    and keep-masks that agree on every sample at or below that stage's
    level. Each span is keyed by these and by the key of the span before
    it, so runs that share a key share every iteration up to its stop. A
    stage that moves picks off an empty level is shared like any other.
    """

    def __init__(self, runs: list[_Run], fs_train: FeatureSet, fs_test: FeatureSet, *,
                 arch: str, hidden_dim: int, topk: int):
        self.runs = runs
        self.fs_train, self.fs_test = fs_train, fs_test
        self.arch, self.hidden_dim, self.topk = arch, hidden_dim, topk
        self.segments: list[_Segment] = []
        self.paths: list[list[int]] = []  # each run's segments, from its fresh start
        self.children: list[list[int]] = []  # the segments that continue from each
        runs_of: dict[tuple, list[int]] = {}  # span key -> the runs through it
        masks: dict[bytes, int] = {}  # packed keep-mask -> its id, one copy per mask
        keyed = []  # each run's (stop, key) per span
        for i, run in enumerate(runs):
            key: tuple = (run.cd, run.seed, sum(s.iterations for s in run.schedule))
            keyed.append([])
            for _, stop, s, lr in spans(run.schedule):
                low = np.packbits(run.keep[run.cd.levels <= s.stage_index]).tobytes()
                key = (key, stop, lr, s.stage_index, s.batch_size, s.batch_composition,
                       s.loss_weights, masks.setdefault(low, len(masks)))
                runs_of.setdefault(key, []).append(i)
                keyed[-1].append((stop, key))
        # A segment is a longest stretch of a run's spans that the same runs
        # go through, numbered when a run first reaches its first span.
        first: dict[tuple, int] = {}  # a segment's first span key -> the segment
        for run_spans in keyed:
            path: list[int] = []
            for through, stretch in groupby(run_spans, lambda span: runs_of[span[1]]):
                stretch = list(stretch)
                head = stretch[0][1]
                if head not in first:
                    first[head] = len(self.segments)
                    self.segments.append(_Segment(tuple(through), stretch[-1][0]))
                    self.children.append([])
                    if path:
                        self.children[path[-1]].append(first[head])
                path.append(first[head])
            self.paths.append(path)

    def train_segment(
        self, i: int, state: TrainState | None
    ) -> tuple[TrainState | None, RunMetrics]:
        """Train segment `i` from the end `state` of the one before it (None:
        a fresh start); return its end state if a child needs it, and the metrics."""
        seg = self.segments[i]
        run = self.runs[seg.runs[0]]
        if state is None:
            state = TrainState.start(self.fs_train, run.seed, self.arch, self.hidden_dim)
        _, metrics = train(run.tag, self.fs_train, self.fs_test, run.cd, run.schedule, run.seed,
                           topk=self.topk, include_mask=run.keep, state=state, stop=seg.stop)
        return (state if self.children[i] else None), metrics

    def walk(self, collect: Callable[[int, TrainState | None], tuple]) -> Iterator[RunMetrics]:
        """Each run's metrics, in serial order. At its turn a run logs its
        pick moves and gets each segment of its path not yet done from
        `collect(i, start)`, `start` being the end state of the segment
        before it (None: a fresh start); results no later run needs go."""
        done: dict[int, tuple] = {}
        for run, path in enumerate(self.paths):
            self.runs[run].report_moves()
            start = None
            for i in path:
                if i not in done:
                    done[i] = collect(i, start)
                start = done[i][0]
            metrics = done[path[-1]][1]
            if run != self.segments[path[-1]].runs[0]:
                metrics = replace(metrics, strategy=self.runs[run].tag)
            for i in path:
                if self.segments[i].runs[-1] == run:
                    del done[i]
            yield metrics

    def train_in_pool(self, workers: int) -> Iterator[RunMetrics]:
        """Train in forked workers; a segment is submitted as soon as the
        segment before it ends, and a failed segment is raised at the turn
        of the first run through it."""
        # Fork, not spawn: workers inherit the data and designs instead of
        # importing and receiving them. The parent's only other threads are
        # OpenBLAS's, which OpenBLAS's own fork handler joins before a fork,
        # and the executor forks every worker before it starts its manager
        # thread, so the parent holds one OS thread when it forks (Python
        # 3.12+ warns otherwise). Checked on CPython 3.11 only.
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
        from multiprocessing import get_context

        with ProcessPoolExecutor(
            workers, mp_context=get_context("fork"), initializer=_hold_grid, initargs=(self,)
        ) as pool:
            running = {}  # future -> its segment
            ended = {}  # segment -> its future, until collected

            def submit(i: int, state: TrainState | None) -> None:
                running[pool.submit(_train_held_segment, i, state)] = i

            def collect(i: int, _) -> tuple:
                while i not in ended:
                    for future in wait(running, return_when=FIRST_COMPLETED).done:
                        j = running.pop(future)
                        ended[j] = future
                        if future.exception() is None:
                            for child in self.children[j]:
                                submit(child, future.result()[0])
                return ended.pop(i).result()

            try:
                for root in dict.fromkeys(path[0] for path in self.paths):
                    submit(root, None)
                yield from self.walk(collect)
            finally:
                pool.shutdown(cancel_futures=True)


# The grid a forked worker inherited from run_grid; set in workers only.
_worker_grid: _Grid | None = None


def _hold_grid(grid: _Grid) -> None:
    global _worker_grid
    _worker_grid = grid


def _train_held_segment(i: int, state: TrainState | None):
    """Train segment `i` of the grid this worker inherited; only `i` and the
    end state of the segment before it are sent to the worker, and only the
    segment's results come back."""
    return _worker_grid.train_segment(i, state)


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@cache
def _openblas_threads():
    """The (get, set) thread-count calls of the OpenBLAS bundled with numpy,
    or None where none is found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


@contextmanager
def _one_blas_thread() -> Iterator[bool]:
    """Cap numpy's OpenBLAS at one thread and restore the caller's count on
    exit; yields whether the cap could be set. Forked workers inherit the
    cap, so two workers on two cores do not start four BLAS threads."""
    calls = _openblas_threads()
    if calls is None:
        yield False
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield True
    finally:
        set_(before)


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
