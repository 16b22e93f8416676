import logging
import os
import re
import time
import warnings
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from currikit import experiments
from currikit.analysis import category_correct_rates, rate_interval_report
from currikit.curriculum import CurriculumParams
from currikit.data import FeatureSet, SynthConfig, SyntheticTruth, generate_synthetic
from currikit.experiments import (
    STRATEGY_TAGS,
    CurriculumCache,
    build_strategy,
    restrict_highly_noisy,
    run_grid,
    summarize,
)
from currikit import trainer
from currikit.schedule import CurriculumSampler
from currikit.trainer import (
    ClassifierModel,
    RunMetrics,
    TrainState,
    TrainingDiverged,
    holdout_split,
    replay_batches,
    train,
)

PLANT = dict(n_categories=10, per_category=200, n_features=32,
             clean_frac=0.60, cross_frac=0.25, uniform_frac=0.15, blob_sigma=2.0)


@pytest.fixture(scope="module")
def split():
    fs, truth = generate_synthetic(SynthConfig(seed=0, **PLANT))
    fs_train, train_truth, fs_test = holdout_split(fs, truth, 0.2, 0)
    return fs_train, train_truth, fs_test


LR_PLAN = ((0, 0.1), (300, 0.01), (500, 0.001), (600, 0.0001), (650, 1e-05))
CURRICULUM_STAGES = [
    (0, (64, 0, 0), (1.0, 0.5, 0.5), 300, ((0, 0.1),)),
    (1, (32, 32, 0), (1.0, 0.5, 0.5), 200, ((300, 0.01),)),
    (2, (32, 16, 16), (1.0, 0.5, 0.5), 200, ((500, 0.001), (600, 0.0001), (650, 1e-05))),
]
# tag -> (design method, [(stage_index, batch_composition, loss_weights,
# iterations, lr_plan)]) at batch size 64 and scale 0.001.
PINNED_STRATEGIES = {
    "ModelA": ("density", [(2, None, (1.0, 1.0, 1.0), 700, LR_PLAN)]),
    "ModelB": ("density", [(0, (64, 0, 0), (1.0, 0.5, 0.5), 700, LR_PLAN)]),
    "ModelC": ("density", [
        (0, (64, 0, 0), (1.0, 0.5, 0.5), 300, ((0, 0.1),)),
        (1, (32, 32, 0), (1.0, 0.5, 0.5), 400,
         ((300, 0.01), (500, 0.001), (600, 0.0001), (650, 1e-05))),
    ]),
    "ModelD": ("density", CURRICULUM_STAGES),
    "ModelD_kmeans": ("kmeans", CURRICULUM_STAGES),
}


@pytest.mark.parametrize("tag", STRATEGY_TAGS)
def test_strategy_schedule_pinned(tag):
    fs, _ = generate_synthetic(SynthConfig(3, 12, 4, 0.6, 0.25, 0.15, seed=0))
    cache = CurriculumCache(fs, CurriculumParams(seed=0))
    cd, schedule = build_strategy(tag, cache, 64, 0.001)
    method, stages = PINNED_STRATEGIES[tag]
    assert cd is cache.get(method)
    assert [(s.stage_index, s.batch_composition, s.loss_weights, s.iterations, s.lr_plan)
            for s in schedule] == stages
    assert all(s.batch_size == 64 for s in schedule)


class TestStrategyComparisons:
    def test_density_design_beats_kmeans_design(self, split):
        fs_train, _, fs_test = split
        cache = CurriculumCache(fs_train, CurriculumParams(seed=0))
        density = build_strategy("ModelD", cache, 64, 0.001)
        kmeans = build_strategy("ModelD_kmeans", cache, 64, 0.001)
        seeds = range(10)
        wins = 0
        for seed in seeds:
            _, md = train("ModelD", fs_train, fs_test, *density, seed)
            _, mk = train("ModelD_kmeans", fs_train, fs_test, *kmeans, seed)
            wins += md.final_top1 <= mk.final_top1
        assert wins > 5, f"density curriculum won only {wins}/10 seeds"

    def test_summarize_groups_by_tag(self, split):
        fs_train, _, fs_test = split
        cache = CurriculumCache(fs_train, CurriculumParams(seed=0))
        st = build_strategy("ModelB", cache, 64, 0.0005)
        runs = [train("ModelB", fs_train, fs_test, *st, s)[1] for s in (0, 1)]
        table = summarize(runs)
        assert table["ModelB"]["runs"] == 2
        assert 0.0 <= table["ModelB"]["mean_top1"] <= 1.0


class TestNoisyFractionSweep:
    def test_zero_fraction_equals_model_c(self, split):
        fs_train, _, fs_test = split
        cache = CurriculumCache(fs_train, CurriculumParams(seed=0))
        model_c = build_strategy("ModelC", cache, 64, 0.001)
        _, mc = train("ModelC", fs_train, fs_test, *model_c, 4)
        [(m0, _)] = run_grid(["ModelD"], [4], fs_train, fs_test,
                             CurriculumParams(seed=0), fractions=[0.0])
        assert [(p.iteration, p.train_loss, p.test_top1, p.test_topk) for p in m0.points] \
            == [(p.iteration, p.train_loss, p.test_top1, p.test_topk) for p in mc.points]
        assert (m0.final_top1, m0.final_topk) == (mc.final_top1, mc.final_topk)

    def test_full_fraction_equals_model_d(self, split):
        fs_train, _, fs_test = split
        cache = CurriculumCache(fs_train, CurriculumParams(seed=0))
        model_d = build_strategy("ModelD", cache, 64, 0.001)
        _, md = train("ModelD", fs_train, fs_test, *model_d, 4)
        [(m1, _)] = run_grid(["ModelD"], [4], fs_train, fs_test,
                             CurriculumParams(seed=0), fractions=[1.0])
        assert m1.to_dict()["points"] == md.to_dict()["points"]

    def test_deterministic_per_fraction_and_seed(self, split):
        fs_train, _, fs_test = split
        a = list(run_grid(["ModelD"], [7], fs_train, fs_test, CurriculumParams(seed=0),
                          fractions=[0.5]))
        b = list(run_grid(["ModelD"], [7], fs_train, fs_test, CurriculumParams(seed=0),
                          fractions=[0.5]))
        assert a[0][0].to_dict() == b[0][0].to_dict()

    def test_restrict_mask_counts(self, split):
        fs_train, _, _ = split
        from currikit.curriculum import design_curriculum

        cd = design_curriculum(fs_train, CurriculumParams(seed=0))
        hn = int((cd.levels == 2).sum())
        for fraction in (0.0, 0.25, 1.0):
            keep = restrict_highly_noisy(cd, fraction, seed=3)
            kept_hn = int((keep & (cd.levels == 2)).sum())
            assert kept_hn == int(np.floor(fraction * hn + 0.5))
            assert keep[cd.levels < 2].all()


needs_blas_cap = pytest.mark.skipif(
    experiments._openblas_threads() is None,
    reason="no OpenBLAS thread-count call found, so runs train serially",
)


@pytest.mark.parametrize("options, message", [
    (dict(scale=1e-6), "scale 1e-06 leaves stage 0 with no iterations"),
    (dict(batch_size=6), "batch_size must be a positive multiple of 4"),
    (dict(topk=0), "topk must be at least 1, got 0"),
    (dict(topk=11), "topk exceeds the number of classes"),
    (dict(arch="mlp", hidden_dim=0), "hidden_dim must be at least 1, got 0"),
], ids=["scale", "batch-size", "topk-0", "topk-11", "hidden-dim"])
def test_bad_run_option_rejected_before_any_design(split, monkeypatch, options, message):
    def design(*args):
        raise AssertionError("designed before the run options were checked")

    monkeypatch.setattr(experiments, "design", design)
    fs_train, _, fs_test = split
    with pytest.raises(ValueError, match=re.escape(message)):
        next(run_grid(["ModelB", "ModelD"], [0], fs_train, fs_test, CurriculumParams(seed=0),
                      **{"scale": 0.0002, **options}))


def _os_threads() -> int:
    with open("/proc/self/stat") as f:
        return int(f.read().rsplit(")", 1)[1].split()[17])


# OS threads of this process right after each fork, in the parent.
_AFTER_FORK_THREADS: list[int] = []
if os.path.exists("/proc/self/stat"):
    os.register_at_fork(after_in_parent=lambda: _AFTER_FORK_THREADS.append(_os_threads()))


def _grid(split, monkeypatch, cores, seeds=(0, 1)):
    """Train ModelB over `seeds` as if the machine had `cores` usable cores."""
    monkeypatch.setattr(experiments, "_usable_cores", lambda: cores)
    fs_train, _, fs_test = split
    return list(run_grid(["ModelB"], list(seeds), fs_train, fs_test, CurriculumParams(seed=0),
                         scale=0.0002))


class TestWorkers:
    @needs_blas_cap
    def test_worker_error_reraised_in_parent(self, split, monkeypatch):
        def failing_train(tag, *args, **kwargs):
            raise ValueError(f"{tag} failed in process {os.getpid()}")

        monkeypatch.setattr(experiments, "train", failing_train)
        with pytest.raises(ValueError, match=r"ModelB failed in process \d+") as info:
            _grid(split, monkeypatch, cores=2)
        worker = int(re.search(r"process (\d+)", str(info.value)).group(1))
        assert worker != os.getpid()

    @needs_blas_cap
    def test_worker_death_is_a_runtime_error(self, split, monkeypatch):
        parent = os.getpid()

        def dying_train(*args, **kwargs):
            assert os.getpid() != parent, "trained in the parent process"
            os._exit(3)

        monkeypatch.setattr(experiments, "train", dying_train)
        with pytest.raises(RuntimeError):
            _grid(split, monkeypatch, cores=2)

    @needs_blas_cap
    @pytest.mark.parametrize("cores", [1, 2])
    def test_one_blas_thread_while_training_then_restored(self, split, monkeypatch, cores):
        get, set_ = experiments._openblas_threads()
        monkeypatch.setattr(experiments, "train",
                            lambda *args, **kwargs: (None, (os.getpid(), get())))
        before = get()
        set_(2)
        try:
            runs = [m for m, _ in _grid(split, monkeypatch, cores, seeds=range(4))]
            after = get()
        finally:
            set_(before)
        assert [threads for _, threads in runs] == [1] * 4
        assert ({pid for pid, _ in runs} == {os.getpid()}) == (cores == 1)
        assert after == 2

    @needs_blas_cap
    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc/self/stat")
    def test_one_os_thread_after_each_fork(self, split, monkeypatch):
        # Python 3.12+ warns when a process that holds several OS threads
        # forks; it counts them in the parent right after the fork. A
        # two-thread product first starts OpenBLAS's thread pool, which
        # OpenBLAS must join before each fork.
        get, set_ = experiments._openblas_threads()
        before = get()
        set_(2)
        _AFTER_FORK_THREADS.clear()
        try:
            a = np.ones((256, 256))
            a @ a
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                _grid(split, monkeypatch, cores=2)
        finally:
            set_(before)
        assert _AFTER_FORK_THREADS == [1, 1]
        assert [str(w.message) for w in caught] == []

    def test_worker_count_does_not_change_results(self, split, monkeypatch):
        one = [m.to_dict() for m, _ in _grid(split, monkeypatch, cores=1, seeds=(0, 1, 2))]
        two = [m.to_dict() for m, _ in _grid(split, monkeypatch, cores=2, seeds=(0, 1, 2))]
        assert one == two


SHARE_SCALE = 0.0005
ABLATION = ["ModelA", "ModelB", "ModelC", "ModelD", "ModelD_kmeans"]


@contextmanager
def recorded_draws():
    """Record each batch that any CurriculumSampler draws in the block, in
    draw order, as (stage index, level counts, loss weights, row indices)."""
    draws = []
    next_batch = CurriculumSampler.next_batch

    def recorded(self, stage, rng):
        batch = next_batch(self, stage, rng)
        draws.append((stage.stage_index, batch.level_counts(self.n_levels),
                      stage.loss_weights, batch.indices.tolist()))
        return batch

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CurriculumSampler, "next_batch", recorded)
        yield draws


def as_batch_log(draws):
    """The batch log of one run's recorded draws, from iteration 0."""
    return [(iteration, *draw[:3]) for iteration, draw in enumerate(draws)]


def _independent_runs(split, tags, seeds, fractions=None, scale=SHARE_SCALE, **options):
    """Each run of the grid from its own train call: (metrics dict, batch
    log of the batches the call drew)."""
    fs_train, _, fs_test = split
    cache = CurriculumCache(fs_train, CurriculumParams(seed=0))
    out = []
    for tag in tags:
        cd, schedule = experiments.build_strategy(tag, cache, 64, scale)
        for fraction in [None] if fractions is None else fractions:
            run_tag = tag if fraction is None else f"{tag}@hn={fraction:g}"
            for seed in seeds:
                keep = None if fraction is None else restrict_highly_noisy(cd, fraction, seed)
                with recorded_draws() as draws:
                    _, m = train(run_tag, fs_train, fs_test, cd, schedule, seed,
                                 include_mask=keep, **options)
                out.append((m.to_dict(), as_batch_log(draws)))
    return out


def _grid_runs(split, tags, seeds, fractions=None, scale=SHARE_SCALE, **options):
    fs_train, _, fs_test = split
    return [(m.to_dict(), list(log)) for m, log in run_grid(
        tags, seeds, fs_train, fs_test, CurriculumParams(seed=0), fractions=fractions,
        scale=scale, batch_log=True, **options)]


@pytest.fixture()
def count_steps(monkeypatch):
    calls = []
    step = ClassifierModel.loss_and_grads

    def counted(self, *args, **kwargs):
        calls.append(None)
        return step(self, *args, **kwargs)

    monkeypatch.setattr(ClassifierModel, "loss_and_grads", counted)
    return calls


def _level_one_moved_up(monkeypatch):
    """Make every curriculum's level 1 empty, so stages 1 and 2 move its picks."""
    design = experiments.design

    def emptied(*args):
        cd = design(*args)
        return replace(cd, levels=np.where(cd.levels == 1, 2, cd.levels))

    monkeypatch.setattr(experiments, "design", emptied)


GRIDS = {
    "ablation": dict(tags=ABLATION, seeds=[0, 1]),
    "sweep": dict(tags=["ModelD"], seeds=[1, 2], fractions=[0.0, 0.5, 1.0], arch="mlp",
                  hidden_dim=16),
}
_REFERENCE: dict[str, list] = {}


class TestSharedPrefixes:
    @pytest.mark.parametrize("tags, fractions, scale, steps", [
        (["ModelD"], [0.0, 0.5, 1.0], 0.0005, 1100),
        (["ModelA", "ModelB", "ModelC", "ModelD"], None, 0.001, 2000),
        (["ModelA", "ModelD", "ModelD_kmeans"], None, 0.001, 2100),
    ], ids=["mlp-sweep", "A,B,C,D", "A,D,D_kmeans"])
    def test_steps_trained(self, split, monkeypatch, count_steps, tags, fractions, scale, steps):
        # Independent runs take 2100, 2800 and 2100 steps. The sweep's
        # fractions share stages 0 and 1 (250 of 350 iterations); ModelB,
        # ModelC and ModelD share stage 0 and ModelC and ModelD stage 1;
        # ModelA, ModelD and ModelD_kmeans share nothing.
        monkeypatch.setattr(experiments, "_usable_cores", lambda: 1)
        seeds = [1, 2] if fractions else [1]
        _grid_runs(split, tags, seeds, fractions, scale, arch="mlp", hidden_dim=16)
        assert len(count_steps) == steps

    @pytest.mark.parametrize("tags, fractions, seeds, scale, calls, chains", [
        (["ModelD"], [0.0, 0.5, 1.0], [1, 2], 0.0005, 8,
         [[(0, 250, "ModelD@hn=0"), (250, 350, tag)]
          for tag in ("ModelD@hn=0", "ModelD@hn=0.5", "ModelD@hn=1") for _ in range(2)]),
        (["ModelA", "ModelB", "ModelC", "ModelD"], None, [1], 0.001, 6,
         [[(0, 700, "ModelA")],
          [(0, 300, "ModelB"), (300, 700, "ModelB")],
          [(0, 300, "ModelB"), (300, 500, "ModelC"), (500, 700, "ModelC")],
          [(0, 300, "ModelB"), (300, 500, "ModelC"), (500, 700, "ModelD")]]),
    ], ids=["mlp-sweep", "A,B,C,D"])
    def test_segment_plan(self, split, monkeypatch, tags, fractions, seeds, scale, calls, chains):
        # Each segment is one train call, and every extra call standardizes
        # the training matrix again. A stand-in train appends (start, stop,
        # tag of the run that trains it) to the state's points, so each run
        # reports the chain of segments it went through.
        trained = []

        def planned(tag, fs_train, fs_test, cd, schedule, seed, *, state, stop, **kwargs):
            trained.append(tag)
            state.points.append((state.iteration, stop, tag))
            state.iteration = stop
            return state, RunMetrics(tag, seed, 5, points=list(state.points))

        monkeypatch.setattr(experiments, "train", planned)
        monkeypatch.setattr(experiments, "_usable_cores", lambda: 1)
        fs_train, _, fs_test = split
        runs = [m for m, _ in run_grid(tags, seeds, fs_train, fs_test, CurriculumParams(seed=0),
                                       fractions=fractions, scale=scale, arch="mlp")]
        assert [m.points for m in runs] == chains
        assert len(trained) == calls

    @needs_blas_cap
    def test_segment_submitted_when_the_one_before_it_ends(self, split, monkeypatch, tmp_path):
        # ModelB's tail (300-700) waits until ModelC's tail (500-700) starts.
        # On two workers that happens only if ModelC's tail is submitted as
        # soon as the shared 300-500 segment ends, not at ModelC's turn,
        # which comes after ModelB's tail is back.
        marker = tmp_path / "modelc-tail-started"

        def waiting(tag, fs_train, fs_test, cd, schedule, seed, *, state, stop, **kwargs):
            if (tag, state.iteration) == ("ModelC", 500):
                marker.touch()
            if (tag, state.iteration) == ("ModelB", 300):
                deadline = time.monotonic() + 60
                while not marker.exists():
                    if time.monotonic() > deadline:
                        raise TimeoutError("ModelC's tail did not start within 60 s")
                    time.sleep(0.01)
            state.points.append((state.iteration, stop, tag))
            state.iteration = stop
            return state, RunMetrics(tag, seed, 5, points=list(state.points))

        monkeypatch.setattr(experiments, "train", waiting)
        monkeypatch.setattr(experiments, "_usable_cores", lambda: 2)
        fs_train, _, fs_test = split
        runs = [m for m, _ in run_grid(["ModelB", "ModelC", "ModelD"], [0], fs_train, fs_test,
                                       CurriculumParams(seed=0), scale=0.001)]
        assert [m.points for m in runs] == [
            [(0, 300, "ModelB"), (300, 700, "ModelB")],
            [(0, 300, "ModelB"), (300, 500, "ModelC"), (500, 700, "ModelC")],
            [(0, 300, "ModelB"), (300, 500, "ModelC"), (500, 700, "ModelD")]]

    @pytest.mark.parametrize("cores", [1, 2, 4])
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_runs_equal_independent_runs(self, split, monkeypatch, cores, grid):
        if grid not in _REFERENCE:
            _REFERENCE[grid] = _independent_runs(split, **GRIDS[grid])
        monkeypatch.setattr(experiments, "_usable_cores", lambda: cores)
        assert _grid_runs(split, **GRIDS[grid]) == _REFERENCE[grid]

    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_empty_level_warnings_per_run(self, split, monkeypatch, caplog, cores):
        _level_one_moved_up(monkeypatch)
        tags = ["ModelB", "ModelC", "ModelD"]
        with caplog.at_level(logging.WARNING, logger="currikit.schedule"):
            expected = _independent_runs(split, tags, [0, 1])
            independent_logs = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
            caplog.clear()
            monkeypatch.setattr(experiments, "_usable_cores", lambda: cores)
            assert _grid_runs(split, tags, [0, 1]) == expected
            grid_logs = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
        # ModelC and ModelD each move level-1 picks in stage 1, ModelD also in
        # stage 2: one warning per run and stage.
        assert len(independent_logs) == 6
        assert grid_logs == independent_logs

    def test_stage_that_moves_picks_is_shared(self, split, monkeypatch, count_steps):
        # With level 1 empty, ModelC and ModelD move its picks in stage 1 and
        # still share it: 300 shared steps, ModelB's other 400, then 200
        # shared and 200 each for ModelC and ModelD (1,500 without sharing
        # stage 1).
        _level_one_moved_up(monkeypatch)
        monkeypatch.setattr(experiments, "_usable_cores", lambda: 1)
        tags = ["ModelB", "ModelC", "ModelD"]
        grid = _grid_runs(split, tags, [0], scale=0.001)
        assert len(count_steps) == 1300
        assert grid == _independent_runs(split, tags, [0], scale=0.001)

    def test_equal_keep_masks_are_shared(self, split, monkeypatch, count_steps):
        # Fractions 0 and 1e-4 keep no highly-noisy sample of this set, so
        # the two runs' masks are equal, though they are separate arrays,
        # and the runs train all 350 iterations once.
        fs_train, _, fs_test = split
        cd = CurriculumCache(fs_train, CurriculumParams(seed=0)).get("density")
        assert not any(restrict_highly_noisy(cd, f, 1)[cd.levels == 2].any() for f in (0, 1e-4))
        monkeypatch.setattr(experiments, "_usable_cores", lambda: 1)
        none, few = run_grid(["ModelD"], [1], fs_train, fs_test, CurriculumParams(seed=0),
                             fractions=[0.0, 1e-4], scale=SHARE_SCALE)
        assert len(count_steps) == 350
        assert none[0].to_dict()["points"] == few[0].to_dict()["points"]

    @pytest.mark.parametrize("cores", [1, 2])
    def test_divergence_in_shared_segment_names_first_run(self, split, monkeypatch, cores):
        spans = trainer.spans

        def diverging(schedule):
            # The spans cut at iteration 100, with rate 1e300 from there on.
            out = []
            for start, stop, stage, lr in spans(schedule):
                out += [(a, b, stage, lr if b <= 100 else 1e300)
                        for a, b in ((start, min(stop, 100)), (max(start, 100), stop)) if a < b]
            return out

        monkeypatch.setattr(trainer, "spans", diverging)
        tags = ["ModelB", "ModelC", "ModelD"]  # stage 0 (300 iterations) is shared
        monkeypatch.setattr(experiments, "_usable_cores", lambda: cores)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged) as independent:
                _independent_runs(split, tags, [0], scale=0.001)
            with pytest.raises(TrainingDiverged) as grid:
                _grid_runs(split, tags, [0], scale=0.001)
        assert str(independent.value).startswith("ModelB seed 0: non-finite loss at iteration 10")
        assert str(grid.value) == str(independent.value)


class TestReplay:
    def test_replay_equals_draws_of_resumed_run(self, split, monkeypatch):
        # A sweep keep-mask over a curriculum whose level 1 is empty, so
        # stages 1 and 2 move picks; the run stops in the middle of stage 1
        # and goes on from its state.
        fs_train, _, fs_test = split
        _level_one_moved_up(monkeypatch)
        cache = CurriculumCache(fs_train, CurriculumParams(seed=0))
        cd, schedule = build_strategy("ModelD", cache, 64, SHARE_SCALE)
        keep = restrict_highly_noisy(cd, 0.5, 1)
        assert not (cd.levels == 1).any() and not keep[cd.levels == 2].all()
        mid = schedule[0].iterations + schedule[1].iterations // 2
        state = TrainState.start(fs_train, 1)
        with recorded_draws() as drawn:
            train("ModelD", fs_train, fs_test, cd, schedule, 1, include_mask=keep,
                  state=state, stop=mid)
            assert len(drawn) == state.iteration == mid
            train("ModelD", fs_train, fs_test, cd, schedule, 1, include_mask=keep, state=state)
        assert len(drawn) == sum(s.iterations for s in schedule)
        with recorded_draws() as replayed:
            log = list(replay_batches(fs_train, cd, schedule, 1, keep))
        assert log == as_batch_log(drawn)
        assert replayed == drawn


@pytest.fixture(scope="module")
def small_split():
    fs, truth = generate_synthetic(SynthConfig(6, 60, 8, 0.6, 0.25, 0.15, seed=0))
    return holdout_split(fs, truth, 0.2, 0)


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.seen = []

    def emit(self, record):
        self.seen.append((record.name, record.levelname, record.getMessage()))


@st.composite
def random_grids(draw):
    tags = draw(st.permutations(STRATEGY_TAGS))[:draw(st.integers(1, len(STRATEGY_TAGS)))]
    fractions = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), max_size=3, unique=True))
    return dict(
        tags=list(tags),
        seeds=draw(st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True)),
        fractions=fractions or None,
        scale=draw(st.floats(1e-4, 5e-4)),
        arch=draw(st.sampled_from(["linear", "mlp"])),
        cores=draw(st.sampled_from([1, 2])),
        level_one_moved_up=draw(st.booleans()),
        # The five strategies' schedules never differ in rate alone; halving
        # some strategies' rates makes runs whose spans differ only there.
        halved=draw(st.sets(st.sampled_from(tags))),
    )


class TestRandomGrids:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(random_grids())
    def test_grid_equals_independent_runs(self, small_split, grid):
        build = experiments.build_strategy

        def rates_halved(tag, *args):
            cd, schedule = build(tag, *args)
            if tag in grid["halved"]:
                schedule = [replace(s, lr_plan=tuple((it, lr / 2) for it, lr in s.lr_plan))
                            for s in schedule]
            return cd, schedule

        runs = dict(tags=grid["tags"], seeds=grid["seeds"], fractions=grid["fractions"],
                    scale=grid["scale"], arch=grid["arch"], hidden_dim=8)
        logger = logging.getLogger("currikit.schedule")
        records = _Records()
        logger.addHandler(records)
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(experiments, "build_strategy", rates_halved)
                if grid["level_one_moved_up"]:
                    _level_one_moved_up(mp)
                expected = _independent_runs(small_split, **runs)
                independent_logs, records.seen = records.seen, []
                mp.setattr(experiments, "_usable_cores", lambda: grid["cores"])
                assert _grid_runs(small_split, **runs) == expected
        finally:
            logger.removeHandler(records)
        assert records.seen == independent_logs


def merged_noise_dataset(seed):
    """Two 5-category blocks with very different label-noise rates, merged
    into one 10-category dataset (distinct per-category correct rates)."""
    noisy_cfg = SynthConfig(n_categories=5, per_category=120, n_features=32,
                            clean_frac=0.40, cross_frac=0.45, uniform_frac=0.15,
                            blob_sigma=2.0, seed=seed)
    clean_cfg = SynthConfig(n_categories=5, per_category=120, n_features=32,
                            clean_frac=0.90, cross_frac=0.00, uniform_frac=0.10,
                            blob_sigma=2.0, seed=seed + 500)
    fs_a, truth_a = generate_synthetic(noisy_cfg)
    fs_b, truth_b = generate_synthetic(clean_cfg)
    true_b = truth_b.true_labels.copy()
    true_b[true_b >= 0] += 5
    fs = FeatureSet(
        features=np.vstack([fs_a.features, fs_b.features]),
        labels=np.concatenate([fs_a.labels, fs_b.labels + 5]),
        sample_ids=tuple(f"a_{s}" for s in fs_a.sample_ids)
        + tuple(f"b_{s}" for s in fs_b.sample_ids),
        category_names=fs_a.category_names + fs_b.category_names,
    )
    truth = SyntheticTruth(
        true_labels=np.concatenate([truth_a.true_labels, true_b]),
        noise_kind=truth_a.noise_kind + truth_b.noise_kind,
    )
    return fs, truth


class TestRateIntervalExperiment:
    def test_noisier_categories_gain_more(self):
        """Categories with lower label-correct rates benefit more from the
        curriculum than from plain training, in a majority of seeds."""
        from oracles import reference_from_truth
        from currikit.curriculum import design_curriculum

        favorable = 0
        seeds = range(5)
        for seed in seeds:
            fs, truth = merged_noise_dataset(seed)
            fs_train, train_truth, fs_test = holdout_split(fs, truth, 0.2, seed)
            cache = CurriculumCache(fs_train, CurriculumParams(seed=seed))
            _, base = train("ModelA", fs_train, fs_test,
                            *build_strategy("ModelA", cache, 64, 0.001), seed)
            _, curr = train("ModelD", fs_train, fs_test,
                            *build_strategy("ModelD", cache, 64, 0.001), seed)
            cd = cache.get("density")
            correct = category_correct_rates(cd, reference_from_truth(fs_train, train_truth))
            audit = rate_interval_report(correct, base, curr)
            occupied = [b for b in range(10) if audit.histogram[b]
                        and not np.isnan(audit.interval_gains[b])]
            lower = occupied[: len(occupied) // 2]
            upper = occupied[len(occupied) - len(lower):]
            if not lower or not upper:
                continue
            gain_low = np.mean([audit.interval_gains[b] for b in lower])
            gain_high = np.mean([audit.interval_gains[b] for b in upper])
            favorable += gain_low >= gain_high
        assert favorable > len(list(seeds)) // 2, (
            f"low-correct-rate bins gained more in only {favorable}/5 seeds")
