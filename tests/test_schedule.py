import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from currikit.curriculum import CurriculumDesign, CurriculumParams, design_curriculum
from currikit.data import FeatureSet, SynthConfig, generate_synthetic
from currikit.schedule import (
    CurriculumSampler,
    StageSpec,
    default_schedule,
    full_lr_plan,
    lr_at,
    plain_schedule,
    report_moves,
    spans,
)
from oracles import scalar_draw_clean


class TestDefaultSchedule:
    def test_reference_compositions_and_lr(self):
        stages = default_schedule(256, 1.0)
        assert [s.batch_composition for s in stages] == [
            (256, 0, 0), (128, 128, 0), (128, 64, 64)]
        assert all(s.loss_weights == (1.0, 0.5, 0.5) for s in stages)
        assert stages[0].lr_plan[0] == (0, 0.1)
        plan = full_lr_plan(1.0)
        rates = [lr for _, lr in plan]
        assert rates == [0.1, 0.01, 0.001, 0.0001, 1e-05]
        assert [it for it, _ in plan] == [0, 300_000, 500_000, 600_000, 650_000]
        assert sum(s.iterations for s in stages) == 700_000

    def test_proportional_scaling(self):
        stages = default_schedule(64, 1.0)
        assert [s.batch_composition for s in stages] == [
            (64, 0, 0), (32, 32, 0), (32, 16, 16)]

    def test_desk_scale_breakpoints(self):
        plan = full_lr_plan(0.001)
        assert [it for it, _ in plan[1:]] == [300, 500, 600, 650]
        stages = default_schedule(64, 0.001)
        assert sum(s.iterations for s in stages) == 700
        assert [s.iterations for s in stages] == [300, 200, 200]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            default_schedule(10, 1.0)
        with pytest.raises(ValueError):
            default_schedule(64, 0.0)
        with pytest.raises(ValueError):
            default_schedule(64, 1.5)

    @pytest.mark.parametrize("scale, n_stages, stage", [
        (1e-6, 3, 0), (1e-6, 2, 0), (2e-6, 3, 1), (1e-7, 1, 0),
    ])
    def test_scale_leaving_a_stage_without_iterations_rejected(self, scale, n_stages, stage):
        # At 2e-6 the stage bounds round to 1, 1 and 1: stage 1 gets none.
        with pytest.raises(ValueError, match=re.escape(f"scale {scale:g} leaves stage {stage} ")):
            default_schedule(64, scale, n_stages)
        if n_stages == 1:
            with pytest.raises(ValueError, match=re.escape(f"scale {scale:g} leaves stage 0 ")):
                plain_schedule(64, scale)

    def test_stage_spec_validation(self):
        with pytest.raises(ValueError, match="sum"):
            StageSpec(0, 8, (4, 0, 0), (1.0, 0.5, 0.5), 1, ((0, 0.1),))
        with pytest.raises(ValueError, match="level"):
            StageSpec(0, 8, (4, 4, 0), (1.0, 0.5, 0.5), 1, ((0, 0.1),))

    def test_two_and_single_stage(self):
        two = default_schedule(64, 0.001, n_stages=2)
        assert [s.batch_composition for s in two] == [(64, 0, 0), (32, 32, 0)]
        assert sum(s.iterations for s in two) == 700
        clean = default_schedule(64, 0.001, n_stages=1)
        assert clean[0].batch_composition == (64, 0, 0)
        plain = plain_schedule(64, 0.001)
        assert plain[0].batch_composition is None
        assert plain[0].stage_index == 2

    def test_lr_at(self):
        plan = ((0, 0.1), (300, 0.01), (500, 0.001))
        assert lr_at(plan, 0) == 0.1
        assert lr_at(plan, 299) == 0.1
        assert lr_at(plan, 300) == 0.01
        assert lr_at(plan, 10_000) == 0.001


class TestSpans:
    # 1e-5 rounds two decay points onto one iteration (6).
    @pytest.mark.parametrize("scale", [1, 0.001, 0.0003, 1e-5])
    def test_spans_tile_the_schedule_with_each_iterations_rate(self, scale):
        schedules = [default_schedule(16, scale, n) for n in (1, 2, 3)]
        schedules.append(plain_schedule(16, scale))
        cuts = set()
        for schedule in schedules:
            parts = spans(schedule)
            total = sum(s.iterations for s in schedule)
            bounds = [(start, stop) for start, stop, _, _ in parts]
            assert all(start < stop for start, stop in bounds)
            assert [start for start, _ in bounds] == [0] + [stop for _, stop in bounds[:-1]]
            assert bounds[-1][1] == total
            # Brute force: the stage and rate of every iteration.
            expected, start = [], 0
            for stage in schedule:
                its = range(start, start + stage.iterations)
                expected += [(id(stage), lr_at(stage.lr_plan, it)) for it in its]
                start += stage.iterations
            got = [(id(stage), lr) for a, b, stage, lr in parts for _ in range(a, b)]
            assert got == expected
            cuts.add(tuple(bounds))
        # Every strategy of one scale is cut at the same points.
        assert len(cuts) == 1

    def test_cuts_at_each_breakpoint_once_and_skips_empty_stages(self):
        empty = StageSpec(0, 8, (8, 0, 0), (1.0, 0.5, 0.5), 0, ((0, 0.5),))
        stage = StageSpec(1, 8, (4, 4, 0), (1.0, 0.5, 0.5), 10,
                          ((0, 0.1), (4, 0.01), (4, 0.001), (7, 1e-4), (12, 1e-5)))
        assert spans([empty, stage, empty]) == [
            (0, 4, stage, 0.1), (4, 7, stage, 0.001), (7, 10, stage, 1e-4)]


def labelled_design(labels, levels, n_categories):
    """FeatureSet + 3-subset curriculum with the given per-sample labels and
    levels. The features are zeros: the sampler never reads them."""
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size
    fs = FeatureSet(
        features=np.zeros((n, 1), dtype=np.float32),
        labels=labels,
        sample_ids=tuple(f"s{i:06d}" for i in range(n)),
        category_names=tuple(f"c{i}" for i in range(n_categories)),
    )
    cd = CurriculumDesign(
        params=CurriculumParams(n_subsets=3),
        sample_ids=fs.sample_ids,
        categories=labels,
        levels=np.asarray(levels, dtype=np.int64),
        dist_to_center=np.zeros(n),
        center_ids=(fs.sample_ids[0],) * n_categories,
        d_c=np.zeros(n_categories),
    )
    return fs, cd


def planted_sampler(n_categories=20, per_category=12, counts=(6, 3, 3)):
    """FeatureSet + curriculum with manually planted levels."""
    labels = np.repeat(np.arange(n_categories), per_category)
    levels = np.tile(
        np.concatenate([np.full(c, lv) for lv, c in enumerate(counts)]), n_categories
    )
    return labelled_design(labels, levels, n_categories)


class TestSampler:
    def test_exact_composition_and_weights(self):
        fs, cd = planted_sampler()
        stage = StageSpec(2, 16, (8, 4, 4), (1.0, 0.5, 0.5), 1, ((0, 0.1),))
        batch = CurriculumSampler(cd, fs).next_batch(stage, np.random.default_rng(1))
        assert batch.level_counts(3) == (8, 4, 4)
        weights = {0: 1.0, 1: 0.5, 2: 0.5}
        assert all(w == weights[lv] for w, lv in zip(batch.weights, batch.levels))

    def test_clean_categories_distinct(self):
        fs, cd = planted_sampler(n_categories=20)
        stage = StageSpec(0, 16, (16, 0, 0), (1.0, 0.5, 0.5), 1, ((0, 0.1),))
        sampler = CurriculumSampler(cd, fs)
        for trial in range(20):
            batch = sampler.next_batch(stage, np.random.default_rng(trial))
            cats = fs.labels[batch.indices]
            assert len(set(cats.tolist())) == 16

    def test_single_category_with_replacement(self):
        fs, cd = planted_sampler(n_categories=20)
        keep = fs.labels == 0
        stage = StageSpec(0, 8, (8, 0, 0), (1.0, 0.5, 0.5), 1, ((0, 0.1),))
        batch = CurriculumSampler(cd, fs, keep).next_batch(stage, np.random.default_rng(5))
        assert (fs.labels[batch.indices] == 0).all()
        assert batch.size == 8

    def test_deterministic_given_rng_state(self):
        fs, cd = planted_sampler()
        stage = StageSpec(2, 16, (8, 4, 4), (1.0, 0.5, 0.5), 1, ((0, 0.1),))
        b1 = CurriculumSampler(cd, fs).next_batch(stage, np.random.default_rng(77))
        b2 = CurriculumSampler(cd, fs).next_batch(stage, np.random.default_rng(77))
        assert np.array_equal(b1.indices, b2.indices)

    def test_no_sample_above_stage_level(self):
        fs, cd = planted_sampler()
        sampler = CurriculumSampler(cd, fs)
        rng = np.random.default_rng(3)
        stage0 = StageSpec(0, 8, (8, 0, 0), (1.0, 0.5, 0.5), 10, ((0, 0.1),))
        stage1 = StageSpec(1, 8, (4, 4, 0), (1.0, 0.5, 0.5), 10, ((0, 0.1),))
        for _ in range(25):
            assert (sampler.next_batch(stage0, rng).levels == 0).all()
            assert (sampler.next_batch(stage1, rng).levels <= 1).all()

    def test_empty_subset_redistributes(self, caplog):
        fs, cd = planted_sampler(counts=(8, 4, 0))  # no highly-noisy samples
        stage = StageSpec(2, 16, (8, 4, 4), (1.0, 0.5, 0.5), 1, ((0, 0.1),))
        sampler = CurriculumSampler(cd, fs)
        with caplog.at_level(logging.WARNING):
            report_moves([stage], [pool.size for pool in sampler.by_level])
            batch = sampler.next_batch(stage, np.random.default_rng(2))
        assert batch.level_counts(3) == (8, 8, 0)
        assert "empty" in caplog.text

    def test_include_mask_limits_pool(self):
        fs, cd = planted_sampler()
        include = fs.labels < 10  # half the categories
        sampler = CurriculumSampler(cd, fs, include)
        stage = StageSpec(2, 16, (8, 4, 4), (1.0, 0.5, 0.5), 1, ((0, 0.1),))
        rng = np.random.default_rng(4)
        for _ in range(10):
            batch = sampler.next_batch(stage, rng)
            assert (fs.labels[batch.indices] < 10).all()

    def test_unrestricted_stage_uniform(self):
        fs, cd = planted_sampler()
        stage = StageSpec(2, 32, None, (1.0, 1.0, 1.0), 1, ((0, 0.1),))
        batch = CurriculumSampler(cd, fs).next_batch(stage, np.random.default_rng(6))
        assert batch.size == 32
        assert (batch.weights == 1.0).all()

    def test_category_balance_uniformity(self):
        # Clean picks over many batches hit every category at the uniform rate.
        fs, cd = planted_sampler(n_categories=20, per_category=12)
        stage = StageSpec(0, 16, (16, 0, 0), (1.0, 0.5, 0.5), 1, ((0, 0.1),))
        sampler = CurriculumSampler(cd, fs)
        rng = np.random.default_rng(11)
        n_batches = 10_000
        counts = np.zeros(20)
        for _ in range(n_batches):
            batch = sampler.next_batch(stage, rng)
            counts += np.bincount(fs.labels[batch.indices], minlength=20)
        p = 16 / 20
        expected = n_batches * p
        sigma = np.sqrt(n_batches * p * (1 - p))  # multinomial bound (conservative)
        assert (np.abs(counts - expected) <= 3 * sigma).all()


class TestSamplerOnRealDesign:
    def test_batches_from_designed_curriculum(self):
        fs, _ = generate_synthetic(SynthConfig(6, 40, 8, 0.6, 0.25, 0.15, seed=5))
        cd = design_curriculum(fs, CurriculumParams(seed=5))
        stage = default_schedule(16, 0.001)[2]
        batch = CurriculumSampler(cd, fs).next_batch(stage, np.random.default_rng(9))
        assert batch.size == 16
        assert batch.level_counts(3) == (8, 4, 4)


def labelled_sampler(labels, levels, n_categories, include=None):
    fs, cd = labelled_design(labels, levels, n_categories)
    return CurriculumSampler(cd, fs, include)


def shuffled_pools(clean_sizes, noisy_per_category=2, seed=0):
    """(labels, levels) with the given clean pool size per category plus a
    few noisy samples each, in a shuffled sample order."""
    labels = np.concatenate([
        np.full(size + noisy_per_category, c) for c, size in enumerate(clean_sizes)])
    levels = np.concatenate([
        np.r_[np.zeros(size, dtype=np.int64), np.arange(noisy_per_category) % 2 + 1]
        for size in clean_sizes])
    order = np.random.default_rng(seed).permutation(labels.size)
    return labels[order], levels[order]


class TestCleanDrawStream:
    """The clean draw returns the scalar loop's indices and leaves the
    generator in the same state after every batch."""

    def _check(self, labels, levels, n_categories, counts, include=None):
        sampler = labelled_sampler(labels, levels, n_categories, include)
        keep = np.ones(labels.size, dtype=bool) if include is None else include
        pools = [np.flatnonzero((levels == 0) & keep & (labels == c))
                 for c in range(n_categories)]
        for seed in range(4):
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for count in counts:
                stage = StageSpec(0, count, (count, 0, 0), (1.0, 0.5, 0.5), 1, ((0, 0.1),))
                for _ in range(5):
                    batch = sampler.next_batch(stage, rng)
                    expected = scalar_draw_clean(pools, count, oracle_rng)
                    assert np.array_equal(batch.indices, expected)
                    assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_pools_of_size_one(self):
        labels, levels = shuffled_pools([1] * 12)
        self._check(labels, levels, 12, counts=(1, 5, 12, 13, 40))

    def test_very_uneven_pool_sizes(self):
        labels, levels = shuffled_pools([1, 2, 3, 40_000, 1, 7, 1_000, 65_537])
        self._check(labels, levels, 8, counts=(3, 8, 20))

    def test_more_picks_than_categories(self):
        labels, levels = shuffled_pools([4, 9, 2])
        self._check(labels, levels, 3, counts=(4, 16, 64))

    def test_include_mask_empties_categories(self):
        labels, levels = shuffled_pools([6] * 10)
        include = ~np.isin(labels, [2, 5, 9]) | (levels > 0)
        self._check(labels, levels, 10, counts=(4, 7, 8, 25), include=include)


def expected_composition(counts, pool_sizes):
    """Each empty level's picks move to the nearest lower non-empty level,
    or to level 0 when every lower level is empty."""
    counts = list(counts)
    for level in range(len(counts) - 1, 0, -1):
        if counts[level] and not pool_sizes[level]:
            target = max((t for t in range(level) if pool_sizes[t]), default=0)
            counts[target] += counts[level]
            counts[level] = 0
    return counts


@st.composite
def sampler_cases(draw):
    n_categories = draw(st.integers(1, 6))
    n = draw(st.integers(1, 40))
    labels = np.array(draw(st.lists(st.integers(0, n_categories - 1), min_size=n, max_size=n)))
    levels = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    include = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    stage_index = draw(st.integers(0, 2))
    if draw(st.booleans()):
        composition = None
        batch_size = draw(st.integers(1, 12))
    else:
        composition = tuple(draw(st.integers(0, 12)) if level <= stage_index else 0
                            for level in range(3))
        batch_size = sum(composition)
    stage = StageSpec(stage_index, batch_size, composition, (1.0, 0.5, 0.25), 1, ((0, 0.1),))
    return labels, levels, include, n_categories, stage, draw(st.integers(0, 2**32))


class TestSamplerProperties:
    @settings(deadline=None)
    @given(sampler_cases())
    def test_quota_and_pool_invariants(self, case):
        labels, levels, include, n_categories, stage, seed = case
        sampler = labelled_sampler(labels, levels, n_categories, include)
        rng = np.random.default_rng(seed)
        pool_sizes = [int(((levels == s) & include).sum()) for s in range(3)]
        if stage.batch_composition is None:
            expected = None
            empty = not ((levels <= stage.stage_index) & include).any()
        else:
            expected = expected_composition(stage.batch_composition, pool_sizes)
            empty = expected[0] > 0 and pool_sizes[0] == 0
        if empty:
            with pytest.raises(ValueError):
                sampler.next_batch(stage, rng)
            return
        clean_categories = len(set(labels[(levels == 0) & include].tolist()))
        for _ in range(3):
            batch = sampler.next_batch(stage, rng)
            assert batch.size == stage.batch_size
            assert include[batch.indices].all()
            assert np.array_equal(batch.levels, levels[batch.indices])
            assert (batch.levels <= stage.stage_index).all()
            assert np.array_equal(batch.weights, np.array([1.0, 0.5, 0.25])[batch.levels])
            if expected is not None:
                assert list(batch.level_counts(3)) == expected
                clean = labels[batch.indices[batch.levels == 0]]
                if expected[0] <= clean_categories:
                    assert len(set(clean.tolist())) == clean.size


class TestPickMoveRule:
    """`report_moves` and the batches read one rule: a stage's moves are
    logged exactly when its batches' level counts differ from its
    composition."""

    @pytest.mark.parametrize("counts, include_level2", [
        ((6, 0, 3), True), ((6, 3, 0), True), ((6, 0, 0), True), ((6, 3, 3), False),
    ], ids=["level1-empty", "level2-empty", "both-empty", "include-empties-level2"])
    def test_moves_picks_iff_counts_differ(self, counts, include_level2, caplog):
        fs, cd = planted_sampler(n_categories=4, per_category=sum(counts), counts=counts)
        include = cd.levels < (3 if include_level2 else 2)
        sampler = CurriculumSampler(cd, fs, include)
        pool_sizes = [pool.size for pool in sampler.by_level]
        rng = np.random.default_rng(0)

        def reported_stages(schedule):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="currikit.schedule"):
                report_moves(schedule, pool_sizes)
            return [int(re.match(r"stage (\d+): ", r.getMessage())[1]) for r in caplog.records]

        moved = []
        for n in (1, 2, 3):
            schedule = default_schedule(16, 0.001, n)
            reported = reported_stages(schedule)
            for stage in schedule:
                padded = stage.batch_composition + (0,) * (3 - len(stage.batch_composition))
                differs = sampler.next_batch(stage, rng).level_counts(3) != padded
                assert (stage.stage_index in reported) == differs, (n, stage.stage_index)
                moved.append(differs)
        assert any(moved)
        assert reported_stages(plain_schedule(16, 0.001)) == []
        plain = plain_schedule(16, 0.001)[0]
        batch = sampler.next_batch(plain, rng)
        assert np.isin(batch.indices, sampler.stage_pool(plain)).all()
        assert include[batch.indices].all()
