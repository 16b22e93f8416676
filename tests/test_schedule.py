import logging

import numpy as np
import pytest

from currikit.curriculum import CurriculumParams, design_curriculum
from currikit.data import FeatureSet, SynthConfig, generate_synthetic
from currikit.schedule import (
    CurriculumSampler,
    StageSpec,
    default_schedule,
    full_lr_plan,
    lr_at,
    plain_schedule,
)


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


def planted_sampler(n_categories=20, per_category=12, counts=(6, 3, 3)):
    """FeatureSet + curriculum with manually planted levels."""
    n = n_categories * per_category
    rng = np.random.default_rng(0)
    fs = FeatureSet(
        features=rng.standard_normal((n, 3)).astype(np.float32),
        labels=np.repeat(np.arange(n_categories), per_category),
        sample_ids=tuple(f"s{i:05d}" for i in range(n)),
        category_names=tuple(f"c{i}" for i in range(n_categories)),
    )
    levels = np.tile(
        np.concatenate([np.full(c, lv) for lv, c in enumerate(counts)]), n_categories
    )
    from currikit.curriculum import CurriculumDesign

    cd = CurriculumDesign(
        params=CurriculumParams(n_subsets=3),
        sample_ids=fs.sample_ids,
        categories=fs.labels.copy(),
        levels=levels,
        dist_to_center=np.zeros(n),
        center_ids=tuple(f"s{i * per_category:05d}" for i in range(n_categories)),
        d_c=np.zeros(n_categories),
    )
    return fs, cd


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
        fs1 = fs.take(keep)
        cd1 = cd.restrict(keep)
        stage = StageSpec(0, 8, (8, 0, 0), (1.0, 0.5, 0.5), 1, ((0, 0.1),))
        batch = CurriculumSampler(cd1, fs1).next_batch(stage, np.random.default_rng(5))
        assert (fs1.labels[batch.indices] == 0).all()
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
