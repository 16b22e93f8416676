import numpy as np
import pytest

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
from currikit.trainer import holdout_split, train

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
        from currikit.data import reference_from_truth
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
