"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``. The planted dataset used
by the experiment criteria is 10 categories x 200 samples with a
0.60/0.25/0.15 clean/cross/uniform mix in 32 dimensions (blob sigma 2,
generator seed 0); dataset seeds 0..9 are used where a criterion asks for
repetition across seeds.
"""

import time

import numpy as np
import pytest
from scipy import stats

from currikit.analysis import subset_noise_rates
from currikit.curriculum import (
    CurriculumDesign,
    CurriculumParams,
    curriculum_to_json,
    design_curriculum,
    load_curriculum,
    save_curriculum,
)
from currikit.data import (
    FeatureSet,
    SynthConfig,
    generate_synthetic,
    load_features,
    save_features,
)
from currikit.density import cutoff_dc, delta_and_center, distance_matrix, local_density
from currikit.experiments import run_grid
from currikit.schedule import CurriculumSampler, StageSpec
from currikit.trainer import holdout_split
from cli_support import run_cli
from oracles import (
    brute_cutoff,
    brute_local_density,
    finite_diff_grad,
    literal_delta,
    naive_distance_matrix,
    reference_from_truth,
    relative_error,
    unique_rho_mask,
    weighted_ce_loss,
)

PLANT = dict(n_categories=10, per_category=200, n_features=32,
             clean_frac=0.60, cross_frac=0.25, uniform_frac=0.15, blob_sigma=2.0)
SEEDS = list(range(10))


def report(num: int, text: str) -> None:
    print(f"\n[acceptance] criterion {num}: PASS - {text}")


@pytest.fixture(scope="module")
def planted():
    """Canonical planted dataset (seed 0) with its clean holdout split."""
    fs, truth = generate_synthetic(SynthConfig(seed=0, **PLANT))
    fs_train, train_truth, fs_test = holdout_split(fs, truth, 0.2, 0)
    return fs, truth, fs_train, fs_test


def test_criterion_1_density_oracle_equivalence():
    # A fully untied rho vector cannot exist for n >= 2 (rho is the degree
    # sequence of an undirected graph), so the strict-rule comparison applies
    # per sample wherever a sample's rho value is unique in its instance.
    start = time.time()
    rng = np.random.default_rng(2024)
    unique_rho_samples = 0
    for _ in range(200):
        n = int(rng.integers(1, 51))
        d = int(rng.integers(1, 9))
        feats = rng.standard_normal((n, d)).astype(np.float32).astype(np.float64)
        d2 = distance_matrix(feats)
        assert np.array_equal(d2, naive_distance_matrix(feats))
        k = float(rng.uniform(1, 99))
        assert cutoff_dc(d2, k) == brute_cutoff(d2, k)
        d_c = cutoff_dc(d2, 60)
        rho = local_density(d2, d_c)
        assert np.array_equal(rho, brute_local_density(d2, d_c))
        delta, _, _ = delta_and_center(d2, rho)
        exp_delta, _ = literal_delta(d2, rho)
        mask = unique_rho_mask(rho)
        assert np.array_equal(delta[mask], exp_delta[mask])
        unique_rho_samples += int(mask.sum())
    elapsed = time.time() - start
    assert unique_rho_samples >= 200, "too few untied-density samples drawn"
    assert elapsed < 10.0
    report(1, f"200 instances match brute-force oracles exactly; strict-rule "
              f"deltas agree at {unique_rho_samples} untied samples ({elapsed:.1f}s)")


def test_criterion_2_subset_noise_rate_ordering():
    start = time.time()
    ordered = 0
    purities = []
    for seed in SEEDS:
        fs, truth = generate_synthetic(SynthConfig(seed=seed, **PLANT))
        cd = design_curriculum(fs, CurriculumParams(seed=seed))
        rates = subset_noise_rates(cd, reference_from_truth(fs, truth)).rates
        if rates[0] < rates[1] < rates[2]:
            ordered += 1
        purities.append(1.0 - rates[0])
    elapsed = time.time() - start
    assert ordered >= 9, f"noise-rate ordering held in only {ordered}/10 seeds"
    assert all(p > 0.60 for p in purities), f"clean purity violated: {purities}"
    assert elapsed < 60.0
    report(2, f"rate ordering in {ordered}/10 seeds, min clean purity "
              f"{min(purities):.3f} (> 0.60); {elapsed:.1f}s")


def test_criterion_3_ablation_ordering(planted):
    start = time.time()
    _, _, fs_train, fs_test = planted
    results = [m for m, _ in run_grid(["ModelA", "ModelC", "ModelD"], SEEDS, fs_train,
                                      fs_test, CurriculumParams(seed=0))]
    final = {}
    for m in results:
        final.setdefault(m.strategy, {})[m.seed] = m.final_top1
    d_wins = sum(final["ModelD"][s] <= final["ModelA"][s] for s in SEEDS)
    c_wins = sum(final["ModelC"][s] <= final["ModelA"][s] for s in SEEDS)
    mean_a = np.mean(list(final["ModelA"].values()))
    mean_d = np.mean(list(final["ModelD"].values()))
    elapsed = time.time() - start
    assert d_wins >= 8, f"ModelD beat ModelA in only {d_wins}/10 seeds"
    assert c_wins >= 8, f"ModelC beat ModelA in only {c_wins}/10 seeds"
    assert mean_d < mean_a, f"mean(ModelD)={mean_d} not below mean(ModelA)={mean_a}"
    assert elapsed < 600.0
    report(3, f"ModelD<=A in {d_wins}/10, ModelC<=A in {c_wins}/10, "
              f"means {mean_d:.4f} < {mean_a:.4f}; {elapsed:.0f}s")


def test_criterion_4_highly_noisy_fraction_sweep(planted):
    start = time.time()
    _, _, fs_train, fs_test = planted
    fractions = [0.0, 0.25, 0.5, 0.75]
    runs = run_grid(["ModelD"], SEEDS, fs_train, fs_test, CurriculumParams(seed=0),
                    fractions=fractions)
    results = [(f, m) for f, (m, _) in zip([f for f in fractions for _ in SEEDS], runs,
                                           strict=True)]
    means = {f: np.mean([m.final_top1 for fr, m in results if fr == f])
             for f in fractions}
    elapsed = time.time() - start
    best = min(means[f] for f in (0.25, 0.5, 0.75))
    assert best <= means[0.0], f"every nonzero fraction hurt: {means}"
    assert elapsed < 900.0
    report(4, f"mean top-1 by fraction "
              f"{ {f'{f:g}': round(v, 4) for f, v in means.items()} }; "
              f"best nonzero {best:.4f} <= {means[0.0]:.4f} at 0%; {elapsed:.0f}s")


def test_criterion_5_k_insensitivity(planted):
    fs, _, _, _ = planted
    cd50 = design_curriculum(fs, CurriculumParams(k_percent=50, seed=0))
    cd70 = design_curriculum(fs, CurriculumParams(k_percent=70, seed=0))
    agreement = float((cd50.levels == cd70.levels).mean())
    assert agreement >= 0.90, f"k=50 vs k=70 agreement only {agreement:.3f}"
    report(5, f"subset assignments agree on {agreement:.1%} of samples")


def test_criterion_6_sampler_exactness():
    n_categories, per_category = 150, 8
    n = n_categories * per_category
    rng_fs = np.random.default_rng(0)
    fs = FeatureSet(
        features=rng_fs.standard_normal((n, 2)).astype(np.float32),
        labels=np.repeat(np.arange(n_categories), per_category),
        sample_ids=tuple(f"s{i:05d}" for i in range(n)),
        category_names=tuple(f"c{i}" for i in range(n_categories)),
    )
    levels = np.tile([0, 0, 0, 0, 1, 1, 2, 2], n_categories)
    cd = CurriculumDesign(
        params=CurriculumParams(n_subsets=3),
        sample_ids=fs.sample_ids,
        categories=fs.labels.copy(),
        levels=levels,
        dist_to_center=np.zeros(n),
        center_ids=tuple(f"s{i * per_category:05d}" for i in range(n_categories)),
        d_c=np.zeros(n_categories),
    )
    stage = StageSpec(2, 256, (128, 64, 64), (1.0, 0.5, 0.5), 1, ((0, 0.1),))
    sampler = CurriculumSampler(cd, fs)
    rng = np.random.default_rng(1)
    counts = np.zeros(n_categories)
    for _ in range(1000):
        batch = sampler.next_batch(stage, rng)
        assert batch.level_counts(3) == (128, 64, 64)
        expected_w = np.where(batch.levels == 0, 1.0, 0.5)
        assert np.array_equal(batch.weights, expected_w)
        clean_cats = fs.labels[batch.indices[:128]]
        assert len(set(clean_cats.tolist())) == 128  # C=150 >= 128: no repeats
        counts += np.bincount(clean_cats, minlength=n_categories)
    chi = stats.chisquare(counts)
    assert chi.pvalue > 0.001, f"category frequencies non-uniform (p={chi.pvalue:.2e})"
    report(6, f"1000 batches exact (128, 64, 64) with weights (1.0, 0.5, 0.5); "
              f"chi-square p={chi.pvalue:.3f} > 0.001")


def test_criterion_7_gradient_correctness():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        c = int(rng.integers(2, 12))
        logits = rng.standard_normal(c) * rng.uniform(0.5, 3.0)
        label = int(rng.integers(0, c))
        weight = float(rng.uniform(0.1, 2.0))

        def ce(z, w):
            # The training loss on a batch of one sample.
            return weighted_ce_loss(z[None, :], np.array([label]), np.array([w]))

        _, grad = ce(logits, weight)
        fd = finite_diff_grad(lambda z: ce(z, weight)[0], logits.copy(), h=1e-4)
        worst = max(worst, relative_error(grad, fd))
        _, g_full = ce(logits, 1.0)
        _, g_half = ce(logits, 0.5)
        assert np.array_equal(g_half, 0.5 * g_full)
    assert worst < 1e-5, f"worst finite-difference relative error {worst:.2e}"
    report(7, f"100 instances within 1e-5 of central differences "
              f"(worst {worst:.2e}); half-weight gradients exactly halved")


def test_criterion_8_command_determinism(tmp_path):
    synth = ["synth", "--categories", "5", "--per-category", "30", "--dim", "8",
             "--blob-sigma", "2.0", "--seed", "3", "--out-dir", "."]
    design = ["design", "--features", "features.bin", "--out-dir", "."]
    train = ["train", "--features", "features.bin", "--truth", "truth.csv",
             "--strategies", "A,D", "--seeds", "0", "--scale", "0.0005",
             "--batch-size", "16", "--out-dir", "."]
    analyze = ["analyze", "--curriculum", "curriculum.json", "--reference", "truth.csv",
               "--baseline-run", "run_ModelA_s0.json",
               "--curriculum-run", "run_ModelD_s0.json", "--out-dir", "."]
    outputs = ["features.bin", "truth.csv", "curriculum.json", "metrics.csv",
               "summary.json", "run_ModelA_s0.json", "run_ModelD_s0.json",
               "audit.json", "rate_bins.csv"]
    snapshots = []
    for trial in range(2):
        work = tmp_path / f"trial{trial}"
        work.mkdir()
        for args in (synth, design, train, analyze):
            result = run_cli(args, work)
            assert result.returncode == 0, (args, result.stderr)
        snapshots.append({name: (work / name).read_bytes() for name in outputs})
    assert snapshots[0] == snapshots[1]
    report(8, f"synth/design/train/analyze reruns byte-identical "
              f"across {len(outputs)} output files")


def test_criterion_9_round_trip_fidelity(tmp_path):
    rng = np.random.default_rng(99)
    for trial in range(100):
        n = int(rng.integers(1, 40))
        d = int(rng.integers(1, 9))
        c = int(rng.integers(1, 6))
        fs = FeatureSet(
            features=(rng.standard_normal((n, d)) * 10.0 ** rng.integers(-4, 5)
                      ).astype(np.float32),
            labels=rng.integers(0, c, n),
            sample_ids=tuple(f"r{trial}b{i}" for i in range(n)),
            category_names=tuple(f"cat{k:03d}" for k in range(c)),
        )
        for fmt, suffix in (("binary", "bin"), ("csv", "csv")):
            p1 = tmp_path / f"a.{suffix}"
            p2 = tmp_path / f"b.{suffix}"
            save_features(fs, p1, fmt)
            save_features(load_features(p1, fmt), p2, fmt)
            assert p1.read_bytes() == p2.read_bytes(), (trial, fmt)
    for trial in range(30):
        seed = 1000 + trial
        fs, _ = generate_synthetic(SynthConfig(
            n_categories=int(rng.integers(2, 5)),
            per_category=int(rng.integers(4, 30)),
            n_features=int(rng.integers(1, 8)),
            clean_frac=0.6, cross_frac=0.25, uniform_frac=0.15, seed=seed))
        cd = design_curriculum(fs, CurriculumParams(
            n_subsets=int(rng.integers(1, 4)), seed=seed))
        p1 = tmp_path / "c1.json"
        p2 = tmp_path / "c2.json"
        save_curriculum(cd, p1)
        loaded = load_curriculum(p1)
        save_curriculum(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes(), trial
        assert curriculum_to_json(loaded) == curriculum_to_json(cd)
    report(9, "100 feature sets (binary + csv) and 30 curricula "
              "survive save -> load -> save byte-identically")
