import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from currikit.analysis import (
    AnalysisError,
    category_correct_rates,
    rate_bin,
    rate_interval_report,
    subset_noise_rates,
)
from currikit.curriculum import CurriculumDesign, CurriculumParams, design_curriculum
from currikit.data import SynthConfig, generate_synthetic
from currikit.trainer import RunMetrics
from oracles import (
    loop_rate_intervals,
    mask_correct_rates,
    mask_noise_rates,
    reference_from_truth,
)


def fixture_design(levels, categories, ids=None):
    n = len(levels)
    ids = ids or tuple(f"s{i}" for i in range(n))
    c = int(max(categories)) + 1
    return CurriculumDesign(
        params=CurriculumParams(n_subsets=3),
        sample_ids=tuple(ids),
        categories=np.array(categories),
        levels=np.array(levels),
        dist_to_center=np.zeros(n),
        center_ids=tuple(f"s{list(categories).index(cat)}" for cat in range(c)),
        d_c=np.zeros(c),
    )


class TestSubsetNoiseRates:
    def test_hand_fixture(self):
        # six samples, two mislabeled, both in the highly-noisy subset
        cd = fixture_design(levels=[0, 0, 1, 1, 2, 2], categories=[0, 1, 0, 1, 0, 1])
        reference = {"s0": 0, "s1": 1, "s2": 0, "s3": 1, "s4": 1, "s5": 0}
        rates = subset_noise_rates(cd, reference)
        assert rates.rates == (0.0, 0.0, 1.0)
        assert rates.sizes == (2, 2, 2)
        assert rates.mislabeled == (0, 0, 2)

    def test_all_clean_generation(self):
        cfg = SynthConfig(n_categories=3, per_category=12, n_features=4,
                          clean_frac=1.0, cross_frac=0.0, uniform_frac=0.0, seed=5)
        fs, truth = generate_synthetic(cfg)
        cd = design_curriculum(fs, CurriculumParams(seed=5))
        rates = subset_noise_rates(cd, reference_from_truth(fs, truth))
        for size, rate in zip(rates.sizes, rates.rates):
            assert size == 0 or rate == 0.0

    def test_weighted_rates_equal_overall(self):
        fs, truth = generate_synthetic(SynthConfig(5, 40, 8, 0.6, 0.25, 0.15, seed=6))
        cd = design_curriculum(fs, CurriculumParams(seed=6))
        rates = subset_noise_rates(cd, reference_from_truth(fs, truth))
        assert sum(rates.mislabeled) / cd.n_samples == rates.overall_rate

    def test_id_mismatch(self):
        cd = fixture_design(levels=[0, 1], categories=[0, 1])
        with pytest.raises(AnalysisError, match="s1"):
            subset_noise_rates(cd, {"s0": 0})

    def test_no_samples(self):
        # Two categories, both emptied: no level has a sample to audit.
        cd = CurriculumDesign(
            params=CurriculumParams(n_subsets=3), sample_ids=(),
            categories=np.zeros(0, dtype=np.int64), levels=np.zeros(0, dtype=np.int64),
            dist_to_center=np.zeros(0), center_ids=("s0", "s1"), d_c=np.zeros(2),
        )
        with pytest.raises(AnalysisError) as caught:
            subset_noise_rates(cd, {"s0": 0})
        assert str(caught.value) == "the curriculum holds no samples; there is nothing to audit"


class TestCorrectRates:
    def test_values(self):
        cd = fixture_design(levels=[0, 0, 0, 0], categories=[0, 0, 1, 1])
        reference = {"s0": 0, "s1": 5, "s2": 1, "s3": 1}
        rates = category_correct_rates(cd, reference)
        assert rates.tolist() == [0.5, 1.0]

    @pytest.mark.parametrize("seed", range(4))
    def test_equal_mask_loop_with_an_empty_category(self, seed):
        fs, truth = generate_synthetic(SynthConfig(5, 40, 8, 0.6, 0.25, 0.15, seed=seed))
        reference = reference_from_truth(fs, truth)
        cd = design_curriculum(fs, CurriculumParams(seed=seed))
        keep = cd.categories != seed % 5
        cd = replace(cd, sample_ids=tuple(s for s, k in zip(cd.sample_ids, keep) if k),
                     categories=cd.categories[keep], levels=cd.levels[keep],
                     dist_to_center=cd.dist_to_center[keep])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rates = category_correct_rates(cd, reference)
        wrong = cd.categories != np.array([reference[s] for s in cd.sample_ids])
        with warnings.catch_warnings(), np.errstate(invalid="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)  # the mean of an empty slice
            expected = mask_correct_rates(cd.categories, wrong, cd.n_categories)
        assert rates.tobytes() == expected.tobytes()
        assert math.isnan(rates[seed % 5])
        assert ((rates > 0) & (rates < 1)).any()


def metrics_with(topk_acc):
    return RunMetrics(
        strategy="x", seed=0, topk=5,
        final_top1=0.0, final_topk=0.0,
        per_category_top1=np.asarray(topk_acc, dtype=float),
        per_category_topk=np.asarray(topk_acc, dtype=float),
    )


class TestRateIntervalReport:
    def test_all_perfect_rates(self):
        c = 7
        audit = rate_interval_report(
            np.ones(c), metrics_with(np.zeros(c)), metrics_with(np.ones(c))
        )
        assert audit.histogram == (0,) * 9 + (c,)
        assert audit.interval_gains[-1] == pytest.approx(1.0)

    def test_bin_arithmetic(self):
        audit = rate_interval_report(
            np.array([0.05, 0.15, 0.95]),
            metrics_with([0.0, 0.0, 0.0]),
            metrics_with([0.5, 0.25, 0.0]),
        )
        assert audit.histogram == (1, 1, 0, 0, 0, 0, 0, 0, 0, 1)
        assert audit.interval_gains[0] == pytest.approx(0.5)
        assert audit.interval_gains[1] == pytest.approx(0.25)
        assert math.isnan(audit.interval_gains[5])

    def test_boundary_bins(self):
        assert rate_bin(0.0) == 0
        assert rate_bin(0.1) == 1
        assert rate_bin(0.999) == 9
        assert rate_bin(1.0) == 9
        with pytest.raises(AnalysisError):
            rate_bin(1.5)

    def test_category_permutation_invariant_histogram(self):
        rng = np.random.default_rng(8)
        rates = rng.uniform(0, 1, 30)
        base = metrics_with(rng.uniform(0, 1, 30))
        curr = metrics_with(rng.uniform(0, 1, 30))
        audit = rate_interval_report(rates, base, curr)
        perm = rng.permutation(30)
        audit_p = rate_interval_report(
            rates[perm],
            metrics_with(base.per_category_topk[perm]),
            metrics_with(curr.per_category_topk[perm]),
        )
        assert audit.histogram == audit_p.histogram
        for a, b in zip(audit.interval_gains, audit_p.interval_gains):
            assert (math.isnan(a) and math.isnan(b)) or a == pytest.approx(b)

    def test_length_mismatch(self):
        with pytest.raises(AnalysisError, match="categories"):
            rate_interval_report(np.ones(3), metrics_with(np.zeros(2)), metrics_with(np.zeros(3)))

    def test_pure_deterministic_output(self):
        rates = np.array([0.2, 0.4, 0.9])
        base, curr = metrics_with([0.1, 0.2, 0.3]), metrics_with([0.2, 0.3, 0.4])
        a1 = rate_interval_report(rates, base, curr)
        a2 = rate_interval_report(rates, base, curr)
        assert json.dumps(a1.histogram) == json.dumps(a2.histogram)
        assert repr(a1.interval_gains) == repr(a2.interval_gains)


# Rates at the bin edges, written both as 0.1 * k and as k / 10 (they differ
# for k = 3, 6 and 7), and anywhere in [0, 1].
EDGE_RATES = sorted({0.1 * k for k in range(11)} | {k / 10 for k in range(11)})
RATES = st.one_of(st.sampled_from(EDGE_RATES), st.floats(0.0, 1.0))
ACCURACIES = st.one_of(st.floats(0.0, 1.0), st.just(math.nan))
# Curriculum accuracies that make nan, inf and -inf gains as well.
SHIFTED = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([math.nan, math.inf, -math.inf]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n_subsets=st.integers(1, 5),
       rows=st.lists(st.tuples(st.integers(-2, 6), st.booleans()), min_size=1, max_size=40))
def test_subset_noise_rates_equal_mask_loop(n_subsets, rows):
    # Levels below 0 or at or past n_subsets, and empty levels.
    levels = np.array([level for level, _ in rows])
    wrong = np.array([w for _, w in rows])
    cd = CurriculumDesign(
        params=CurriculumParams(n_subsets=n_subsets),
        sample_ids=tuple(f"s{i}" for i in range(len(rows))),
        categories=np.zeros(len(rows)), levels=levels,
        dist_to_center=np.zeros(len(rows)), center_ids=("s0",), d_c=np.zeros(1),
    )
    rates = subset_noise_rates(cd, {f"s{i}": int(w) for i, w in enumerate(wrong)})
    got = (rates.sizes, rates.mislabeled, rates.rates, rates.overall_rate)
    assert repr(got) == repr(mask_noise_rates(levels, wrong, n_subsets))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cats=st.lists(st.tuples(RATES, ACCURACIES, SHIFTED), max_size=30))
@example(cats=[])
@example(cats=[(0.3, 0.0, 0.1), (0.1 * 3, 0.0, 0.2), (1.0, 0.5, math.inf), (0.0, math.nan, 1.0)])
# Added in category order, 1.0 absorbs each 1e-16; added smallest first, it
# does not.
@example(cats=[(0.65, 0.0, 1.0), (0.65, 0.0, 1e-16), (0.65, 0.0, 1e-16)])
def test_rate_intervals_equal_category_loop(cats):
    rates, base, curr = (np.array([c[i] for c in cats], dtype=np.float64) for i in range(3))
    audit = rate_interval_report(rates, metrics_with(base), metrics_with(curr))
    expected = loop_rate_intervals(rates, curr - base)
    assert repr((audit.histogram, audit.interval_gains)) == repr(expected)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cats=st.lists(st.tuples(st.one_of(RATES, st.just(math.nan)), ACCURACIES, SHIFTED),
                     max_size=30))
def test_category_without_a_rate_is_in_no_bin(cats):
    rates, base, curr = (np.array([c[i] for c in cats], dtype=np.float64) for i in range(3))
    audit = rate_interval_report(rates, metrics_with(base), metrics_with(curr))
    keep = ~np.isnan(rates)
    expected = loop_rate_intervals(rates[keep], (curr - base)[keep])
    assert repr((audit.histogram, audit.interval_gains)) == repr(expected)
    assert sum(audit.histogram) == keep.sum()


def test_rate_bin_of_nan_raises():
    with pytest.raises(AnalysisError, match="correct rate nan outside"):
        rate_bin(math.nan)
