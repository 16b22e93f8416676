import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from currikit import density
from currikit.density import (
    cutoff_dc,
    delta_and_center,
    density_profile,
    distance_matrix,
    local_density,
)
from oracles import (
    brute_cutoff,
    brute_local_density,
    literal_delta,
    naive_distance_matrix,
    ordered_center,
    unique_rho_mask,
)

POINTS = np.array([[0.0], [1.0], [2.0], [10.0]])


class TestDistanceMatrix:
    def test_hand_example(self):
        d2 = distance_matrix(POINTS)
        expected = np.array([
            [0, 1, 4, 100],
            [1, 0, 1, 81],
            [4, 1, 0, 64],
            [100, 81, 64, 0],
        ], dtype=float)
        assert np.array_equal(d2, expected)

    def test_single_point(self):
        assert np.array_equal(distance_matrix(np.array([[3.5]])), np.zeros((1, 1)))

    def test_matches_naive_oracle_bitwise(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(1, 30))
            d = int(rng.integers(1, 10))
            feats = rng.standard_normal((n, d)).astype(np.float32).astype(np.float64)
            ours = distance_matrix(feats)
            assert np.array_equal(ours, naive_distance_matrix(feats))

    def test_symmetry_and_diagonal(self):
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((20, 8))
        d2 = distance_matrix(feats)
        assert np.array_equal(d2, d2.T)
        assert np.array_equal(np.diag(d2), np.zeros(20))
        assert (d2 >= 0).all()

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            distance_matrix(np.array([[np.inf]]))

    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 257])
    def test_bitwise_across_row_blocks(self, n):
        # Row blocks are 128 wide; these sizes cover one partial block, one
        # exact block, a one-row tail and a three-block matrix.
        rng = np.random.default_rng(n)
        feats = rng.standard_normal((n, 3)) * np.array([1e-3, 1.0, 1e3])
        feats[::7] *= 1e6
        if n >= 4:
            feats[n - 1] = feats[0]
            feats[n // 2] = feats[1]
        d2 = distance_matrix(feats)
        assert np.array_equal(d2, naive_distance_matrix(feats))
        assert np.array_equal(d2, d2.T)
        assert np.array_equal(np.diag(d2), np.zeros(n))
        # The cutoff copies the upper triangle in the same row blocks.
        for k in (0.5, 30.0, 60.0, 99.9):
            assert cutoff_dc(d2, k) == brute_cutoff(d2, k)

    def test_memory_budget(self, monkeypatch):
        feats = np.random.default_rng(5).standard_normal((30, 4))
        monkeypatch.setattr(density, "MAX_MATRIX_BYTES", 8 * 30 * 30)
        assert distance_matrix(feats).shape == (30, 30)
        monkeypatch.setattr(density, "MAX_MATRIX_BYTES", 8 * 30 * 30 - 1)
        with pytest.raises(ValueError, match="30 samples needs 7200 bytes"):
            distance_matrix(feats)
        # density_profile's budget is its streamed working set, not the matrix.
        monkeypatch.setattr(density, "MAX_MATRIX_BYTES", 216000)
        assert density_profile(feats).rho.shape == (30,)
        monkeypatch.setattr(density, "MAX_MATRIX_BYTES", 216000 - 1)
        with pytest.raises(ValueError, match="30 samples needs 216000 bytes for its "
                                             "density design"):
            density_profile(feats)


@st.composite
def features_with_duplicates(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 4))
    feats = draw(arrays(np.float64, (n, d), elements=st.floats(-1e6, 1e6)))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n - 1)), max_size=4)):
        feats[dst] = feats[src]
    return feats


class TestDensityProperties:
    @settings(deadline=None)
    @given(features_with_duplicates())
    def test_distance_matrix_matches_naive(self, feats):
        assert np.array_equal(distance_matrix(feats), naive_distance_matrix(feats))

    @settings(deadline=None)
    @given(features_with_duplicates(),
           st.floats(0.0, 100.0, exclude_min=True, exclude_max=True))
    def test_cutoff_matches_brute_force(self, feats, k_percent):
        d2 = distance_matrix(feats)
        assert cutoff_dc(d2, k_percent) == brute_cutoff(d2, k_percent)


class TestCutoff:
    def test_hand_example(self):
        d2 = distance_matrix(POINTS)
        assert cutoff_dc(d2, 60) == 4.0

    def test_single_point(self):
        assert cutoff_dc(np.zeros((1, 1)), 60) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(1, 25))
            d2 = distance_matrix(rng.standard_normal((n, 4)))
            k = float(rng.uniform(1, 99))
            assert cutoff_dc(d2, k) == brute_cutoff(d2, k)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(10)
        d2 = distance_matrix(rng.standard_normal((30, 3)))
        values = [cutoff_dc(d2, k) for k in np.linspace(1, 99, 40)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_k_range_validated(self):
        with pytest.raises(ValueError):
            cutoff_dc(np.zeros((1, 1)), 0.0)
        with pytest.raises(ValueError):
            cutoff_dc(np.zeros((1, 1)), 100.0)

    def test_extra_peak_at_most_half_the_matrix(self):
        # The cutoff copies only the strict upper triangle, not all n^2 entries.
        d2 = distance_matrix(np.random.default_rng(13).standard_normal((1000, 8)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cutoff_dc(d2, 60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 0.55 * d2.nbytes


class TestLocalDensity:
    def test_hand_example(self):
        d2 = distance_matrix(POINTS)
        assert np.array_equal(local_density(d2, 4.0), [1, 2, 1, 0])

    def test_identical_points(self):
        d2 = np.zeros((5, 5))
        assert np.array_equal(local_density(d2, 1.0), [4] * 5)

    def test_zero_cutoff_strict(self):
        d2 = distance_matrix(POINTS)
        assert np.array_equal(local_density(d2, 0.0), [0, 0, 0, 0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            d2 = distance_matrix(rng.standard_normal((int(rng.integers(1, 25)), 3)))
            d_c = float(rng.uniform(0, d2.max() + 0.1))
            assert np.array_equal(local_density(d2, d_c), brute_local_density(d2, d_c))


class TestDeltaAndCenter:
    def test_hand_example(self):
        d2 = distance_matrix(POINTS)
        delta, nearest, center = delta_and_center(d2, np.array([1, 2, 1, 0]))
        assert np.array_equal(delta, [1.0, 81.0, 1.0, 64.0])
        assert np.array_equal(nearest, [1, -1, 1, 2])
        assert center == 1

    def test_single_point(self):
        delta, nearest, center = delta_and_center(np.zeros((1, 1)), np.array([0]))
        assert np.array_equal(delta, [0.0])
        assert nearest[0] == -1 and center == 0

    def test_exactly_one_root(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            feats = rng.standard_normal((int(rng.integers(2, 30)), 4))
            prof = density_profile(feats)
            _, nearest, _ = delta_and_center(distance_matrix(feats), prof.rho)
            assert (nearest == -1).sum() == 1

    def test_matches_literal_rule_at_untied_samples(self):
        # Fully untied rho cannot occur for n >= 2 (degree-sequence pigeonhole),
        # so the strict-rule equivalence is checked per untied sample.
        rng = np.random.default_rng(33)
        checked = 0
        for _ in range(30):
            feats = rng.standard_normal((int(rng.integers(3, 25)), 3))
            d2 = distance_matrix(feats)
            rho = local_density(d2, cutoff_dc(d2, 60))
            delta, _, _ = delta_and_center(d2, rho)
            exp_delta, _ = literal_delta(d2, rho)
            mask = unique_rho_mask(rho)
            assert np.array_equal(delta[mask], exp_delta[mask])
            checked += int(mask.sum())
        assert checked >= 30

    def test_permutation_property(self):
        # rho is permutation-equivariant; delta additionally agrees at every
        # sample whose rho value is untied (tie-breaking is index-dependent
        # by design, so tied samples may legitimately differ).
        rng = np.random.default_rng(44)
        feats = rng.standard_normal((18, 5))
        prof = density_profile(feats)
        perm = rng.permutation(18)
        prof_p = density_profile(feats[perm])
        delta = delta_and_center(distance_matrix(feats), prof.rho)[0]
        delta_p = delta_and_center(distance_matrix(feats[perm]), prof_p.rho)[0]
        back = np.empty(18, dtype=int)
        back[perm] = np.arange(18)
        assert np.array_equal(prof_p.rho[back], prof.rho)
        mask = unique_rho_mask(prof.rho)
        assert np.array_equal(delta_p[back][mask], delta[mask])


class TestDensityProfile:
    def test_pipeline_consistency(self):
        rng = np.random.default_rng(55)
        feats = rng.standard_normal((40, 6))
        prof = density_profile(feats, k_percent=60)
        d2 = distance_matrix(feats)
        assert prof.d_c == cutoff_dc(d2, 60)
        assert np.array_equal(prof.rho, local_density(d2, prof.d_c))
        assert prof.center == delta_and_center(d2, prof.rho)[2]

    def test_extra_peak_under_the_matrix(self):
        # The condensed approximate triangle (half the matrix) and row
        # blocks, not the n x n matrix and a copy of its triangle.
        n = 2000
        feats = np.random.default_rng(14).standard_normal((n, 64))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            density_profile(feats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 0.8 * 8 * n * n


def reference_profile(feats, k_percent):
    """(d_c, rho, center, center_dist) composed from the reference functions."""
    d2 = distance_matrix(feats)
    d_c = cutoff_dc(d2, k_percent)
    rho = local_density(d2, d_c)
    center = delta_and_center(d2, rho)[2]
    return d_c, rho, center, d2[center]


@st.composite
def profile_features(draw):
    # Sizes around the 128-row blocks; small-integer grids tie many pair
    # distances at the cutoff; the 1e6 offset needs the centering; at 1e150
    # and 1e160 the approximations overflow and every pair is re-checked.
    n = draw(st.sampled_from([1, 2, 3, 5, 8, 13, 127, 128, 129, 257]))
    d = draw(st.integers(1, 4))
    elements = st.integers(-3, 3) if draw(st.booleans()) else st.floats(-1e3, 1e3)
    feats = draw(arrays(np.float64, (n, d), elements=elements))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n - 1)), max_size=4)):
        feats[dst] = feats[src]
    scale = draw(st.sampled_from([1.0, 1e-3, 1e150, 1e160]))
    feats = feats * scale + draw(st.sampled_from([0.0, 1e6]))
    if scale < 1e30 and draw(st.booleans()):
        feats = feats.astype(np.float32)
    return feats


class TestProfileMatchesReferences:
    @settings(deadline=None)
    @given(profile_features(),
           st.floats(0.0, 100.0, exclude_min=True, exclude_max=True))
    def test_bytes_equal_the_composed_references(self, feats, k_percent):
        with np.errstate(over="ignore"):
            d_c, rho, center, center_dist = reference_profile(feats, k_percent)
            prof = density_profile(feats, k_percent)
        assert np.float64(prof.d_c).tobytes() == np.float64(d_c).tobytes()
        assert prof.rho.dtype == rho.dtype and prof.rho.tobytes() == rho.tobytes()
        assert prof.center == center
        assert prof.center_dist.tobytes() == center_dist.tobytes()


def oracle_profile(feats, k_percent, d2=None):
    """(d_c, rho, center, center_dist) from the brute-force oracles, over
    the naive distance matrix unless the exact `d2` is given."""
    d2 = naive_distance_matrix(feats) if d2 is None else d2
    d_c = brute_cutoff(d2, k_percent)
    rho = brute_local_density(d2, d_c)
    center = ordered_center(d2, rho)
    return d_c, rho, center, d2[center]


def assert_bytes_equal(prof, expected):
    d_c, rho, center, center_dist = expected
    assert np.float64(prof.d_c).tobytes() == np.float64(d_c).tobytes()
    assert prof.rho.dtype == rho.dtype and prof.rho.tobytes() == rho.tobytes()
    assert prof.center == center
    assert prof.center_dist.tobytes() == center_dist.tobytes()


def category(kind, n, d, seed):
    """n x d features of one kind; see TestStreamedSelection."""
    rng = np.random.default_rng(seed)
    if kind == "spread":
        return rng.uniform(-1e3, 1e3, (n, d))
    if kind == "grid":
        return rng.integers(-3, 4, (n, d)).astype(np.float64)
    if kind == "identical":
        return np.tile(rng.standard_normal(d) + 0.1, (n, 1))
    if kind == "near-duplicate":
        base = rng.standard_normal((int(rng.integers(1, 5)), d)) * 1e3
        feats = base[np.arange(n) % len(base)]
        nudge = rng.random((n, d)) < 0.5
        return np.where(nudge, np.nextafter(feats, np.inf), feats)
    # far below the anchor: tiny values and one far outlier
    feats = rng.standard_normal((n, d)) * 1e-9
    feats[0] += 1e6
    return feats


class TestStreamedSelection:
    """density_profile's streamed cutoff selection against the oracles.

    Sizes sit at the 128-row block edges. The kinds: spread values; a small
    integer grid, which ties many pairs at the cutoff; identical rows, whose
    window ends as one repeated value; near-duplicate rows, whose
    approximations come out negative; and tiny rows beside one far outlier,
    whose pairs all fall far below the anchor into the first pass's bottom
    bin. A budget of one candidate pair per sample makes the selection
    refine its window in further passes."""

    @settings(deadline=None, max_examples=30)
    @given(st.sampled_from([1, 2, 127, 128, 129, 255, 256, 257]),
           st.integers(1, 3),
           st.sampled_from(["spread", "grid", "identical", "near-duplicate", "far-below"]),
           st.one_of(st.sampled_from([0.5, 99.9]),
                     st.floats(0.0, 100.0, exclude_min=True, exclude_max=True)),
           st.sampled_from([density._KEEP_PER_SAMPLE, 1]),
           st.integers(0, 2**32 - 1))
    # Windows refined down to single keys while negative approximations,
    # whose keys lie over 2^63 below the window, fall outside them.
    @example(n=128, d=3, kind="near-duplicate", k_percent=44.0, keep=1, seed=0)
    @example(n=127, d=2, kind="near-duplicate", k_percent=99.9, keep=1, seed=0)
    def test_bytes_equal_the_oracles(self, n, d, kind, k_percent, keep, seed):
        feats = category(kind, n, d, seed)
        expected = oracle_profile(feats, k_percent)
        with mock.patch.object(density, "_KEEP_PER_SAMPLE", keep):
            assert_bytes_equal(density_profile(feats, k_percent), expected)
            d2 = distance_matrix(feats)
            assert cutoff_dc(d2, k_percent) == expected[0]

    @pytest.mark.parametrize("kind, k_percent, keep, passes", [
        ("identical", 60.0, density._KEEP_PER_SAMPLE, 2),
        ("near-duplicate", 0.5, density._KEEP_PER_SAMPLE, 1),
        ("far-below", 60.0, density._KEEP_PER_SAMPLE, 2),
        ("spread", 60.0, 1, 2),
        ("grid", 60.0, 1, 2),
    ])
    def test_histogram_passes(self, monkeypatch, kind, k_percent, keep, passes):
        # 300 samples hold more pairs than the default budget, so at least
        # one histogram pass runs. Identical rows stop after the pass that
        # sees one repeated value; tiny rows refine the bottom bin.
        feats = category(kind, 300, 3, 7)
        expected = oracle_profile(feats, k_percent, distance_matrix(feats))
        calls = []
        histogram = density._histogram
        monkeypatch.setattr(density, "_histogram",
                            lambda *args, **kw: calls.append(kw) or histogram(*args, **kw))
        monkeypatch.setattr(density, "_KEEP_PER_SAMPLE", keep)
        assert_bytes_equal(density_profile(feats, k_percent), expected)
        assert len(calls) >= passes
        if kind == "identical":
            assert len(calls) == 2

    def test_near_duplicate_approximations_negative(self):
        feats = category("near-duplicate", 300, 3, 7)
        y = feats - feats.mean(axis=0)
        sq = np.einsum("ij,ij->i", y, y)
        approx = -2.0 * (y @ y.T) + sq[:, None] + sq
        assert (approx[np.triu_indices(300, 1)] < 0).any()

    def test_peak_linear_in_n(self):
        # Two n x d feature copies (transposed and centered) and a few row
        # blocks; the parent's condensed triangle alone was 4 n (n - 1).
        n, d = 3000, 64
        feats = np.random.default_rng(14).standard_normal((n, d))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            density_profile(feats)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * n * d + 3 * density._ROW_BLOCK * 8 * n
        assert peak <= density._profile_bytes(n, d)

    def test_refining_peak_within_the_budget(self, monkeypatch):
        monkeypatch.setattr(density, "_KEEP_PER_SAMPLE", 1)
        n, d = 1000, 8
        feats = category("spread", n, d, 3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            density_profile(feats)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= density._profile_bytes(n, d)

    def test_category_over_the_matrix_budget_still_designed(self, monkeypatch):
        # 2000 samples need 32 MB for their distance matrix but under 28 MB
        # for the streamed design.
        n, d = 2000, 8
        feats = np.random.default_rng(21).standard_normal((n, d))
        d2 = distance_matrix(feats)
        d_c = cutoff_dc(d2, 60.0)
        rho = local_density(d2, d_c)
        center = delta_and_center(d2, rho)[2]
        expected = (d_c, rho, center, d2[center])
        del d2
        budget = density._profile_bytes(n, d)
        assert budget < 8 * n * n
        monkeypatch.setattr(density, "MAX_MATRIX_BYTES", budget)
        with pytest.raises(ValueError, match="2000 samples needs 32000000 bytes for its "
                                             "distance matrix"):
            distance_matrix(feats)
        assert_bytes_equal(density_profile(feats, 60.0), expected)
