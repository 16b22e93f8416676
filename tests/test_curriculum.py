from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from currikit.analysis import subset_noise_rates
from currikit.curriculum import (
    CurriculumError,
    CurriculumParams,
    curriculum_from_json,
    curriculum_to_json,
    design_curriculum,
    design_curriculum_kmeans_baseline,
    load_curriculum,
    partition_category,
    save_curriculum,
)
from currikit.data import (
    FeatureSet,
    SynthConfig,
    generate_synthetic,
)
from currikit.schedule import CurriculumSampler
from oracles import (
    brute_cutoff,
    categories_json,
    brute_local_density,
    index_of,
    literal_delta,
    naive_distance_matrix,
    optimal_kmeans_1d,
    reference_from_truth,
    wcss_of,
)

PLANT = SynthConfig(n_categories=10, per_category=200, n_features=32,
                    clean_frac=0.60, cross_frac=0.25, uniform_frac=0.15,
                    blob_sigma=2.0, seed=1)


class TestPartitionCategory:
    def test_hand_example(self):
        levels = partition_category(np.array([1.0, 0.0, 1.0, 81.0]), 3)
        assert levels.tolist() == [1, 0, 1, 2]

    def test_all_equal_values(self):
        levels = partition_category(np.full(7, 3.5), 3)
        assert levels.tolist() == [0] * 7

    def test_fewer_distinct_than_subsets(self):
        levels = partition_category(np.array([2.0, 5.0, 2.0]), 3)
        assert levels.tolist() == [0, 1, 0]

    def test_single_subset(self):
        levels = partition_category(np.array([1.0, 9.0, 4.0]), 1)
        assert levels.tolist() == [0, 0, 0]

    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(8)
        values = np.concatenate([
            rng.uniform(0, 2, 120),
            rng.uniform(48, 52, 100),
            rng.uniform(198, 205, 80),
        ])
        planted = np.concatenate([np.zeros(120), np.ones(100), np.full(80, 2)])
        levels = partition_category(values, 3)
        assert np.array_equal(levels, planted)
        oracle_levels, _ = optimal_kmeans_1d(values, 3)
        assert np.array_equal(levels, oracle_levels)

    def test_wcss_never_beats_dp_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(3, 41))
            values = np.abs(rng.standard_normal(n)) * 10 ** rng.integers(0, 3)
            levels = partition_category(values, 3)
            _, best = optimal_kmeans_1d(values, 3)
            assert wcss_of(values, levels) >= best - 1e-9

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 5).map(float), st.floats(0.0, 1e6)),
                    min_size=1, max_size=40),
           st.integers(1, 5))
    def test_levels_ordered_by_ascending_centroid(self, values, n_subsets):
        values = np.array(values)
        levels = partition_category(values, n_subsets)
        used = np.unique(levels)
        means = [values[levels == lv].mean() for lv in used]
        assert all(a < b for a, b in zip(means, means[1:]))
        # Each level is an interval of values: a larger value never gets a lower level.
        for lo, hi in zip(used, used[1:]):
            assert values[levels == lo].max() < values[levels == hi].min()

    def test_rejects_bad_input(self):
        with pytest.raises(CurriculumError):
            partition_category(np.array([np.nan]), 3)
        with pytest.raises(CurriculumError):
            partition_category(np.array([-1.0]), 3)
        with pytest.raises(CurriculumError):
            partition_category(np.array([]), 3)


@pytest.fixture(scope="module")
def design():
    fs, truth = generate_synthetic(PLANT)
    cd = design_curriculum(fs, CurriculumParams(seed=1))
    return fs, truth, cd


class TestDesignCurriculum:
    def test_levels_partition_each_category(self, design):
        fs, _, cd = design
        for st in cd.category_stats():
            assert sum(st.subset_sizes) == st.n == 200

    def test_mean_dist_monotone(self, design):
        _, _, cd = design
        for st in cd.category_stats():
            means = [m for m in st.mean_dist if not np.isnan(m)]
            assert all(a < b for a, b in zip(means, means[1:]))

    def test_center_is_clean(self, design):
        fs, _, cd = design
        idx = index_of(fs)
        for c, center_id in enumerate(cd.center_ids):
            i = idx[center_id]
            assert fs.labels[i] == c
            assert cd.levels[i] == 0
            assert cd.dist_to_center[i] == 0.0

    def test_noise_rates_ordered(self, design):
        fs, truth, cd = design
        rates = subset_noise_rates(cd, reference_from_truth(fs, truth)).rates
        assert rates[0] < rates[1] < rates[2]

    def test_clean_purity_concentrates(self, design):
        fs, truth, cd = design
        kinds = np.array(truth.noise_kind)
        clean_mask = cd.levels == 0
        purity = (kinds[clean_mask] == "clean").mean()
        assert purity > PLANT.clean_frac

    def test_small_category_all_clean(self):
        fs = FeatureSet(
            features=np.array([[0.0], [1.0], [0.0], [5.0], [9.0]], dtype=np.float32),
            labels=np.array([0, 0, 1, 1, 1]),
            sample_ids=tuple("abcde"),
            category_names=("x", "y"),
        )
        cd = design_curriculum(fs, CurriculumParams(n_subsets=3))
        assert cd.levels[fs.labels == 0].tolist() == [0, 0]

    def test_empty_category_named_in_error(self):
        fs = FeatureSet(
            features=np.zeros((2, 1), dtype=np.float32),
            labels=np.array([0, 0]),
            sample_ids=("a", "b"),
            category_names=("x", "ghost"),
        )
        with pytest.raises(CurriculumError, match="ghost"):
            design_curriculum(fs, CurriculumParams())

    def test_deterministic_bytes(self, design):
        fs, _, cd = design
        again = design_curriculum(fs, CurriculumParams(seed=1))
        assert curriculum_to_json(cd) == curriculum_to_json(again)

    def test_matches_density_oracles_end_to_end(self):
        # d_c and the distance row of the chosen center are compared with the
        # oracles in every category. The center itself is compared with the
        # strict higher-density rule of literal_delta where the category's
        # maximal rho is unique; at a tie the two rules may pick different
        # samples by definition (see literal_delta).
        untied = 0
        for seed in range(10):
            fs, _ = generate_synthetic(SynthConfig(4, 30, 6, 0.6, 0.25, 0.15, seed=seed))
            cd = design_curriculum(fs, CurriculumParams(seed=seed))
            for c in range(fs.n_categories):
                idx = np.flatnonzero(fs.labels == c)
                d2 = naive_distance_matrix(fs.features[idx])
                d_c = brute_cutoff(d2, 60.0)
                rho = brute_local_density(d2, d_c)
                assert cd.d_c[c] == d_c
                center = idx.tolist().index(index_of(fs)[cd.center_ids[c]])
                assert np.array_equal(cd.dist_to_center[idx], d2[center])
                if (rho == rho.max()).sum() == 1:
                    _, expected_center = literal_delta(d2, rho)
                    assert cd.center_ids[c] == fs.sample_ids[idx[expected_center]]
                    untied += 1
        assert untied >= 10, "too few categories with a unique density peak"


class TestKmeansBaseline:
    def test_valid_design(self):
        fs, _ = generate_synthetic(SynthConfig(4, 50, 8, 0.6, 0.25, 0.15, seed=3))
        cd = design_curriculum_kmeans_baseline(fs, CurriculumParams(seed=3))
        for st in cd.category_stats():
            assert sum(st.subset_sizes) == st.n
            assert st.subset_sizes[0] == max(st.subset_sizes)

    def test_identical_points_single_cluster(self):
        fs = FeatureSet(
            features=np.tile(np.float32(2.0), (6, 2)),
            labels=np.array([0, 0, 0, 1, 1, 1]),
            sample_ids=tuple("abcdef"),
            category_names=("x", "y"),
        )
        cd = design_curriculum_kmeans_baseline(fs, CurriculumParams())
        assert (cd.levels == 0).all()

    def test_deterministic(self):
        fs, _ = generate_synthetic(SynthConfig(3, 30, 4, 0.6, 0.25, 0.15, seed=4))
        a = design_curriculum_kmeans_baseline(fs, CurriculumParams(seed=9))
        b = design_curriculum_kmeans_baseline(fs, CurriculumParams(seed=9))
        assert curriculum_to_json(a) == curriculum_to_json(b)


class TestSerialization:
    def test_round_trip_bytes(self, tmp_path):
        fs, _ = generate_synthetic(SynthConfig(3, 25, 4, 0.6, 0.25, 0.15, seed=6))
        cd = design_curriculum(fs, CurriculumParams(seed=6))
        p1 = tmp_path / "c order.json"
        p2 = tmp_path / "c2.json"
        save_curriculum(cd, p1)
        save_curriculum(load_curriculum(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=50, deadline=None)
    @given(k_percent=st.one_of(
        st.floats(0, 100, exclude_min=True, exclude_max=True),
        st.floats(99.99999995, 100, exclude_max=True),
    ))
    def test_json_round_trip_any_k_percent(self, k_percent):
        fs, _ = generate_synthetic(SynthConfig(3, 12, 4, 0.6, 0.25, 0.15, seed=6))
        text = curriculum_to_json(design_curriculum(fs, CurriculumParams(k_percent=k_percent)))
        back = curriculum_from_json(text)
        assert back.params.k_percent == k_percent
        assert curriculum_to_json(back) == text

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           bad=st.lists(st.tuples(st.sampled_from(["dist", "d_c", "category"]),
                                  st.integers(0, 35), st.sampled_from([np.nan, np.inf])),
                        max_size=3))
    def test_json_matches_per_category_loop(self, seed, bad):
        """Categories interleaved in row order, samples of no category, and
        non-finite distances: the text of a per-category loop, or its error
        for the first value that is not finite in the order written."""
        fs, _ = generate_synthetic(SynthConfig(3, 12, 4, 0.6, 0.25, 0.15, seed=6))
        fs = fs.take(np.random.default_rng(seed).permutation(fs.n_samples))
        cd = design_curriculum(fs, CurriculumParams())
        fields = {"dist": cd.dist_to_center.copy(), "d_c": cd.d_c.copy(),
                  "category": cd.categories.copy()}
        for name, i, value in bad:
            if name == "category":
                fields[name][i] = 3  # written under no category
            else:
                fields[name][i % fields[name].size] = value
        cd = replace(cd, dist_to_center=fields["dist"], d_c=fields["d_c"],
                     categories=fields["category"])
        try:
            expected = categories_json(cd)
        except ValueError as exc:
            with pytest.raises(CurriculumError) as caught:
                curriculum_to_json(cd)
            assert str(caught.value) == str(exc)
            return
        assert curriculum_to_json(cd).endswith(expected)

    def test_load_names_the_file_of_a_malformed_curriculum(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"version": 1 "params": {}}')
        with pytest.raises(CurriculumError) as caught:
            load_curriculum(path)
        assert str(caught.value) == (f"{path}: malformed curriculum file: Expecting ',' "
                                     "delimiter: line 1 column 15 (char 14)")

    def test_load_names_the_file_that_is_not_utf_8(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_bytes(b'\xff{"version": 1}')
        with pytest.raises(CurriculumError) as caught:
            load_curriculum(path)
        assert str(caught.value) == f"{path}: not UTF-8 text"

    def test_version_mismatch(self):
        with pytest.raises(CurriculumError, match="version"):
            curriculum_from_json('{"version": 99, "params": {}, "categories": []}')

    def test_unknown_id_on_rebind(self):
        fs, _ = generate_synthetic(SynthConfig(2, 10, 3, 1.0, 0.0, 0.0, seed=1))
        cd = design_curriculum(fs, CurriculumParams())
        other = FeatureSet(
            features=np.zeros((1, 3), dtype=np.float32),
            labels=np.array([0]),
            sample_ids=("stranger",),
            category_names=("x", "y"),
        )
        with pytest.raises(CurriculumError, match="stranger"):
            CurriculumSampler(cd, other)

    @pytest.mark.parametrize("name, cut", [
        ("categories", 1), ("levels", 12), ("dist_to_center", 19), ("d_c", 1),
    ])
    def test_misaligned_arrays_rejected(self, name, cut):
        # 2 categories of 10 samples; `cut` values dropped from one array.
        fs, _ = generate_synthetic(SynthConfig(2, 10, 3, 0.6, 0.25, 0.15, seed=2))
        cd = design_curriculum(fs, CurriculumParams())
        with pytest.raises(CurriculumError, match=f"^{name} has shape"):
            replace(cd, **{name: getattr(cd, name)[cut:]})
        with pytest.raises(CurriculumError, match="expected one value per entry of sample_ids"):
            replace(cd, sample_ids=cd.sample_ids[:-1])

    def test_params_preserved(self, tmp_path):
        fs, _ = generate_synthetic(SynthConfig(2, 12, 3, 0.6, 0.25, 0.15, seed=8))
        params = CurriculumParams(k_percent=55.5, n_subsets=2, kmeans_max_iters=77, seed=12)
        cd = design_curriculum(fs, params)
        path = tmp_path / "c.json"
        save_curriculum(cd, path)
        assert load_curriculum(path).params == params
