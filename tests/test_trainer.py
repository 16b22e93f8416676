import copy
import math
import pickle
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from currikit.cli import _json_text, _load_run
from currikit.curriculum import CurriculumParams, design_curriculum
from currikit.data import NOISE_CLEAN, SynthConfig, generate_synthetic
from currikit.fileio import atomic_write_text
from currikit.schedule import StageSpec, default_schedule, plain_schedule
from currikit.trainer import (
    ARCHITECTURES,
    ClassifierModel,
    EvalPoint,
    RunMetrics,
    TrainState,
    TrainingDiverged,
    _flatten,
    _momentum_step,
    _stage_pool_loss,
    evaluate,
    holdout_split,
    replay_batches,
    top_k_predictions,
    train,
)
from oracles import (
    alloc_logits,
    alloc_loss_and_grads,
    alloc_momentum_step,
    alloc_weighted_ce_loss,
    branch_initialize,
    finite_diff_grad,
    mask_accuracies,
    relative_error,
    weighted_ce_loss,
)


def single_ce(logits, label, weight):
    """weighted_ce_loss on a batch of one sample."""
    loss, grad = weighted_ce_loss(
        np.asarray(logits, dtype=np.float64)[None, :], np.array([label]), np.array([weight]))
    return loss, grad[0]


class TestWeightedCeLoss:
    # Each case gives logits whose softmax is the probability vector under test.
    def test_analytic_value(self):
        loss, grad = single_ce(np.log([0.5, 0.5]), 0, 1.0)
        assert loss == pytest.approx(math.log(2), abs=1e-12)
        assert np.allclose(grad, [-0.5, 0.5])

    def test_linear_in_weight(self):
        logits = np.log([0.2, 0.3, 0.5])
        loss1, grad1 = single_ce(logits, 1, 1.0)
        loss05, grad05 = single_ce(logits, 1, 0.5)
        assert loss05 == pytest.approx(loss1 / 2, abs=1e-15)
        assert np.array_equal(grad05, grad1 * 0.5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            c = int(rng.integers(2, 8))
            logits = rng.standard_normal(c)
            label = int(rng.integers(0, c))
            weight = float(rng.uniform(0.1, 2.0))
            _, grad = single_ce(logits, label, weight)

            def loss_of(z):
                return single_ce(z, label, weight)[0]

            fd = finite_diff_grad(loss_of, logits.copy())
            assert relative_error(grad, fd) < 1e-5

    def test_zero_probability_clamped(self):
        loss, _ = single_ce([0.0, -1e4], 1, 1.0)  # softmax gives [1.0, 0.0]
        assert math.isfinite(loss) and loss > 20


def grads_like(params):
    """New arrays shaped like `params`, for the gradients under the same names."""
    return {name: np.empty_like(value) for name, value in params.items()}


class TestModelGradients:
    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    def test_param_gradients_match_finite_differences(self, arch):
        rng = np.random.default_rng(7)
        for _ in range(10):
            d, c, b = 5, 4, 6
            model = ClassifierModel.initialize(arch, d, c, rng, hidden_dim=6)
            x = rng.standard_normal((b, d))
            y = rng.integers(0, c, b)
            w = rng.uniform(0.25, 1.5, b)
            _, grads = model.loss_and_grads(x, y, w, out=grads_like(model.params))
            for name in model.params:
                def loss_of(p, name=name):
                    old = model.params[name]
                    model.params[name] = p
                    val = model.loss_and_grads(x, y, w, out=grads_like(model.params))[0]
                    model.params[name] = old
                    return val

                fd = finite_diff_grad(loss_of, model.params[name].copy())
                assert relative_error(grads[name], fd) < 1e-5, (arch, name)

    def test_weight_doubling_doubles_gradient(self):
        rng = np.random.default_rng(9)
        model = ClassifierModel.initialize("linear", 4, 3, rng)
        x = rng.standard_normal((1, 4))
        y = np.array([1])
        _, g1 = model.loss_and_grads(x, y, np.array([1.0]), out=grads_like(model.params))
        _, g2 = model.loss_and_grads(x, y, np.array([2.0]), out=grads_like(model.params))
        for name in g1:
            assert np.array_equal(g2[name], 2.0 * g1[name])

    def test_forward_is_distribution(self):
        rng = np.random.default_rng(2)
        model = ClassifierModel.initialize("mlp", 6, 5, rng)
        probs = model.forward(rng.standard_normal((10, 6)))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert (probs >= 0).all()


def bits(x):
    """The IEEE bit patterns of a float64 value or array."""
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@st.composite
def kernel_cases(draw):
    """A model, standardized rows, labels and mixed loss weights. `scale`
    multiplies the parameters (up to logits in the thousands); with `ties`,
    rows repeat and classes 0 and 1 get equal logits."""
    arch = draw(st.sampled_from(ARCHITECTURES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, c, b = draw(st.integers(1, 9)), draw(st.integers(2, 9)), draw(st.integers(1, 40))
    model = ClassifierModel.initialize(arch, d, c, rng, hidden_dim=draw(st.integers(1, 12)))
    scale = draw(st.sampled_from([1.0, 30.0, 1e3]))
    for name, value in model.params.items():
        value *= scale
        if name.startswith("b"):
            value += scale * rng.standard_normal(value.shape)
    z = rng.standard_normal((b, d))
    if draw(st.booleans()):
        z[b // 2:] = z[: b - b // 2]
        out_w, out_b = ("W", "b") if arch == "linear" else ("W2", "b2")
        model.params[out_w][:, 1] = model.params[out_w][:, 0]
        model.params[out_b][1] = model.params[out_b][0]
    labels = rng.integers(0, c, b)
    weights = np.array([0.0, 0.5, 1.0, rng.uniform(0.1, 2.0)])[rng.integers(0, 4, b)]
    return model, z, labels, weights


class TestInPlaceKernels:
    """The trainer's in-place kernels give the bits of the allocating
    expressions in the oracles."""

    @settings(max_examples=150, deadline=None)
    @given(kernel_cases())
    def test_logits_loss_and_grads(self, case):
        model, z, labels, weights = case
        params = {k: v.copy() for k, v in model.params.items()}
        assert np.array_equal(bits(model.logits(z)), bits(alloc_logits(model.arch, params, z)))
        loss, grads = alloc_loss_and_grads(model.arch, params, z, labels, weights)
        out = dict(model.params)
        _flatten(out)
        for got_loss, got in (model.loss_and_grads(z, labels, weights, out=grads_like(params)),
                              model.loss_and_grads(z, labels, weights, out=out)):
            assert bits(got_loss) == bits(loss)
            assert sorted(got) == sorted(grads)
            for name in grads:
                assert np.array_equal(bits(got[name]), bits(grads[name])), name
        logits = alloc_logits(model.arch, params, z)
        expected_loss, expected_grad = alloc_weighted_ce_loss(logits, labels, weights)
        got_loss, got_grad = weighted_ce_loss(logits, labels, weights)
        assert bits(got_loss) == bits(expected_loss)
        assert np.array_equal(bits(got_grad), bits(expected_grad))
        # weighted_ce_loss leaves its input alone.
        assert np.array_equal(bits(logits), bits(alloc_logits(model.arch, params, z)))

    @settings(max_examples=60, deadline=None)
    @given(kernel_cases(), st.lists(st.sampled_from([0.1, 0.01, 1e-5, 3.0]), min_size=1,
                                    max_size=4))
    def test_momentum_steps(self, case, rates):
        model, z, labels, weights = case
        rng = np.random.default_rng(len(rates))
        params = {k: v.copy() for k, v in model.params.items()}
        velocity = {k: rng.standard_normal(v.shape) for k, v in params.items()}
        flat_params = dict(params)
        flat_velocity = dict(velocity)
        p, v = _flatten(flat_params), _flatten(flat_velocity)
        grads = dict(params)
        g = _flatten(grads)
        for lr in rates:
            model.params = params
            _, expected = model.loss_and_grads(z, labels, weights, out=grads_like(params))
            alloc_momentum_step(params, velocity, expected, lr)
            model.params = flat_params
            model.loss_and_grads(z, labels, weights, out=grads)
            _momentum_step(p, v, g, np.empty_like(p), lr)
            for name in params:
                assert np.array_equal(bits(flat_params[name]), bits(params[name])), name
                assert np.array_equal(bits(flat_velocity[name]), bits(velocity[name])), name

    def test_stage_pool_loss_peak_memory(self):
        # A stage pool of 4800 rows of 64 features through a 128-unit MLP
        # with 10 classes: the loss may hold the gathered rows, one hidden
        # matrix and two logit matrices at once, and nothing else of size.
        n, d, hidden, c = 4800, 64, 128, 10
        rng = np.random.default_rng(0)
        model = ClassifierModel.initialize("mlp", d, c, rng, hidden_dim=hidden)
        train_z = rng.standard_normal((6000, d))
        pool = np.sort(rng.choice(6000, n, replace=False))
        labels = rng.integers(0, c, n)
        weights = np.array([1.0, 0.5, 0.5])[rng.integers(0, 3, n)]
        expected = alloc_weighted_ce_loss(
            alloc_logits("mlp", model.params, train_z[pool]), labels, weights)[0]
        tracemalloc.start()
        try:
            loss = _stage_pool_loss(model, train_z, pool, labels, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bits(loss) == bits(expected)
        assert peak <= 8 * n * (d + hidden + 2 * c), peak


@settings(max_examples=150, deadline=None)
@given(arch=st.sampled_from(ARCHITECTURES), input_dim=st.integers(1, 12),
       hidden_dim=st.integers(1, 12), n_classes=st.integers(2, 12),
       seed=st.integers(0, 2**32 - 1), standardize=st.booleans())
def test_initialize_draws_as_the_branch_initializer(arch, input_dim, hidden_dim, n_classes,
                                                    seed, standardize):
    """The layer-by-layer initializer gives every parameter the bits of the
    one-branch-per-architecture initializer in the oracles, and leaves the
    generator in the same state, so its draws come in the same order."""
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    feats = np.random.default_rng(seed).standard_normal((4, input_dim)) if standardize else None
    got = ClassifierModel.initialize(arch, input_dim, n_classes, rng, hidden_dim, feats)
    expected = branch_initialize(arch, input_dim, n_classes, oracle_rng, hidden_dim, feats)
    assert list(got.params) == list(expected.params)
    for name, value in expected.params.items():
        assert got.params[name].shape == value.shape, name
        assert np.array_equal(bits(got.params[name]), bits(value)), name
    assert np.array_equal(bits(got.input_mean), bits(expected.input_mean))
    assert np.array_equal(bits(got.input_std), bits(expected.input_std))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestEvaluate:
    def _fs(self, feats, labels, c):
        from currikit.data import FeatureSet

        return FeatureSet(
            features=np.asarray(feats, dtype=np.float32),
            labels=np.asarray(labels),
            sample_ids=tuple(f"t{i}" for i in range(len(labels))),
            category_names=tuple(f"c{i}" for i in range(c)),
        )

    def test_uniform_probability_tie_break(self):
        # All-zero weights give uniform probabilities; ties resolve to the
        # lowest class indices, so top-5 always predicts classes 0..4.
        model = ClassifierModel(
            arch="linear", input_dim=2, n_classes=10,
            params={"W": np.zeros((2, 10)), "b": np.zeros(10)},
            input_mean=np.zeros(2), input_std=np.ones(2),
        )
        labels = np.arange(10)
        fs = self._fs(np.ones((10, 2)), labels, 10)
        top1, top5 = evaluate(model, fs, topk=5)
        assert top1 == 0.9
        assert top5 == 0.5

    def test_perfect_model(self):
        # Nearest-centroid classifier in logit form: x @ c - |c|^2 / 2.
        rng = np.random.default_rng(3)
        centers = np.array([[0.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
        labels = rng.integers(0, 3, 60)
        feats = centers[labels] + 0.1 * rng.standard_normal((60, 2))
        fs = self._fs(feats, labels, 3)
        model = ClassifierModel(
            arch="linear", input_dim=2, n_classes=3,
            params={"W": centers.T.copy(),
                    "b": -0.5 * (centers * centers).sum(axis=1)},
            input_mean=np.zeros(2), input_std=np.ones(2),
        )
        assert evaluate(model, fs, topk=2) == (0.0, 0.0)

    def test_against_scripted_oracle(self):
        rng = np.random.default_rng(4)
        n, c, k = 100, 7, 3
        probs = rng.dirichlet(np.ones(c), size=n)
        labels = rng.integers(0, c, n)
        ranked = top_k_predictions(probs, k)
        top1_errors = topk_errors = 0
        for i in range(n):
            order = sorted(range(c), key=lambda j: (-probs[i, j], j))
            assert order[:k] == ranked[i].tolist()
            top1_errors += order[0] != labels[i]
            topk_errors += labels[i] not in order[:k]
        assert (ranked[:, 0] != labels).sum() == top1_errors
        assert (ranked != labels[:, None]).all(axis=1).sum() == topk_errors

    def test_topk_too_large(self):
        rng = np.random.default_rng(5)
        model = ClassifierModel.initialize("linear", 2, 3, rng)
        fs = self._fs(np.ones((2, 2)), [0, 1], 3)
        with pytest.raises(ValueError):
            evaluate(model, fs, topk=4)


PLANT = SynthConfig(n_categories=6, per_category=60, n_features=16,
                    clean_frac=0.6, cross_frac=0.25, uniform_frac=0.15,
                    blob_sigma=2.0, seed=2)


def planted_split():
    fs, truth = generate_synthetic(PLANT)
    return holdout_split(fs, truth, 0.2, 0)


class TestTrain:
    def test_model_b_sees_only_clean(self):
        tr, _, _ = planted_split()
        cd = design_curriculum(tr, CurriculumParams(seed=2))
        schedule = default_schedule(16, 0.0001, n_stages=1)
        log = list(replay_batches(tr, cd, schedule, 0))
        assert log, "batch log should not be empty"
        for _, _, counts, weights in log:
            assert counts[1] == counts[2] == 0
            assert all(weights[lv] == 1.0 for lv, c in enumerate(counts) if c)

    def test_zero_iterations(self):
        tr, _, te = planted_split()
        cd = design_curriculum(tr, CurriculumParams(seed=2))
        stage = StageSpec(0, 16, (16, 0, 0), (1.0, 0.5, 0.5), 0, ((0, 0.1),))
        model, metrics = train("ModelB", tr, te, cd, [stage], 0)
        assert len(metrics.points) == 1
        assert metrics.points[0].iteration == 0
        assert metrics.final_top1 == metrics.points[0].test_top1

    def test_deterministic(self):
        tr, _, te = planted_split()
        cd = design_curriculum(tr, CurriculumParams(seed=2))
        schedule = default_schedule(16, 0.0005)
        _, m1 = train("ModelD", tr, te, cd, schedule, 3)
        _, m2 = train("ModelD", tr, te, cd, schedule, 3)
        assert m1.to_dict() == m2.to_dict()

    def test_single_unrestricted_stage_matches_plain_baseline(self):
        # The curriculum machinery with one unrestricted unweighted stage is
        # the plain-training baseline, step for step.
        tr, _, te = planted_split()
        cd = design_curriculum(tr, CurriculumParams(seed=2))
        schedule = plain_schedule(16, 0.0005)
        model_a, ma = train("ModelA", tr, te, cd, schedule, 5)
        model_d, md = train("ModelD", tr, te, cd, schedule, 5)
        for name in model_a.params:
            assert np.array_equal(model_a.params[name], model_d.params[name])
        assert [p.test_top1 for p in ma.points] == [p.test_top1 for p in md.points]

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_detected(self):
        tr, _, te = planted_split()
        cd = design_curriculum(tr, CurriculumParams(seed=2))
        stage = StageSpec(0, 16, (16, 0, 0), (1.0, 0.5, 0.5), 50, ((0, 1e160),))
        with pytest.raises(TrainingDiverged):
            train("ModelB", tr, te, cd, [stage], 0)

    def test_loss_decreases_on_separable_clean_data(self):
        cfg = SynthConfig(n_categories=4, per_category=40, n_features=8,
                          clean_frac=1.0, cross_frac=0.0, uniform_frac=0.0,
                          blob_sigma=0.5, seed=3)
        fs, truth = generate_synthetic(cfg)
        tr, _, te = holdout_split(fs, truth, 0.2, 1)
        cd = design_curriculum(tr, CurriculumParams(seed=3))
        schedule = default_schedule(16, 0.001, n_stages=1)
        _, metrics = train("ModelB", tr, te, cd, schedule, 0, topk=3)
        first_decay = 300
        tail = [p.train_loss for p in metrics.points if p.iteration >= first_decay]
        assert all(a >= b - 1e-9 for a, b in zip(tail, tail[1:]))

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    @pytest.mark.parametrize("carry", ["same", "pickle", "deepcopy"])
    def test_resume_from_carried_state(self, arch, carry):
        # Stopped inside stage 0, at the stage 0/1 boundary and inside
        # stage 2, each state carried on as the fork pool (pickle) or the
        # serial grid (deepcopy) does: the same metrics and parameter bits as
        # one uninterrupted run.
        tr, _, te = planted_split()
        cd = design_curriculum(tr, CurriculumParams(seed=2))
        schedule = default_schedule(16, 0.0005)
        options = dict(arch=arch, hidden_dim=8, eval_every=40)
        whole_model, whole = train("ModelD", tr, te, cd, schedule, 4, **options)
        carried = {"same": lambda s: s, "pickle": lambda s: pickle.loads(pickle.dumps(s)),
                   "deepcopy": copy.deepcopy}[carry]
        state = TrainState.start(tr, 4, arch, hidden_dim=8)
        for stop in (37, 150, 301, None):
            model, metrics = train("ModelD", tr, te, cd, schedule, 4, state=state, stop=stop,
                                   **options)
            state = carried(state)
        assert metrics.to_dict() == whole.to_dict()
        for name in whole_model.params:
            assert np.array_equal(bits(model.params[name]), bits(whole_model.params[name]))

    def test_metrics_round_trip(self):
        tr, _, te = planted_split()
        cd = design_curriculum(tr, CurriculumParams(seed=2))
        _, m = train("ModelD", tr, te, cd, default_schedule(16, 0.0002), 1)
        again = RunMetrics.from_dict(m.to_dict())
        assert again.to_dict() == m.to_dict()

    @settings(max_examples=60, deadline=None)
    @given(
        st.text(max_size=12),
        st.integers(0, 2**63 - 1),
        st.integers(1, 1000),
        st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 2), st.floats(),
                           st.floats(), st.floats()), max_size=5),
        st.floats(), st.floats(),
        st.lists(st.one_of(st.just(math.nan), st.floats(0.0, 1.0)), min_size=1, max_size=6),
        st.lists(st.one_of(st.just(math.nan), st.floats(0.0, 1.0)), min_size=1, max_size=6),
    )
    def test_run_json_round_trip_byte_exact(self, tag, seed, topk, points, final_top1,
                                            final_topk, per_top1, per_topk):
        # The bytes `train` writes to run_*.json, read back as `analyze` does.
        m = RunMetrics(tag, seed, topk, [EvalPoint(*p) for p in points], final_top1,
                       final_topk, np.array(per_top1), np.array(per_topk))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "run.json")
            atomic_write_text(path, _json_text(m.to_dict()))
            again = _load_run(str(path))
            assert _json_text(again.to_dict()).encode() == path.read_bytes()

    def test_per_category_accuracy_shapes(self):
        tr, _, te = planted_split()
        cd = design_curriculum(tr, CurriculumParams(seed=2))
        model, metrics = train("ModelD", tr, te, cd, default_schedule(16, 0.0002), 1)
        assert metrics.per_category_top1.shape == (6,)
        acc1, acck = evaluate(model, te, 5, by_category=True)[2:]
        assert np.allclose(acc1, metrics.per_category_top1, equal_nan=True)
        assert np.allclose(acck, metrics.per_category_topk, equal_nan=True)


@pytest.mark.parametrize("seed", range(4))
def test_per_category_accuracies_equal_mask_loop(seed):
    # Bit for bit, with one category absent from the test set (nan).
    fs, _ = generate_synthetic(SynthConfig(6, 23, 5, 0.6, 0.25, 0.15, seed=seed))
    absent = seed % 6
    te = fs.take(fs.labels != absent)
    model = ClassifierModel.initialize("mlp", 5, 6, np.random.default_rng(seed), hidden_dim=4,
                                       train_features=fs.features)
    fractional = 0
    for topk in (1, 3):
        acc1, acck = evaluate(model, te, topk, by_category=True)[2:]
        ranked = top_k_predictions(model.forward(te.features), topk)
        miss1 = ranked[:, 0] != te.labels
        missk = (ranked != te.labels[:, None]).all(axis=1)
        expected1, expectedk = mask_accuracies(te.labels, miss1, missk, 6)
        assert acc1.tobytes() == expected1.tobytes()
        assert acck.tobytes() == expectedk.tobytes()
        assert math.isnan(acc1[absent]) and math.isnan(acck[absent])
        fractional += int(((acck > 0) & (acck < 1)).sum())
    assert fractional, "no accuracy strictly between 0 and 1"


class TestHoldoutSplit:
    def test_disjoint_and_clean(self):
        fs, truth = generate_synthetic(PLANT)
        tr, tr_truth, te = holdout_split(fs, truth, 0.25, 4)
        assert tr.n_samples + te.n_samples == fs.n_samples
        assert set(tr.sample_ids).isdisjoint(te.sample_ids)
        assert len(tr_truth) == tr.n_samples
        # held-out samples are all truly clean, so test labels are ground truth
        clean_ids = {sid for sid, k in zip(fs.sample_ids, truth.noise_kind)
                     if k == NOISE_CLEAN}
        assert set(te.sample_ids) <= clean_ids

    def test_bad_fraction(self):
        fs, truth = generate_synthetic(PLANT)
        with pytest.raises(ValueError):
            holdout_split(fs, truth, 0.0, 1)

    def test_no_clean_sample_held_out(self):
        # Two clean samples per category: 0.2 of 2 rounds to none.
        cfg = SynthConfig(n_categories=3, per_category=2, n_features=4, clean_frac=1.0,
                          cross_frac=0.0, uniform_frac=0.0, seed=0)
        fs, truth = generate_synthetic(cfg)
        with pytest.raises(ValueError, match=r"test_frac 0\.2 holds out no clean sample"):
            holdout_split(fs, truth, 0.2, 0)
