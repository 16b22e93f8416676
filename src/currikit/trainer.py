"""Desk-scale classifier trained through a staged curriculum.

The model is a linear softmax classifier or a one-hidden-layer MLP over the
feature vectors; the variable under test is the training schedule, not the
architecture. Optimization is plain SGD with momentum 0.9 and weight decay
1e-4, learning rates from the stage plan. Per-sample losses are
multiplied by their subset-level weight and then averaged over the batch
size; momentum carries across stage boundaries. Runs are single-threaded and
fully deterministic for a given seed.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

import numpy as np

from .curriculum import CurriculumDesign
from .data import FeatureSet, NOISE_CLEAN, SyntheticTruth, category_rows
from .schedule import CurriculumSampler, StageSpec, report_moves, spans
from .seeding import component_rng

LOG_EPS = 1e-12
#: Each architecture's layers, input first, as the names of their (weight,
#: bias) parameters; a ReLU follows every layer but the last.
_LAYERS = {"linear": (("W", "b"),), "mlp": (("W1", "b1"), ("W2", "b2"))}
ARCHITECTURES = tuple(_LAYERS)
MOMENTUM = 0.9
WEIGHT_DECAY = 1e-4


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during training."""


def _softmax_(z: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax of float logits `z`, written over `z`."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _weighted_ce_(
    logits: np.ndarray, labels: np.ndarray, weights: np.ndarray, grad: bool = True
) -> tuple[float, np.ndarray | None]:
    """Mean weighted cross-entropy over a batch and, if `grad`, its gradient
    w.r.t. the logits, written over `logits`, a float64 array the caller
    owns: they become the probabilities and then the gradient.

    The loss is sum_i -weights[i] * log(p_i[labels[i]]) / b over the b rows,
    with each probability clamped at 1e-12; the gradient of row i is
    weights[i] * (p_i - onehot(labels[i])) / b, exactly linear in the weight.
    Without `grad` the gradient is None.
    """
    b = logits.shape[0]
    rows = np.arange(b)
    probs = _softmax_(logits)
    picked = probs[rows, labels]
    loss = float((-weights * np.log(np.maximum(picked, LOG_EPS))).sum() / b)
    if not grad:
        return loss, None
    probs *= weights[:, None]
    probs[rows, labels] -= weights
    probs /= b
    return loss, probs


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b in one new array."""
    out = x @ w
    out += b
    return out


def _views(flat: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Consecutive views into `flat`, in name order, shaped like the arrays
    of `like` under the same names."""
    views, start = {}, 0
    for name in sorted(like):
        shape = np.shape(like[name])
        size = math.prod(shape)
        views[name] = flat[start:start + size].reshape(shape)
        start += size
    return views


def _flatten(arrays: dict[str, np.ndarray]) -> np.ndarray:
    """Copy `arrays` into one new float64 vector, in name order, and replace
    each entry by its same-shaped view into it. Pickling and deep copies
    turn the views back into separate arrays."""
    flat = np.concatenate([np.ravel(arrays[name]) for name in sorted(arrays)],
                          dtype=np.float64)
    arrays.update(_views(flat, arrays))
    return flat


def _check_model(arch: str, hidden_dim: int) -> None:
    if arch not in _LAYERS:
        raise ValueError(f"unknown architecture {arch!r}")
    if hidden_dim < 1:
        raise ValueError(f"hidden_dim must be at least 1, got {hidden_dim}")


def _check_topk(topk: int, n_classes: int) -> None:
    if topk < 1:
        raise ValueError(f"topk must be at least 1, got {topk}")
    if topk > n_classes:
        raise ValueError("topk exceeds the number of classes")


@dataclass
class ClassifierModel:
    """Linear or one-hidden-layer softmax classifier over feature vectors.

    Inputs are standardized with the per-dimension mean/std captured at
    initialization (from the training features), so the learning rates of
    the stage plan behave the same regardless of raw feature scale.
    :meth:`forward` takes raw feature rows; :meth:`logits` and
    :meth:`loss_and_grads` take rows already standardized by
    :meth:`standardize`.
    """

    arch: str
    input_dim: int
    n_classes: int
    params: dict[str, np.ndarray]
    input_mean: np.ndarray
    input_std: np.ndarray

    @staticmethod
    def initialize(
        arch: str,
        input_dim: int,
        n_classes: int,
        rng: np.random.Generator,
        hidden_dim: int = 32,
        train_features: np.ndarray | None = None,
    ) -> "ClassifierModel":
        """Weights from a Gaussian with variance 2 / fan_in, zero biases."""
        _check_model(arch, hidden_dim)
        layers = _LAYERS[arch]
        widths = [input_dim] + [hidden_dim] * (len(layers) - 1) + [n_classes]
        params = {}
        for (w, b), fan_in, fan_out in zip(layers, widths, widths[1:]):
            params[w] = rng.standard_normal((fan_in, fan_out)) * math.sqrt(2.0 / fan_in)
            params[b] = np.zeros(fan_out)
        if train_features is None:
            mean = np.zeros(input_dim)
            std = np.ones(input_dim)
        else:
            feats = np.asarray(train_features, dtype=np.float64)
            mean = feats.mean(axis=0)
            std = np.maximum(feats.std(axis=0), 1e-8)
        return ClassifierModel(
            arch=arch, input_dim=input_dim, n_classes=n_classes, params=params,
            input_mean=mean, input_std=std,
        )

    def standardize(self, x: np.ndarray) -> np.ndarray:
        """Raw feature rows in the model's input space, as float64."""
        z = np.asarray(x, dtype=np.float64) - self.input_mean
        z /= self.input_std
        return z

    def _forward(self, z: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Each layer's input (above the first, the ReLU of the layer below)
        and the logits, of rows already in the model's input space."""
        inputs, out = [], z
        for w, b in _LAYERS[self.arch]:
            if inputs:
                np.maximum(out, 0.0, out=out)
            inputs.append(out)
            out = _affine(out, self.params[w], self.params[b])
        return inputs, out

    def logits(self, z: np.ndarray) -> np.ndarray:
        """Logits of rows already in the model's input space."""
        return self._forward(z)[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities of raw feature rows, rows summing to 1."""
        return _softmax_(self.logits(self.standardize(x)))

    def loss_and_grads(
        self, z: np.ndarray, labels: np.ndarray, weights: np.ndarray,
        out: dict[str, np.ndarray],
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean weighted cross-entropy and its parameter gradients.

        Like :meth:`logits`, it takes rows already in the model's input
        space, as :meth:`standardize` returns them; the trainer standardizes
        its training matrix once per run and passes row slices of it. The
        gradients are written into `out`, arrays shaped like the parameters
        under the same names, which are returned.
        """
        inputs, logits = self._forward(z)
        loss, g = _weighted_ce_(logits, labels, weights)
        for k, (w, b) in reversed(list(enumerate(_LAYERS[self.arch]))):
            np.matmul(inputs[k].T, g, out=out[w])
            g.sum(axis=0, out=out[b])
            if k:
                g = g @ self.params[w].T
                g *= inputs[k] > 0.0
        return loss, out


def _momentum_step(params: np.ndarray, velocity: np.ndarray, grad: np.ndarray,
                   scratch: np.ndarray, lr: float) -> None:
    """One SGD step in place on flat vectors: per element,
    v = MOMENTUM * v - lr * (g + WEIGHT_DECAY * p), then p += v. `grad` and
    `scratch` are overwritten."""
    np.multiply(params, WEIGHT_DECAY, out=scratch)
    grad += scratch
    grad *= lr
    velocity *= MOMENTUM
    velocity -= grad
    params += velocity


@dataclass(frozen=True)
class EvalPoint:
    iteration: int
    stage: int
    train_loss: float
    test_top1: float
    test_topk: float


@dataclass
class RunMetrics:
    """Error traces of one training run.

    ``per_category_top1`` / ``per_category_topk`` are the final-eval
    per-category test accuracies (fractions correct).
    """

    strategy: str
    seed: int
    topk: int
    points: list[EvalPoint] = field(default_factory=list)
    final_top1: float = math.nan
    final_topk: float = math.nan
    per_category_top1: np.ndarray | None = None
    per_category_topk: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "seed": self.seed,
            "topk": self.topk,
            "final_top1": self.final_top1,
            "final_topk": self.final_topk,
            "per_category_top1": [float(x) for x in self.per_category_top1],
            "per_category_topk": [float(x) for x in self.per_category_topk],
            "points": [asdict(p) for p in self.points],
        }

    @staticmethod
    def from_dict(doc: dict) -> "RunMetrics":
        return RunMetrics(
            strategy=doc["strategy"],
            seed=int(doc["seed"]),
            topk=int(doc["topk"]),
            points=[
                EvalPoint(
                    iteration=int(p["iteration"]),
                    stage=int(p["stage"]),
                    train_loss=float(p["train_loss"]),
                    test_top1=float(p["test_top1"]),
                    test_topk=float(p["test_topk"]),
                )
                for p in doc["points"]
            ],
            final_top1=float(doc["final_top1"]),
            final_topk=float(doc["final_topk"]),
            per_category_top1=np.array(doc["per_category_top1"], dtype=np.float64),
            per_category_topk=np.array(doc["per_category_topk"], dtype=np.float64),
        )


def top_k_predictions(probs: np.ndarray, k: int) -> np.ndarray:
    """The k most probable classes per row, probability ties broken by the
    smaller class index (stable sort), so results are fully deterministic."""
    order = np.argsort(-probs, axis=1, kind="stable")
    return order[:, :k]


def evaluate(
    model: ClassifierModel, fs_test: FeatureSet, topk: int = 5, *, by_category: bool = False
) -> tuple:
    """(top-1 error, top-k error) on the test set. With `by_category`, the
    per-category (top-1, top-k) accuracies follow, from the same ranking;
    nan for categories absent from the test set."""
    if fs_test.n_samples == 0:
        raise ValueError("empty test set")
    _check_topk(topk, model.n_classes)
    ranked = top_k_predictions(model.forward(fs_test.features), topk)
    labels = fs_test.labels
    miss1 = ranked[:, 0] != labels
    missk = (ranked != labels[:, None]).all(axis=1)
    errors = (float(miss1.mean()), float(missk.mean()))
    if not by_category:
        return errors
    c = fs_test.n_categories
    n = np.bincount(labels, minlength=c)
    return errors + tuple(np.divide(np.bincount(labels[~miss], minlength=c), n,
                                    out=np.full(c, math.nan), where=n > 0)
                          for miss in (miss1, missk))


def _stage_pool_loss(model: ClassifierModel, train_z: np.ndarray, pool: np.ndarray,
                     labels: np.ndarray, weights: np.ndarray) -> float:
    """Mean weighted loss over the rows `pool` of the standardized training
    matrix `train_z`, with those rows' labels and loss weights; nan for an
    empty pool."""
    if not pool.size:
        return math.nan
    return _weighted_ce_(model.logits(train_z[pool]), labels, weights, grad=False)[0]


@dataclass
class TrainState:
    """A run after its first `iteration` steps: the model, its momentum
    buffers, the batch generator and the eval points so far. :func:`train`
    continues it bit for bit as if the run had never stopped."""

    iteration: int
    model: ClassifierModel
    velocity: dict[str, np.ndarray]
    rng: np.random.Generator
    points: list[EvalPoint]

    @staticmethod
    def start(
        fs_train: FeatureSet, seed: int, arch: str = "linear", hidden_dim: int = 32
    ) -> "TrainState":
        """A fresh run of `seed`: initial weights, zero momentum, no step taken."""
        model = ClassifierModel.initialize(
            arch, fs_train.n_features, fs_train.n_categories,
            component_rng(seed, "model-init"), hidden_dim,
            train_features=fs_train.features,
        )
        velocity = {k: np.zeros_like(v) for k, v in model.params.items()}
        return TrainState(0, model, velocity, component_rng(seed, "batches"), [])


def replay_batches(fs_train: FeatureSet, cd: CurriculumDesign, schedule: list[StageSpec],
                   seed: int, include_mask: np.ndarray | None = None) -> Iterator[tuple]:
    """(iteration, stage index, level counts, stage loss weights) of each
    batch that :func:`train` draws for this run, from the same sampler and
    stream but without a model, which a run's batches never depend on."""
    sampler = CurriculumSampler(cd, fs_train, include_mask)
    rng = component_rng(seed, "batches")
    for start, end, stage, _ in spans(schedule):
        for iteration in range(start, end):
            batch = sampler.next_batch(stage, rng)
            yield (iteration, stage.stage_index, batch.level_counts(sampler.n_levels),
                   stage.loss_weights)


def train(
    strategy_tag: str,
    fs_train: FeatureSet,
    fs_test: FeatureSet,
    cd: CurriculumDesign,
    schedule: list[StageSpec],
    seed: int,
    *,
    arch: str = "linear",
    hidden_dim: int = 32,
    topk: int = 5,
    eval_every: int | None = None,
    include_mask: np.ndarray | None = None,
    state: TrainState | None = None,
    stop: int | None = None,
) -> tuple[ClassifierModel, RunMetrics]:
    """Run the staged schedule and return the model with its metrics.

    Stages run in order, the model and optimizer state carrying over between
    them. Evaluation happens at iteration 0, every `eval_every` iterations
    (default: a tenth of the run) and at the final iteration; each point
    records the mean weighted loss over the current stage's sample pool and
    the test errors; the final point's ranking of the test set also gives
    the per-category accuracies. `include_mask` removes samples from the
    sampling pools without changing the dataset (and therefore without
    changing input standardization).

    A run is one segment from a fresh start to the end, which first logs
    its stages' pick moves off empty levels (:func:`report_moves`). Given a
    `state` (from :meth:`TrainState.start` or an earlier call), the run goes
    on from that state's iteration without logging them, advancing the state
    in place, and stops after iteration `stop` (default: the end); `arch`
    and `hidden_dim` then come from the state's model. Each call repacks the
    arrays of ``state.model.params`` and ``state.velocity`` into new ones
    (views into one vector each), so an array taken from those dicts before
    the call no longer follows the run. The metrics hold every eval point
    since iteration 0; their final errors stay nan until the run ends.
    """
    sampler = CurriculumSampler(cd, fs_train, include_mask)
    if state is None:
        report_moves(schedule, [pool.size for pool in sampler.by_level])
        state = TrainState.start(fs_train, seed, arch, hidden_dim)
    model, rng = state.model, state.rng
    total = sum(s.iterations for s in schedule)
    stop = total if stop is None else stop
    if not state.iteration <= stop <= total:
        raise ValueError(f"stop {stop} is outside [{state.iteration}, {total}]")
    if eval_every is None:
        eval_every = max(1, total // 10)

    metrics = RunMetrics(strategy=strategy_tag, seed=seed, topk=topk)
    train_z = model.standardize(fs_train.features)
    train_y = fs_train.labels
    # The parameters, their momentum buffers and gradients, each as one
    # vector under its dict of views, so an update is a few whole-vector
    # operations; repacked on every call, since a state that was pickled or
    # deep-copied holds separate arrays again.
    params = _flatten(model.params)
    velocity = _flatten(state.velocity)
    grad = np.empty_like(params)
    grads = _views(grad, model.params)
    scratch = np.empty_like(params)

    def record(iteration: int, stage: StageSpec) -> None:
        final = iteration == total
        top1, topk_err, *by_category = evaluate(model, fs_test, topk, by_category=final)
        if final:
            metrics.per_category_top1, metrics.per_category_topk = by_category
        pool = sampler.stage_pool(stage)
        state.points.append(
            EvalPoint(
                iteration=iteration,
                stage=stage.stage_index,
                train_loss=_stage_pool_loss(model, train_z, pool, train_y[pool],
                                            stage.sample_weights(sampler.levels[pool])),
                test_top1=top1,
                test_topk=topk_err,
            )
        )

    if not state.points:
        record(0, schedule[0])
    iteration = state.iteration
    for _, end, stage, lr in spans(schedule):
        while iteration < min(end, stop):
            batch = sampler.next_batch(stage, rng)
            loss, _ = model.loss_and_grads(
                train_z[batch.indices], train_y[batch.indices], batch.weights, out=grads
            )
            if not math.isfinite(loss):
                raise TrainingDiverged(
                    f"{strategy_tag} seed {seed}: non-finite loss at iteration "
                    f"{iteration} (stage {stage.stage_index}, lr {lr})"
                )
            _momentum_step(params, velocity, grad, scratch, lr)
            iteration += 1
            if iteration % eval_every == 0 or iteration == total:
                record(iteration, stage)

    state.iteration = iteration
    metrics.points = list(state.points)
    if iteration == total:
        metrics.final_top1 = metrics.points[-1].test_top1
        metrics.final_topk = metrics.points[-1].test_topk
    return model, metrics


def holdout_split(
    fs: FeatureSet, truth: SyntheticTruth, test_frac: float = 0.2, seed: int = 0
) -> tuple[FeatureSet, SyntheticTruth, FeatureSet]:
    """Split off a clean test set; the remainder (all noise kinds) trains.

    Per category, `test_frac` of the samples whose labels are actually
    correct (noise kind "clean") are held out, so test labels are ground
    truth by construction, mirroring evaluation on a verified validation
    set. Returns (train features, train truth, test features).
    """
    if not 0.0 < test_frac < 1.0:
        raise ValueError("test_frac must be in (0, 1)")
    rng = component_rng(seed, "holdout")
    kinds = np.array([k == NOISE_CLEAN for k in truth.noise_kind])
    test_mask = np.zeros(fs.n_samples, dtype=bool)
    for rows in category_rows(fs.labels, fs.n_categories):
        clean_idx = rows[kinds[rows]]
        n_test = int(math.floor(test_frac * clean_idx.size + 0.5))
        if clean_idx.size and n_test == clean_idx.size:
            n_test -= 1  # keep at least one clean training sample
        if n_test:
            test_mask[rng.choice(clean_idx, size=n_test, replace=False)] = True
    if not test_mask.any():
        raise ValueError(f"test_frac {test_frac:g} holds out no clean sample, "
                         "so the test set would be empty")
    train_mask = ~test_mask
    return fs.take(train_mask), truth.take(train_mask), fs.take(test_mask)
