"""Independent brute-force oracles used to pin expected values.

Everything here is written to be obviously correct (plain loops, textbook
dynamic programming) and stays independent of the library implementations it
checks, except the test-only helpers at the end, which give the tests
convenient forms of library data and of one library kernel.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from currikit.data import BINARY_VERSION, MAGIC, DatasetError, FeatureSet
from currikit.trainer import ClassifierModel, _check_model, _weighted_ce_


def naive_distance_matrix(features: np.ndarray) -> np.ndarray:
    """O(n^2 d) triple loop over float64 values."""
    feats = np.asarray(features, dtype=np.float64)
    n, d = feats.shape
    out = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(n):
            s = 0.0
            for k in range(d):
                diff = feats[i, k] - feats[j, k]
                s += diff * diff
            out[i, j] = s
    return out


def brute_cutoff(d2: np.ndarray, k_percent: float) -> float:
    values = sorted(float(x) for x in np.asarray(d2).ravel())
    n_sq = len(values)
    idx = min(int(math.floor(k_percent * n_sq / 100.0)), n_sq - 1)
    return values[idx]


def brute_local_density(d2: np.ndarray, d_c: float) -> np.ndarray:
    d2 = np.asarray(d2)
    n = d2.shape[0]
    rho = np.zeros(n, dtype=np.int64)
    for i in range(n):
        count = 0
        for j in range(n):
            if j != i and d2[i, j] < d_c:
                count += 1
        rho[i] = count
    return rho


def literal_delta(d2: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, int]:
    """The strict higher-density rule: delta is the minimum distance to any
    sample of strictly higher density, or the maximum row distance when no
    such sample exists.

    Matches the ordering-based definition exactly at every sample whose rho
    value is unique within the instance. A fully untied rho vector cannot
    exist for n >= 2 (rho is the degree sequence of an undirected graph, and
    some two degrees always coincide), so comparisons are per-sample.
    """
    d2 = np.asarray(d2, dtype=np.float64)
    n = d2.shape[0]
    delta = np.zeros(n, dtype=np.float64)
    for i in range(n):
        higher = [j for j in range(n) if rho[j] > rho[i]]
        if higher:
            delta[i] = min(d2[i, j] for j in higher)
        else:
            delta[i] = max(d2[i, j] for j in range(n))
    return delta, int(np.argmax(delta))


def ordered_center(d2: np.ndarray, rho: np.ndarray) -> int:
    """The center by the ordering rule: samples ranked by rho descending,
    then index ascending; the first takes the maximum of its distance row
    as delta, every other the minimum distance to an earlier-ranked sample;
    the center is the smallest index of maximal delta."""
    rows = np.asarray(d2, dtype=np.float64).tolist()
    n = len(rows)
    ranked = sorted(range(n), key=lambda i: (-int(rho[i]), i))
    delta = [0.0] * n
    for pos, i in enumerate(ranked):
        if pos == 0:
            delta[i] = max(rows[i])
        else:
            delta[i] = min(rows[i][j] for j in ranked[:pos])
    return delta.index(max(delta))


def unique_rho_mask(rho: np.ndarray) -> np.ndarray:
    """True where a sample's rho value occurs exactly once in the instance."""
    rho = np.asarray(rho)
    values, counts = np.unique(rho, return_counts=True)
    singletons = set(values[counts == 1].tolist())
    return np.array([r in singletons for r in rho.tolist()])


def scalar_draw_clean(
    pools: list[np.ndarray], count: int, rng: np.random.Generator
) -> np.ndarray:
    """The category-balanced clean draw, one sample at a time: pick `count`
    categories among those with a non-empty pool (distinct unless there are
    fewer such categories than `count`), then one uniform sample from each
    picked category's pool with its own ``rng.integers`` call."""
    cats = np.array([c for c, pool in enumerate(pools) if pool.size], dtype=np.int64)
    picked = rng.choice(cats, size=count, replace=cats.size < count)
    out = np.empty(count, dtype=np.int64)
    for i, c in enumerate(picked):
        pool = pools[c]
        out[i] = pool[rng.integers(0, pool.size)]
    return out


def optimal_kmeans_1d(values: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """Exact 1-D k-means by dynamic programming over sorted values.

    Returns (levels, wcss): levels are cluster indices ordered by ascending
    cluster mean, mapped back to the original sample order.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    order = np.argsort(values, kind="stable")
    v = values[order]
    prefix = np.concatenate([[0.0], np.cumsum(v)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(v * v)])

    def cost(i: int, j: int) -> float:
        # WCSS of v[i..j] inclusive.
        m = j - i + 1
        s = prefix[j + 1] - prefix[i]
        sq = prefix_sq[j + 1] - prefix_sq[i]
        return sq - s * s / m

    k = min(k, n)
    best = np.full((k + 1, n + 1), np.inf)
    split = np.zeros((k + 1, n + 1), dtype=np.int64)
    best[0, 0] = 0.0
    for m in range(1, k + 1):
        for j in range(m, n + 1):
            for t in range(m - 1, j):
                c = best[m - 1, t] + cost(t, j - 1)
                if c < best[m, j]:
                    best[m, j] = c
                    split[m, j] = t
    bounds = []
    j = n
    for m in range(k, 0, -1):
        t = split[m, j]
        bounds.append((t, j))
        j = t
    bounds.reverse()
    levels_sorted = np.zeros(n, dtype=np.int64)
    for level, (lo, hi) in enumerate(bounds):
        levels_sorted[lo:hi] = level
    levels = np.zeros(n, dtype=np.int64)
    levels[order] = levels_sorted
    return levels, float(best[k, n])


def wcss_of(values: np.ndarray, levels: np.ndarray) -> float:
    values = np.asarray(values, dtype=np.float64)
    total = 0.0
    for lv in np.unique(levels):
        member = values[levels == lv]
        total += float(((member - member.mean()) ** 2).sum())
    return total


def finite_diff_grad(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central finite differences of a scalar function, component by component."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    xf = x.ravel()
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + h
        f_plus = f(x)
        xf[i] = orig - h
        f_minus = f(x)
        xf[i] = orig
        flat[i] = (f_plus - f_minus) / (2 * h)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


# The trainer's kernels as plain allocating numpy expressions; the library
# computes the same operations in place and must give the same bits.

def alloc_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def alloc_weighted_ce_loss(
    logits: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> tuple[float, np.ndarray]:
    b = logits.shape[0]
    probs = alloc_softmax(logits)
    picked = probs[np.arange(b), labels]
    loss = float((-weights * np.log(np.maximum(picked, 1e-12))).sum() / b)
    grad = probs * weights[:, None]
    grad[np.arange(b), labels] -= weights
    return loss, grad / b


def alloc_logits(arch: str, params: dict, z: np.ndarray) -> np.ndarray:
    if arch == "linear":
        return z @ params["W"] + params["b"]
    hidden = np.maximum(z @ params["W1"] + params["b1"], 0.0)
    return hidden @ params["W2"] + params["b2"]


def alloc_loss_and_grads(
    arch: str, params: dict, z: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> tuple[float, dict]:
    if arch == "linear":
        loss, g = alloc_weighted_ce_loss(alloc_logits(arch, params, z), labels, weights)
        return loss, {"W": z.T @ g, "b": g.sum(axis=0)}
    pre = z @ params["W1"] + params["b1"]
    hidden = np.maximum(pre, 0.0)
    logits = hidden @ params["W2"] + params["b2"]
    loss, g = alloc_weighted_ce_loss(logits, labels, weights)
    g_hidden = (g @ params["W2"].T) * (pre > 0.0)
    return loss, {
        "W1": z.T @ g_hidden,
        "b1": g_hidden.sum(axis=0),
        "W2": hidden.T @ g,
        "b2": g.sum(axis=0),
    }


def branch_initialize(
    arch: str,
    input_dim: int,
    n_classes: int,
    rng: np.random.Generator,
    hidden_dim: int = 32,
    train_features: np.ndarray | None = None,
) -> ClassifierModel:
    """ClassifierModel.initialize written as one branch per architecture,
    which fixes the order its weights are drawn in."""
    _check_model(arch, hidden_dim)
    def gauss(fan_in: int, shape) -> np.ndarray:
        return rng.standard_normal(shape) * math.sqrt(2.0 / fan_in)
    if arch == "linear":
        params = {
            "W": gauss(input_dim, (input_dim, n_classes)),
            "b": np.zeros(n_classes),
        }
    else:
        params = {
            "W1": gauss(input_dim, (input_dim, hidden_dim)),
            "b1": np.zeros(hidden_dim),
            "W2": gauss(hidden_dim, (hidden_dim, n_classes)),
            "b2": np.zeros(n_classes),
        }
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


def alloc_momentum_step(
    params: dict, velocity: dict, grads: dict, lr: float,
    momentum: float = 0.9, weight_decay: float = 1e-4,
) -> None:
    """One SGD step with momentum and weight decay, name by name, in place
    on `params` and `velocity`."""
    for name in sorted(params):
        g = grads[name] + weight_decay * params[name]
        v = velocity[name]
        v *= momentum
        v -= lr * g
        params[name] += v


class _Cursor:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def read(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise DatasetError(f"truncated file while reading {what}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.read(4, what))[0]

    def string(self, what: str) -> str:
        length = self.u32(what + " length")
        raw = self.read(length, what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DatasetError(f"invalid UTF-8 in {what}") from exc


def cursor_features(data: bytes) -> FeatureSet:
    """The binary feature file `data`, read one field at a time; each error
    names the field and row it stops at."""
    cur = _Cursor(data)
    if cur.read(4, "magic") != MAGIC:
        raise DatasetError("bad magic bytes: not a CRFS feature file")
    version = cur.u32("version")
    if version != BINARY_VERSION:
        raise DatasetError(f"unsupported feature file version {version}")
    n = cur.u32("sample count")
    d = cur.u32("feature dimension")
    c = cur.u32("category count")
    if n < 1 or d < 1 or c < 1:
        raise DatasetError(f"invalid header counts N={n} d={d} C={c}")
    names = tuple(cur.string(f"category name {i}") for i in range(c))
    # Each record holds at least an id length, a label and d floats.
    needed = n * (8 + 4 * d)
    if needed > len(data) - cur.pos:
        raise DatasetError(
            f"truncated file: N={n} records at d={d} need at least {needed} bytes, "
            f"{len(data) - cur.pos} remain"
        )
    return FeatureSet(*_cursor_records(cur, n, d), category_names=names)


def _cursor_records(
    cur: _Cursor, n: int, d: int
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """(features, labels, ids) of the N records at the cursor, read one field
    at a time; each error names the field and row it stops at."""
    ids = []
    labels = np.empty(n, dtype=np.int64)
    features = np.empty((n, d), dtype=np.float32)
    for i in range(n):
        ids.append(cur.string(f"sample id at row {i}"))
        labels[i] = cur.u32(f"label at row {i}")
        raw = cur.read(4 * d, f"features at row {i}")
        features[i] = np.frombuffer(raw, dtype="<f4")
    if cur.pos != len(cur.data):
        raise DatasetError(f"{len(cur.data) - cur.pos} trailing bytes after row {n - 1}")
    return features, labels, tuple(ids)


def mask_accuracies(labels: np.ndarray, miss1: np.ndarray, missk: np.ndarray,
                    c: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-category (top-1, top-k) accuracies from the per-row misses, one
    mask and mean per category; nan for a category absent from `labels`."""
    acc1 = np.full(c, math.nan)
    acck = np.full(c, math.nan)
    for cat in range(c):
        mask = labels == cat
        if mask.any():
            acc1[cat] = float((~miss1[mask]).mean())
            acck[cat] = float((~missk[mask]).mean())
    return acc1, acck


def mask_correct_rates(categories: np.ndarray, wrong: np.ndarray,
                       n_categories: int) -> np.ndarray:
    """Per-category fraction of rows not marked `wrong`, one mask and mean
    per category; the mean of an empty category is numpy's nan."""
    out = np.empty(n_categories, dtype=np.float64)
    for c in range(n_categories):
        mask = categories == c
        out[c] = 1.0 - wrong[mask].mean()
    return out


def mask_noise_rates(levels: np.ndarray, wrong: np.ndarray, n_subsets: int
                     ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[float, ...], float]:
    """Per-level sizes, mislabeled counts and rates, one mask per level, and
    the overall rate over all rows; a level outside [0, n_subsets) counts
    toward no level, and an empty level's rate is nan."""
    sizes, bad, rates = [], [], []
    for level in range(n_subsets):
        mask = levels == level
        size = int(mask.sum())
        mis = int(wrong[mask].sum())
        sizes.append(size)
        bad.append(mis)
        rates.append(mis / size if size else math.nan)
    return tuple(sizes), tuple(bad), tuple(rates), sum(bad) / len(levels)


def loop_rate_intervals(correct_rates: np.ndarray, gains: np.ndarray
                        ) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Ten-bin histogram of correct rates in [0, 1] (1.0 in the top bin) and
    each bin's mean finite gain, nan where there is none; one category at a
    time, each bin's gains added in category order from 0.0."""
    histogram = [0] * 10
    bin_gains: list[list[float]] = [[] for _ in range(10)]
    for cat in range(len(correct_rates)):
        rate = float(correct_rates[cat])
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"correct rate {rate} outside [0, 1]")
        b = min(int(rate * 10), 9)
        histogram[b] += 1
        if math.isfinite(gains[cat]):
            bin_gains[b].append(float(gains[cat]))
    means = []
    for g in bin_gains:
        total = 0.0
        for x in g:
            total += x
        means.append(total / len(g) if g else math.nan)
    return tuple(histogram), tuple(means)


# Test-only helpers over library types and kernels.

def weighted_ce_loss(
    logits: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> tuple[float, np.ndarray]:
    """The trainer's weighted cross-entropy and its gradient, leaving
    `logits` alone."""
    return _weighted_ce_(np.array(logits, dtype=np.float64), labels, weights)


def reference_from_truth(fs, truth) -> dict[str, int]:
    """Each sample id of `fs` with its true label from `truth`."""
    return {sid: int(t) for sid, t in zip(fs.sample_ids, truth.true_labels)}


def index_of(fs) -> dict[str, int]:
    """Each sample id of `fs` with its row."""
    return {sid: i for i, sid in enumerate(fs.sample_ids)}


def categories_json(cd) -> str:
    """The ``"categories"`` list of a curriculum file's text, written one
    category at a time over ``np.flatnonzero``; the first value that is not
    finite, in the order written, raises ValueError naming it."""
    def number(x) -> str:
        if not math.isfinite(x):
            raise ValueError(f"cannot serialize non-finite value {x!r}")
        return format(float(x), ".9g")

    out = []
    for c in range(len(cd.center_ids)):
        samples = ", ".join(
            '{"id": %s, "level": %d, "dist": %s}'
            % (json.dumps(cd.sample_ids[i]), cd.levels[i], number(cd.dist_to_center[i]))
            for i in np.flatnonzero(cd.categories == c)
        )
        out.append('{"category_id": %d, "center_id": %s, "d_c": %s, "samples": [%s]}'
                   % (c, json.dumps(cd.center_ids[c]), number(cd.d_c[c]), samples))
    return '"categories": [' + ", ".join(out) + "]}"
