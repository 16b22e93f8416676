"""Density-peak statistics for one category's feature vectors.

All distances are squared Euclidean and stay in squared units throughout
(cutoff, local density and peak separation all use the same convention, so
every ordering is preserved). The functions are pure; categories can be
processed in parallel by callers. Each exact distance is a sequential sum
of squared per-dimension differences in dimension order, so results are
bitwise independent of any scheduling.

``distance_matrix``, ``cutoff_dc``, ``local_density`` and
``delta_and_center`` are the reference definitions. ``density_profile``
returns what they compose to, bit for bit, without building the matrix: it
streams row blocks, so its memory grows linearly in the category size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_K_PERCENT = 60.0

# The most memory one category's density statistics may take: 8 n^2 bytes
# for ``distance_matrix``, the streamed working set (``_profile_bytes``) for
# ``density_profile``. 2 GiB allows 16,384 samples per matrix and about
# 144,000 samples of 64 features per density design.
MAX_MATRIX_BYTES = 2 * 1024**3

# Rows per block of every n x n pass.
_ROW_BLOCK = 128

# Candidate pairs the cutoff selection may keep, per sample: one row
# block's worth.
_KEEP_PER_SAMPLE = _ROW_BLOCK

# Pairs per chunk of ``_exact_distances``.
_PAIR_CHUNK = 4096

# Unit roundoff of float64.
_U = 2.0**-53


@dataclass(frozen=True)
class DensityProfile:
    """Per-sample density statistics for one category.

    rho[i] counts neighbors strictly within the cutoff d_c (self excluded).
    The center is the sample of maximal peak separation, as
    ``delta_and_center`` defines it, and center_dist[i] is the squared
    distance from sample i to it.
    """

    rho: np.ndarray
    d_c: float
    center: int
    center_dist: np.ndarray


def _profile_bytes(n: int, d: int) -> int:
    """An upper bound on ``density_profile``'s working set for n samples of
    d features, bar the band: three n x d float64 copies of the features,
    a few float64 vectors of n, 64 bytes per element of one row block (the
    approximations, their histogram bins and a refinement pass's key
    temporaries, or the last pass's masks) and 40 bytes per candidate pair
    of ``_select`` (index and value, gathered, joined and partitioned). The
    passes do not overlap, which leaves room for a small category's cached
    blocks."""
    block = min(_ROW_BLOCK, n)
    return 8 * n * (3 * d + 8 + 8 * block + 5 * _KEEP_PER_SAMPLE)


def _checked_features(features: np.ndarray, need, what: str) -> np.ndarray:
    """The (n, d) features as float64, once their shape, the memory budget
    (`need(n, d)` bytes for the caller's `what`) and their finiteness are
    checked."""
    feats = np.asarray(features)
    if feats.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    n, d = feats.shape
    if n < 1:
        raise ValueError("need at least one sample")
    needed = need(n, d)
    if needed > MAX_MATRIX_BYTES:
        raise ValueError(
            f"a category of {n} samples needs {needed} bytes for its {what}, "
            f"over the budget of {MAX_MATRIX_BYTES} bytes")
    feats = feats.astype(np.float64, copy=False)
    if not np.isfinite(feats).all():
        raise ValueError("non-finite feature value")
    return feats


def distance_matrix(features: np.ndarray) -> np.ndarray:
    """All-pairs squared Euclidean distances, (n, n) float64.

    Exactly symmetric with a zero diagonal, and equal bit for bit to a naive
    loop: each entry is ``_exact_distances``'s sequential sum of squared
    per-dimension differences, accumulated in dimension order. The rows are
    computed in blocks of ``_ROW_BLOCK``; a block starting at row i0 covers
    only the columns from i0 on (the upper triangle and the block's own
    diagonal square) and is written to its rows and, transposed, to its
    columns. Peak memory is the n^2 output plus a few block-sized index and
    value arrays. A matrix larger than ``MAX_MATRIX_BYTES`` raises
    ValueError before anything is allocated.
    """
    feats = _checked_features(features, lambda n, d: 8 * n * n, "distance matrix")
    n = feats.shape[0]
    cols = np.ascontiguousarray(feats.T)
    d2 = np.empty((n, n), dtype=np.float64)
    for i0, i1, _ in _row_blocks(n):
        block = _exact_distances(cols, np.arange(i0, i1)[:, None], np.arange(i0, n))
        d2[i0:i1, i0:] = block
        d2[i0:, i0:i1] = block.T
    return d2


def _cutoff_rank(n: int, k_percent: float) -> int:
    """Zero-based rank of the cutoff among all n^2 matrix entries."""
    if not 0.0 < k_percent < 100.0:
        raise ValueError("k_percent must be in (0, 100)")
    n_sq = n * n
    return min(int(math.floor(k_percent * n_sq / 100.0)), n_sq - 1)


def _row_blocks(n: int):
    """(i0, i1, above) for each block of ``_ROW_BLOCK`` rows; `above` masks
    the strict upper triangle of the block's diagonal square."""
    block = min(_ROW_BLOCK, n)
    cols = np.arange(block)
    above = cols[:, None] < cols
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        yield i0, i1, above[: i1 - i0, : i1 - i0]


def _keys(a: np.ndarray) -> np.ndarray:
    """Order-preserving int64 keys of float64 values: the bit pattern, with
    the low 63 bits flipped for a negative value. Keys order every non-NaN
    value like ``<`` does, with -0.0 just below +0.0."""
    k = a.view(np.int64)
    return k ^ ((k >> 63) & 0x7FFF_FFFF_FFFF_FFFF)


def _key(x: float) -> int:
    """The key of one value."""
    return int(_keys(np.array(x, dtype=np.float64)))


def _value(key: int) -> float:
    """The float64 value of a key; the key map is its own inverse."""
    return float(_keys(np.array(key, dtype=np.int64).view(np.float64)).view(np.float64))


def _bins(a: np.ndarray, shift: int, base: int, nb: int, out: np.ndarray) -> np.ndarray:
    """The histogram bin of each value of `a`, written to `out` (int64, a's
    shape): bin j + 1 for a key k with ``(k >> shift) - base == j`` in
    [0, nb), bin 0 below that and bin nb + 1 above. When ``base >= 0`` every
    negative value lands in bin 0 whatever its key, so the raw bit pattern
    serves and saves the key's three passes. The shifted keys are clipped
    before the subtraction, which would overflow int64 at shift 0."""
    k = _keys(a) if base < 0 else a.view(np.int64)
    np.right_shift(k, shift, out=out)
    np.maximum(out, base - 1, out=out)
    np.minimum(out, base + nb, out=out)
    return np.subtract(out, base - 1, out=out)


def _histogram(n: int, block_of, shift: int, base: int, nb: int, with_keys: bool):
    """One pass of ``_select``: the count of strict upper-triangle pairs in
    each bin 0..nb + 1 of ``_bins``, and with `with_keys` the smallest and
    largest key in bins 1..nb (None if there is none)."""
    hist = np.zeros(nb + 3, dtype=np.int64)
    lows, highs = [], []
    buf = np.empty(min(_ROW_BLOCK, n) * n, dtype=np.int64)
    for i0, i1, above in _row_blocks(n):
        a = block_of(i0, i1)
        bins = _bins(a, shift, base, nb, buf[:a.size].reshape(a.shape))
        bins[:, :i1 - i0][~above] = nb + 2  # not in the strict upper triangle
        hist += np.bincount(bins.ravel(), minlength=nb + 3)
        if with_keys:
            keys = _keys(a[(bins >= 1) & (bins <= nb)])
            if keys.size:
                lows.append(int(keys.min()))
                highs.append(int(keys.max()))
        del a  # before the next block is computed
    return hist[:nb + 2], (min(lows), max(highs)) if lows else None


def _select(n: int, block_of, rank: int, eps: float, bottom: float, top: float,
            rho: np.ndarray):
    """The value of rank `rank` among the strict upper triangle of an n x n
    matrix, streamed from its row blocks: ``block_of(i0, i1)`` returns rows
    i0:i1, columns i0: on, each value in [bottom, top].

    Histogram passes narrow a window [lo, hi] of keys (``_keys``) that holds
    the rank's value, until at most ``_KEEP_PER_SAMPLE * n`` pairs fall into
    its bin or it holds one key. The first pass bins the 32 octaves below
    `top` at 2^m bins per octave, m growing with n, and gathers every
    smaller key in one bin. A further pass tiles the window in as many bins
    and narrows it to the smallest and largest key it saw there, so a window
    of one repeated value ends the passes. The last pass adds to `rho`, for
    both samples, every pair below the window's lowest value less 2 `eps`
    and keeps the pairs up to its highest value plus 2 `eps` (NaN included).
    Every pair left out lies strictly on its side of the rank's value, so
    that value is an order statistic of the kept ones. Returns it, the kept
    pairs as flat indices i * n + j and their values. With an infinite
    `eps` every pair is kept.
    """
    budget = _KEEP_PER_SAMPLE * n
    count = n * (n - 1) // 2
    lo, hi = _key(bottom), _key(top)
    sub_bits = max(0, n.bit_length() - 4)
    nb = 32 << sub_bits
    shift = 52 - sub_bits
    first = True
    while math.isfinite(eps) and count > budget and lo < hi:
        if first:
            base = max(lo >> shift, (hi >> shift) - nb + 1)
        else:
            shift = 0
            while (hi >> shift) - (lo >> shift) >= nb:
                shift += 1
            base = lo >> shift
        hist, keys = _histogram(n, block_of, shift, base, nb, with_keys=not first)
        j = int(np.searchsorted(np.cumsum(hist), rank, side="right"))
        count = int(hist[j])
        if j == 0:
            hi = (base << shift) - 1
        else:
            lo = max(lo, (base + j - 1) << shift)
            hi = min(hi, ((base + j) << shift) - 1)
        if keys is not None:
            lo, hi = max(lo, keys[0]), min(hi, keys[1])
        first = False
    floor, ceiling = (_value(lo), _value(hi)) if math.isfinite(eps) else (-math.inf, math.inf)
    low, high = floor - 2.0 * eps, ceiling + 2.0 * eps
    kept_flat, kept_vals = [], []
    for i0, i1, above in _row_blocks(n):
        rows = i1 - i0
        a = block_of(i0, i1)
        below = a < low
        keep = np.greater(a, high)
        keep |= below
        np.logical_not(keep, out=keep)
        below[:, :rows] &= above
        keep[:, :rows] &= above
        ones = below.view(np.uint8)
        rho[i0:i1] += np.add.reduce(ones, axis=1, dtype=np.int32)
        rho[i0:] += np.add.reduce(ones, axis=0, dtype=np.int32)
        flat = np.flatnonzero(keep)
        row, col = np.divmod(flat, n - i0)
        kept_flat.append((row + i0) * n + (col + i0))
        kept_vals.append(a[keep])
        del a  # before the next block is computed
    kept_flat = np.concatenate(kept_flat)
    kept_vals = np.concatenate(kept_vals)
    r = rank - int(rho.sum()) // 2  # each pair below counts twice
    t = float(np.partition(kept_vals, r)[r]) if 0 <= r < kept_vals.size else math.nan
    if math.isfinite(eps) and not floor <= t <= ceiling:
        raise RuntimeError("cutoff selection lost its rank")
    return t, kept_flat, kept_vals


def cutoff_dc(d2: np.ndarray, k_percent: float = DEFAULT_K_PERCENT) -> float:
    """Cutoff distance: the k-percent rank among all n^2 matrix entries.

    Of all n^2 entries, diagonal zeros included, in ascending order, the one
    at zero-based index floor(k_percent/100 * n^2) is returned (clamped to
    the last entry). Monotone non-decreasing in k_percent.

    `d2` must be symmetric with a zero diagonal and no negative entry, as
    ``distance_matrix`` returns it. Then the sorted entries are the n
    diagonal zeros followed by each strict upper-triangle value twice, so
    ranks below n are 0.0 and rank r >= n is the upper-triangle value of rank
    (r - n) // 2. ``_select`` finds that value from the rows in blocks of
    ``_ROW_BLOCK``, keeping about one block's worth of candidates.
    """
    d2 = np.asarray(d2, dtype=np.float64)
    n = d2.shape[0]
    idx = _cutoff_rank(n, k_percent)
    if idx < n:
        return 0.0
    rank = (idx - n) // 2
    t, _, _ = _select(n, lambda i0, i1: d2[i0:i1, i0:], rank, 0.0, 0.0,
                      float(d2.max()), np.zeros(n, dtype=np.int64))
    return t


def local_density(d2: np.ndarray, d_c: float) -> np.ndarray:
    """rho[i] = number of other samples j with d2[i, j] strictly below d_c."""
    if d_c < 0:
        raise ValueError("d_c must be non-negative")
    within = np.asarray(d2) < d_c
    np.fill_diagonal(within, False)
    return within.sum(axis=1).astype(np.int64)


def delta_and_center(
    d2: np.ndarray, rho: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Peak-separation distances and the category center.

    Samples are ordered by rho descending, index ascending. The first sample
    takes delta = max of its distance row and nearest_higher = -1; every
    other sample takes the minimum distance to any earlier-ordered sample
    (first such sample on ties) as delta, with that sample as
    nearest_higher. With strictly distinct rho values this is the classic
    rule "nearest neighbor of higher density"; the ordering only adds a
    deterministic resolution at rho ties. Returns (delta, nearest_higher,
    center) where center = argmax(delta), ties to the smaller index.
    """
    d2 = np.asarray(d2, dtype=np.float64)
    rho = np.asarray(rho)
    n = d2.shape[0]
    if rho.shape != (n,):
        raise ValueError("rho length does not match the distance matrix")
    ordering = np.argsort(-rho, kind="stable")
    delta = np.empty(n, dtype=np.float64)
    nearest = np.full(n, -1, dtype=np.int64)
    first = ordering[0]
    delta[first] = d2[first].max()
    for pos in range(1, n):
        i = ordering[pos]
        earlier = ordering[:pos]
        dists = d2[i, earlier]
        best = int(np.argmin(dists))
        delta[i] = dists[best]
        nearest[i] = earlier[best]
    center = int(np.argmax(delta))
    return delta, nearest, center


def _exact_distances(cols: np.ndarray, i, j) -> np.ndarray:
    """Squared distances between samples i and j (index arrays or scalars,
    broadcast together) from the (d, n) transposed features. Each is the
    sequential sum of squared per-dimension differences in dimension order,
    the value ``distance_matrix`` holds at [i, j]."""
    i, j = np.broadcast_arrays(i, j)
    out = np.zeros(i.shape, dtype=np.float64)
    i, j, flat = i.ravel(), j.ravel(), out.reshape(-1)
    for c0 in range(0, i.size, _PAIR_CHUNK):
        ii, jj = i[c0:c0 + _PAIR_CHUNK], j[c0:c0 + _PAIR_CHUNK]
        acc = flat[c0:c0 + _PAIR_CHUNK]
        for col in cols:
            diff = col[ii] - col[jj]
            diff *= diff
            acc += diff
    return out


def _gram_error_bound(big: float, d: int) -> float:
    """A bound on |a - e| over all pairs, for the Gram-product approximation
    a of ``density_profile`` and the exact value e of ``distance_matrix``.

    For rows i, j of the float64 features x, let D be the real squared
    distance, mu the computed column mean (any float vector: D does not
    depend on it), z = x - mu in real arithmetic, y = fl(z) the centered
    rows, s_i the computed |y_i|^2, G_ij the computed y_i . y_j and
    ``big`` = M = max_i s_i. With u = 2^-53 and gamma_k = k u / (1 - k u),
    to first order in u:

    - centering: |y - z| <= u |z| entrywise, so
      |(|y_i - y_j|) - sqrt(D)| <= u (|z_i| + |z_j|) <= 2 u sqrt(M); both
      square roots are at most 2 sqrt(M), so D_y = |y_i - y_j|^2 is within
      8 u M of D;
    - norms and Gram product: in any summation order, blocked or fused,
      |s_i - |y_i|^2| <= gamma_d M and |G_ij - y_i . y_j| <= gamma_d M; the
      factor -2 is exact;
    - a = (-2 G_ij + s_i) + s_j: the two sums round by at most 3 u M and
      4 u M, so |a - D_y| <= 4 gamma_d M + 7 u M;
    - e sums d non-negative rounded squares of rounded differences in
      sequence, so |e - D| <= gamma_{d+2} D <= 4 gamma_{d+2} M.

    Altogether |a - e| <= 8 gamma_{d+2} M + 15 u M. The bound returned,
    32 gamma_{d+4} M + 64 u M + 1e-300, is at least four times that, which
    also absorbs the rounding of the margins t -/+ 2 eps; the absolute term
    covers gradual underflow (about 4d products per pair, each off by at
    most 2^-1075). If 8 M is not finite, some intermediate may overflow:
    the bound is then infinite and every pair is re-checked exactly.
    """
    if not math.isfinite(8.0 * big):
        return math.inf
    gamma = (d + 4) * _U / (1.0 - (d + 4) * _U)
    return 32.0 * gamma * big + 64.0 * _U * big + 1e-300


def _center(cols: np.ndarray, rho: np.ndarray) -> tuple[int, np.ndarray]:
    """``delta_and_center``'s center and its exact distance row.

    The first sample in the (rho descending, index ascending) order takes
    delta = m, the maximum of its row; every other sample's delta is at most
    its distance to that first sample, so at most m. The center is then the
    first sample, unless a smaller index has delta exactly m, which needs
    its distance to the first sample to be m. Only those rows are checked.
    """
    everyone = np.arange(rho.size)
    first = int(np.argmax(rho))
    row = _exact_distances(cols, first, everyone)
    m = row.max()
    for i in np.flatnonzero(row[:first] == m):
        row_i = _exact_distances(cols, i, everyone)
        earlier = (rho > rho[i]) | ((rho == rho[i]) & (everyone < i))
        if row_i[earlier].min() == m:
            return int(i), row_i
    return first, row


def density_profile(
    features: np.ndarray, k_percent: float = DEFAULT_K_PERCENT
) -> DensityProfile:
    """Cutoff, rho and center for one category, without the n x n matrix.

    ``d_c``, ``rho``, ``center`` and ``center_dist`` are bit for bit what
    ``distance_matrix``, ``cutoff_dc``, ``local_density`` and
    ``delta_and_center`` give. Every pair distance is first approximated by
    a = |y_i|^2 + |y_j|^2 - 2 y_i . y_j on the centered rows y, one BLAS
    Gram product per block of ``_ROW_BLOCK`` rows over the upper triangle,
    and each approximation is within ``eps`` (``_gram_error_bound``) of the
    exact value e. Then:

    1. ``_select`` streams the blocks, recomputed on each pass, to find t,
       the approximation of upper-triangle rank r, counts in rho every
       pair far below t and keeps the pairs near it, about one block's
       worth. The exact d_c lies in [t - eps, t + eps].
    2. A kept pair with a < t - 2 eps has e < d_c and is counted in rho for
       both of its samples; one with a > t + 2 eps has e > d_c. The others
       (NaN included) form the band, which holds every e in
       [t - eps, t + eps]; their exact values give d_c, the band value of
       rank r less the number of pairs below, and add to rho where e < d_c.

    The center comes from exact rows (``_center``). Memory grows linearly
    in n: ``_profile_bytes`` bounds it and is checked against
    ``MAX_MATRIX_BYTES``. Only the band adds to it, which stays small unless
    many pairs tie at the cutoff. A category whose blocks fit in the
    candidates' bytes computes each block once and keeps it.
    """
    feats = _checked_features(features, _profile_bytes, "density design")
    n, d = feats.shape
    idx = _cutoff_rank(n, k_percent)
    cols = np.ascontiguousarray(feats.T)
    rho = np.zeros(n, dtype=np.int64)
    d_c = 0.0
    if idx >= n:
        with np.errstate(over="ignore", invalid="ignore"):
            y = feats - feats.mean(axis=0)
            sq = np.einsum("ij,ij->i", y, y)
        big = float(sq.max())
        eps = _gram_error_bound(big, d)

        def approx(i0: int, i1: int) -> np.ndarray:
            with np.errstate(over="ignore", invalid="ignore"):
                a = y[i0:i1] @ y[i0:].T
                a *= -2.0
                a += sq[i0:i1, None]
                a += sq[i0:]
            return a

        # The blocks take at most 4 n (n + _ROW_BLOCK) bytes; when that fits
        # in the candidates' 16 bytes per pair, each is computed once.
        if 4 * n * (n + _ROW_BLOCK) <= 16 * _KEEP_PER_SAMPLE * n:
            approx = functools.cache(approx)
        rank = (idx - n) // 2
        # e >= 0, e <= 4 big up to rounding, and |a - e| <= eps / 4, so every
        # approximation lies in [-eps, 4 big + eps].
        t, kept, vals = _select(n, approx, rank, eps, -eps, 4.0 * big + eps, rho)
        lo, hi = t - 2.0 * eps, t + 2.0 * eps
        below = vals < lo
        band = ~(below | (vals > hi))
        for ends in np.divmod(kept[below], n):
            rho += np.bincount(ends, minlength=n)
        band_i, band_j = np.divmod(kept[band], n)
        exact = _exact_distances(cols, band_i, band_j)
        band_rank = rank - int(rho.sum()) // 2  # each pair below counts twice
        d_c = float(np.partition(exact, band_rank)[band_rank])
        inside = exact < d_c
        rho += np.bincount(band_i[inside], minlength=n)
        rho += np.bincount(band_j[inside], minlength=n)
    center, center_dist = _center(cols, rho)
    return DensityProfile(
        rho=rho,
        d_c=d_c,
        center=center,
        center_dist=center_dist,
    )
