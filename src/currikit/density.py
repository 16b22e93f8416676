"""Density-peak statistics for one category's feature vectors.

All distances are squared Euclidean and stay in squared units throughout
(cutoff, local density and peak separation all use the same convention, so
every ordering is preserved). The functions are pure; categories can be
processed in parallel by callers. Each exact distance is a sequential sum
of squared per-dimension differences in dimension order, so results are
bitwise independent of any scheduling.

``distance_matrix``, ``cutoff_dc``, ``local_density`` and
``delta_and_center`` are the reference definitions. ``density_profile``
returns what they compose to, bit for bit, without building the matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_K_PERCENT = 60.0

# The largest distance matrix one category may need: 8 * n^2 bytes for n
# samples, so 2 GiB allows up to 16384 samples per category.
MAX_MATRIX_BYTES = 2 * 1024**3

# Rows per block of every n x n pass.
_ROW_BLOCK = 128

# Pairs per chunk of exact re-checks.
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
    k_percent: float
    center: int
    center_dist: np.ndarray


def _checked_features(features: np.ndarray) -> np.ndarray:
    """The (n, d) features as float64, once their shape, the matrix budget
    and their finiteness are checked."""
    feats = np.asarray(features)
    if feats.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    n = feats.shape[0]
    if n < 1:
        raise ValueError("need at least one sample")
    needed = 8 * n * n
    if needed > MAX_MATRIX_BYTES:
        raise ValueError(
            f"a category of {n} samples needs {needed} bytes for its distance "
            f"matrix, over the budget of {MAX_MATRIX_BYTES} bytes")
    feats = feats.astype(np.float64, copy=False)
    if not np.isfinite(feats).all():
        raise ValueError("non-finite feature value")
    return feats


def distance_matrix(features: np.ndarray) -> np.ndarray:
    """All-pairs squared Euclidean distances, (n, n) float64.

    Exactly symmetric with a zero diagonal, and equal bit for bit to a naive
    loop: each entry is a sequential sum of squared per-dimension
    differences, accumulated in dimension order. The rows are computed in
    blocks of ``_ROW_BLOCK``; a block starting at row i0 covers only the
    columns from i0 on (the upper triangle and the block's own diagonal
    square) and is written to its rows and, transposed, to its columns.
    Peak memory is the n^2 output plus two reused block buffers of
    ``_ROW_BLOCK`` x n float64 each. A matrix larger than
    ``MAX_MATRIX_BYTES`` raises ValueError before anything is allocated.
    """
    feats = _checked_features(features)
    n = feats.shape[0]
    cols = np.ascontiguousarray(feats.T)
    d2 = np.empty((n, n), dtype=np.float64)
    block = min(_ROW_BLOCK, n)
    diff_buf = np.empty(block * n, dtype=np.float64)
    acc_buf = np.empty(block * n, dtype=np.float64)
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        shape = (i1 - i0, n - i0)
        diff = diff_buf[: shape[0] * shape[1]].reshape(shape)
        acc = acc_buf[: shape[0] * shape[1]].reshape(shape)
        acc.fill(0.0)
        for col in cols:
            np.subtract(col[i0:i1, None], col[None, i0:], out=diff)
            np.multiply(diff, diff, out=diff)
            np.add(acc, diff, out=acc)
        d2[i0:i1, i0:] = acc
        d2[i0:, i0:i1] = acc.T
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


def _condensed_upper(n: int, block_of) -> np.ndarray:
    """The strict upper triangle of an n x n matrix as one vector, from its
    row blocks: ``block_of(i0, i1)`` returns rows i0:i1, columns i0: on.
    Per block, the triangle of the diagonal square comes first, then the
    rectangle right of it."""
    upper = np.empty(n * (n - 1) // 2, dtype=np.float64)
    start = 0
    for i0, i1, above in _row_blocks(n):
        rows = i1 - i0
        blk = block_of(i0, i1)
        square = blk[:, :rows][above]
        upper[start:start + square.size] = square
        start += square.size
        stop = start + rows * (n - i1)
        upper[start:stop].reshape(rows, n - i1)[...] = blk[:, rows:]
        start = stop
    return upper


def cutoff_dc(d2: np.ndarray, k_percent: float = DEFAULT_K_PERCENT) -> float:
    """Cutoff distance: the k-percent rank among all n^2 matrix entries.

    Of all n^2 entries, diagonal zeros included, in ascending order, the one
    at zero-based index floor(k_percent/100 * n^2) is returned (clamped to
    the last entry). Monotone non-decreasing in k_percent.

    `d2` must be symmetric with a zero diagonal and no negative entry, as
    ``distance_matrix`` returns it. Then the sorted entries are the n
    diagonal zeros followed by each strict upper-triangle value twice, so
    ranks below n are 0.0 and rank r >= n is the upper-triangle value of rank
    (r - n) // 2. That value is found by partitioning a copy of the upper
    triangle alone, about half the matrix, in place. The copy goes in blocks
    of ``_ROW_BLOCK`` rows: the strict upper triangle of the block's diagonal
    square, then the rectangle right of it.
    """
    d2 = np.asarray(d2, dtype=np.float64)
    n = d2.shape[0]
    idx = _cutoff_rank(n, k_percent)
    if idx < n:
        return 0.0
    upper = _condensed_upper(n, lambda i0, i1: d2[i0:i1, i0:])
    rank = (idx - n) // 2
    upper.partition(rank)
    return float(upper[rank])


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
    for c0 in range(0, i.size, _PAIR_CHUNK):
        ii, jj = i[c0:c0 + _PAIR_CHUNK], j[c0:c0 + _PAIR_CHUNK]
        acc = out[c0:c0 + _PAIR_CHUNK]
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
    exact value e. Two passes over recomputed blocks follow:

    1. The strict upper triangle of the approximations is partitioned at
       the cutoff's upper-triangle rank r, giving t. The exact d_c lies in
       [t - eps, t + eps].
    2. A pair with a < t - 2 eps has e < d_c and is counted in rho for both
       of its samples; one with a > t + 2 eps has e > d_c. The others (NaN
       included) form the band, which holds every e in [t - eps, t + eps];
       their exact values give d_c, the band value of rank r less the
       number of pairs below, and add to rho where e < d_c.

    The center comes from exact rows (``_center``). Memory: the condensed
    approximate triangle, 4 n (n - 1) bytes, plus row blocks and the band;
    the ``MAX_MATRIX_BYTES`` check is the one ``distance_matrix`` makes.
    """
    feats = _checked_features(features)
    n, d = feats.shape
    idx = _cutoff_rank(n, k_percent)
    cols = np.ascontiguousarray(feats.T)
    rho = np.zeros(n, dtype=np.int64)
    d_c = 0.0
    if idx >= n:
        with np.errstate(over="ignore", invalid="ignore"):
            y = feats - feats.mean(axis=0)
            sq = np.einsum("ij,ij->i", y, y)
        eps = _gram_error_bound(float(sq.max()), d)

        def approx(i0: int, i1: int) -> np.ndarray:
            with np.errstate(over="ignore", invalid="ignore"):
                a = y[i0:i1] @ y[i0:].T
                a *= -2.0
                a += sq[i0:i1, None]
                a += sq[i0:]
            return a

        rank = (idx - n) // 2
        upper = _condensed_upper(n, approx)
        upper.partition(rank)
        t = float(upper[rank])
        del upper
        lo, hi = t - 2.0 * eps, t + 2.0 * eps
        band_i, band_j = [], []
        for i0, i1, above in _row_blocks(n):
            rows = i1 - i0
            a = approx(i0, i1)
            below = a < lo
            band = ~(below | (a > hi))
            below[:, :rows] &= above
            band[:, :rows] &= above
            rho[i0:i1] += np.count_nonzero(below, axis=1)
            rho[i0:] += np.count_nonzero(below, axis=0)
            bi, bj = np.nonzero(band)
            band_i.append(bi + i0)
            band_j.append(bj + i0)
        band_i = np.concatenate(band_i)
        band_j = np.concatenate(band_j)
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
        k_percent=float(k_percent),
        center=center,
        center_dist=center_dist,
    )
