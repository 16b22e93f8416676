"""Density-peak statistics for one category's feature vectors.

All distances are squared Euclidean and stay in squared units throughout
(cutoff, local density and peak separation all use the same convention, so
every ordering is preserved). The functions are pure; categories can be
processed in parallel by callers. Each distance entry is accumulated in a
fixed dimension order, so results are bitwise independent of any scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_K_PERCENT = 60.0

# The largest distance matrix one category may need: 8 * n^2 bytes for n
# samples, so 2 GiB allows up to 16384 samples per category.
MAX_MATRIX_BYTES = 2 * 1024**3

# Rows per block in distance_matrix and in the cutoff_dc copy.
_ROW_BLOCK = 128


@dataclass(frozen=True)
class DensityProfile:
    """Per-sample density statistics for one category.

    rho[i] counts neighbors strictly within the cutoff (self excluded);
    delta[i] is the squared distance to the nearest sample earlier in the
    density ordering (rho descending, index ascending), or the maximum row
    distance for the first sample, whose nearest_higher is -1. The center is
    the sample with maximal delta, ties to the smaller index, and
    center_dist[i] is the squared distance from sample i to it.
    """

    rho: np.ndarray
    delta: np.ndarray
    nearest_higher: np.ndarray
    d_c: float
    k_percent: float
    center: int
    center_dist: np.ndarray


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
    if not 0.0 < k_percent < 100.0:
        raise ValueError("k_percent must be in (0, 100)")
    d2 = np.asarray(d2, dtype=np.float64)
    n = d2.shape[0]
    n_sq = n * n
    idx = min(int(math.floor(k_percent * n_sq / 100.0)), n_sq - 1)
    if idx < n:
        return 0.0
    upper = np.empty(n * (n - 1) // 2, dtype=np.float64)
    block = min(_ROW_BLOCK, n)
    cols = np.arange(block)
    above_diagonal = cols[:, None] < cols
    start = 0
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        rows = i1 - i0
        square = d2[i0:i1, i0:i1][above_diagonal[:rows, :rows]]
        upper[start:start + square.size] = square
        start += square.size
        stop = start + rows * (n - i1)
        upper[start:stop].reshape(rows, n - i1)[...] = d2[i0:i1, i1:]
        start = stop
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


def density_profile(
    features: np.ndarray, k_percent: float = DEFAULT_K_PERCENT
) -> DensityProfile:
    """Full pipeline for one category: distances, cutoff, rho, delta, center."""
    d2 = distance_matrix(features)
    d_c = cutoff_dc(d2, k_percent)
    rho = local_density(d2, d_c)
    delta, nearest, center = delta_and_center(d2, rho)
    return DensityProfile(
        rho=rho,
        delta=delta,
        nearest_higher=nearest,
        d_c=d_c,
        k_percent=float(k_percent),
        center=center,
        center_dist=d2[center].copy(),
    )
