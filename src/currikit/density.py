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

    Exactly symmetric with a zero diagonal: entries are computed once per
    unordered pair (upper triangle mirrored), each as a sequential sum of
    squared per-dimension differences, matching a naive loop bit for bit.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    n = feats.shape[0]
    if n < 1:
        raise ValueError("need at least one sample")
    if not np.isfinite(feats).all():
        raise ValueError("non-finite feature value")
    d2 = np.zeros((n, n), dtype=np.float64)
    for k in range(feats.shape[1]):
        diff = feats[:, k, None] - feats[None, :, k]
        d2 += diff * diff
    upper = np.triu(d2, 1)
    return upper + upper.T


def cutoff_dc(d2: np.ndarray, k_percent: float = DEFAULT_K_PERCENT) -> float:
    """Cutoff distance: the k-percent rank among all n^2 matrix entries.

    All n^2 entries, diagonal zeros included, are sorted ascending and the
    one at zero-based index floor(k_percent/100 * n^2) is returned (clamped
    to the last entry). Monotone non-decreasing in k_percent.
    """
    if not 0.0 < k_percent < 100.0:
        raise ValueError("k_percent must be in (0, 100)")
    flat = np.sort(np.asarray(d2, dtype=np.float64).ravel())
    n_sq = flat.shape[0]
    idx = min(int(math.floor(k_percent * n_sq / 100.0)), n_sq - 1)
    return float(flat[idx])


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
