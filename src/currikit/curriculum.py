"""Curriculum design: rank every sample of every category by complexity.

For each category, the density pipeline finds a cluster center; 1-D k-means
on the squared distances to that center splits the category into ordered
subsets (level 0 = closest = clean, rising to highly noisy). A k-means-on-
features baseline variant is provided for comparison runs. Designs serialize
to a versioned JSON file with fixed field order and 9-significant-digit
floats so that identical inputs always produce identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import FeatureSet, _frozen, _names_its_file, category_rows
from .density import density_profile
from .fileio import atomic_write_text
from .seeding import component_rng

CURRICULUM_VERSION = 1


class CurriculumError(ValueError):
    """Invalid design input or malformed curriculum file."""


def level_name(level: int, n_subsets: int = 3) -> str:
    if n_subsets <= 3 and level < 3:
        return ("clean", "noisy", "highly_noisy")[level]
    return f"level{level}"


@dataclass(frozen=True)
class CurriculumParams:
    k_percent: float = 60.0
    n_subsets: int = 3
    kmeans_max_iters: int = 100
    seed: int = 0

    def validate(self) -> None:
        if not 0.0 < self.k_percent < 100.0:
            raise CurriculumError("k_percent must be in (0, 100)")
        if self.n_subsets < 1:
            raise CurriculumError("n_subsets must be >= 1")
        if self.kmeans_max_iters < 1:
            raise CurriculumError("kmeans_max_iters must be >= 1")


@dataclass(frozen=True)
class CategoryStats:
    category_id: int
    n: int
    d_c: float
    subset_sizes: tuple[int, ...]
    mean_dist: tuple[float, ...]  # nan for empty subsets


@dataclass(frozen=True, eq=False)
class CurriculumDesign:
    """Per-sample subset levels for every category of a FeatureSet.

    Arrays are aligned with ``sample_ids``: ``categories`` holds each
    sample's given (noisy) category, ``levels`` its subset level and
    ``dist_to_center`` its squared distance to the category center sample.
    ``center_ids[c]`` / ``d_c[c]`` describe category c.
    """

    params: CurriculumParams
    sample_ids: tuple[str, ...]
    categories: np.ndarray
    levels: np.ndarray
    dist_to_center: np.ndarray
    center_ids: tuple[str, ...]
    d_c: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("categories", np.int64), ("levels", np.int64),
                            ("dist_to_center", np.float64), ("d_c", np.float64)):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))
        for name, ids in (("categories", "sample_ids"), ("levels", "sample_ids"),
                          ("dist_to_center", "sample_ids"), ("d_c", "center_ids")):
            shape, n = getattr(self, name).shape, len(getattr(self, ids))
            if shape != (n,):
                raise CurriculumError(
                    f"{name} has shape {shape}; expected one value per entry of {ids} ({n})"
                )

    @property
    def n_samples(self) -> int:
        return len(self.sample_ids)

    @property
    def n_categories(self) -> int:
        return len(self.center_ids)

    @property
    def n_subsets(self) -> int:
        return self.params.n_subsets

    def category_stats(self) -> list[CategoryStats]:
        stats = []
        for c, rows in enumerate(category_rows(self.categories, self.n_categories)):
            dist = self.dist_to_center[rows]
            by_level = category_rows(self.levels[rows], self.n_subsets)
            stats.append(
                CategoryStats(
                    category_id=c,
                    n=rows.size,
                    d_c=float(self.d_c[c]),
                    subset_sizes=tuple(r.size for r in by_level),
                    mean_dist=tuple(float(dist[r].mean()) if r.size else math.nan
                                    for r in by_level),
                )
            )
        return stats


# ---------------------------------------------------------------------------
# 1-D k-means partition


def _lloyd(points: np.ndarray, centroids: np.ndarray, nearest, max_iters: int):
    """Lloyd k-means from `centroids`, each point going to ``nearest(points,
    centroids)``, until no centroid moves or after `max_iters` updates; an empty
    cluster keeps its centroid. Returns the centroids and the assignment."""
    for _ in range(max_iters):
        assign = nearest(points, centroids)
        new_centroids = centroids.copy()
        for j in range(len(centroids)):
            members = points[assign == j]
            if members.size:
                new_centroids[j] = members.mean(axis=0)
        if np.array_equal(new_centroids, centroids):
            break
        centroids = new_centroids
    return centroids, nearest(points, centroids)


def _rank_by(keys: np.ndarray) -> np.ndarray:
    """The rank of each entry of `keys` in a stable ascending sort: cluster
    i's level when clusters are relabeled by `keys`, ties in cluster order."""
    rank = np.empty(keys.size, dtype=np.int64)
    rank[np.argsort(keys, kind="stable")] = np.arange(keys.size)
    return rank


def _nearest_1d(values: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # Ties go to the lower cluster index (argmin picks the first minimum).
    return np.abs(values[:, None] - centroids[None, :]).argmin(axis=1)


def partition_category(
    dist_to_center: np.ndarray, n_subsets: int, max_iters: int = 100
) -> np.ndarray:
    """Split one category's distance values into ordered subset levels.

    Lloyd k-means over the scalar values, initialized at evenly spaced
    quantiles (min / median / max when n_subsets is 3), iterated until the
    centroids stop moving or `max_iters` updates. Clusters are relabeled by
    ascending centroid, so level 0 holds the smallest distances. When there
    are fewer distinct values than subsets, each distinct value becomes its
    own level in ascending order and the remaining levels stay empty.
    """
    values = np.asarray(dist_to_center, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise CurriculumError("dist_to_center must be a non-empty vector")
    if not np.isfinite(values).all():
        raise CurriculumError("non-finite distance value")
    if (values < 0).any():
        raise CurriculumError("distances must be non-negative")
    if n_subsets < 1:
        raise CurriculumError("n_subsets must be >= 1")

    distinct = np.unique(values)
    if distinct.size < n_subsets:
        return np.searchsorted(distinct, values).astype(np.int64)
    if n_subsets == 1:
        return np.zeros(values.size, dtype=np.int64)

    centroids = np.quantile(values, np.linspace(0.0, 1.0, n_subsets))
    centroids, assign = _lloyd(values, centroids, _nearest_1d, max_iters)

    return _rank_by(centroids)[assign]


# ---------------------------------------------------------------------------
# design


def _design(fs: FeatureSet, params: CurriculumParams, category_rule) -> CurriculumDesign:
    """Run `category_rule(c, feats, params)` on every category's float64
    feature rows and assemble the design. The rule returns the category's
    (levels, dist_to_center, center row, d_c)."""
    params.validate()
    empties = fs.empty_categories()
    if empties:
        names = ", ".join(f"{c} ({fs.category_names[c]})" for c in empties)
        raise CurriculumError(f"cannot design a curriculum over empty categories: {names}")
    levels = np.zeros(fs.n_samples, dtype=np.int64)
    dist = np.zeros(fs.n_samples, dtype=np.float64)
    center_ids: list[str] = []
    dcs = np.zeros(fs.n_categories, dtype=np.float64)
    for c, idx in enumerate(category_rows(fs.labels, fs.n_categories)):
        feats = fs.features[idx].astype(np.float64)
        cat_levels, cat_dist, center, dcs[c] = category_rule(c, feats, params)
        levels[idx] = cat_levels
        dist[idx] = cat_dist
        center_ids.append(fs.sample_ids[idx[center]])
    return CurriculumDesign(
        params=params,
        sample_ids=fs.sample_ids,
        categories=fs.labels,
        levels=levels,
        dist_to_center=dist,
        center_ids=tuple(center_ids),
        d_c=dcs,
    )


def _density_rule(c: int, feats: np.ndarray, params: CurriculumParams):
    profile = density_profile(feats, params.k_percent)
    if feats.shape[0] < params.n_subsets:
        levels = np.zeros(feats.shape[0], dtype=np.int64)
    else:
        levels = partition_category(
            profile.center_dist, params.n_subsets, params.kmeans_max_iters
        )
    return levels, profile.center_dist, profile.center, profile.d_c


def design_curriculum(fs: FeatureSet, params: CurriculumParams) -> CurriculumDesign:
    """Density-ranked curriculum: per category, the density pipeline picks a
    center, then 1-D k-means on distance-to-center assigns subset levels.
    Categories smaller than n_subsets are assigned entirely to level 0.
    Deterministic for a given input and params."""
    return _design(fs, params, _density_rule)


def _kmeans_features(
    feats: np.ndarray, k: int, rng: np.random.Generator, max_iters: int
) -> np.ndarray:
    """Lloyd k-means on feature vectors with farthest-point initialization.

    The first center is a seeded uniform pick; each further center is the
    point with the largest squared distance to its nearest chosen center
    (ties to the smallest index), so only the first pick consumes
    randomness. Empty clusters keep their previous centroid.
    """
    n = feats.shape[0]
    chosen = [int(rng.integers(0, n))]
    min_d2 = ((feats - feats[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < k:
        nxt = int(np.argmax(min_d2))
        chosen.append(nxt)
        min_d2 = np.minimum(min_d2, ((feats - feats[nxt]) ** 2).sum(axis=1))
    return _lloyd(feats, feats[chosen], _nearest_features, max_iters)[1]


def _nearest_features(feats: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return ((feats[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)


def _kmeans_rule(c: int, feats: np.ndarray, params: CurriculumParams):
    if feats.shape[0] < params.n_subsets:
        assign = np.zeros(feats.shape[0], dtype=np.int64)
        k = 1
    else:
        rng = component_rng(params.seed, "kmeans-init", c)
        assign = _kmeans_features(feats, params.n_subsets, rng, params.kmeans_max_iters)
        k = params.n_subsets
    levels = _rank_by(-np.bincount(assign, minlength=k))[assign]
    centroid = feats[levels == 0].mean(axis=0)
    center = int(np.argmin(((feats - centroid) ** 2).sum(axis=1)))
    return levels, ((feats - feats[center]) ** 2).sum(axis=1), center, 0.0


def design_curriculum_kmeans_baseline(
    fs: FeatureSet, params: CurriculumParams
) -> CurriculumDesign:
    """Baseline variant: k-means directly on each category's feature vectors.

    Clusters are mapped to levels by descending size (largest = level 0);
    the center sample is the member of the largest cluster closest to that
    cluster's centroid, dist_to_center is the squared distance to it, and
    d_c is recorded as 0 (the cutoff plays no role here). The mean-distance
    ordering across levels is not guaranteed for this variant.
    """
    return _design(fs, params, _kmeans_rule)


DESIGN_METHODS = ("density", "kmeans")


def design(fs: FeatureSet, params: CurriculumParams, method: str) -> CurriculumDesign:
    """The curriculum of design `method`: "density" for
    :func:`design_curriculum`, "kmeans" for the k-means baseline."""
    if method == "density":
        return design_curriculum(fs, params)
    if method == "kmeans":
        return design_curriculum_kmeans_baseline(fs, params)
    raise CurriculumError(f"unknown design method {method!r}; expected one of {DESIGN_METHODS}")


# ---------------------------------------------------------------------------
# serialization


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise CurriculumError(f"cannot serialize non-finite value {x!r}")
    return format(float(x), ".9g")


def _fmt_exact(x: float) -> str:
    """x at 9 significant digits where that text reads back as x, else the
    shortest text that does."""
    text = _fmt_float(x)
    return text if float(text) == x else repr(float(x))


def curriculum_to_json(cd: CurriculumDesign) -> str:
    """Canonical JSON text: fixed field order, floats at 9 significant
    digits; ``k_percent`` is written so that it reads back exactly."""
    p = cd.params
    out = [
        '{"version": %d, "params": {"k_percent": %s, "n_subsets": %d, '
        '"kmeans_max_iters": %d, "seed": %d}, "categories": ['
        % (CURRICULUM_VERSION, _fmt_exact(p.k_percent), p.n_subsets, p.kmeans_max_iters, p.seed)
    ]
    rows = [r.tolist() for r in category_rows(cd.categories, cd.n_categories)]
    if not (np.isfinite(cd.dist_to_center).all() and np.isfinite(cd.d_c).all()):
        for c, cat_rows in enumerate(rows):  # raise on the first in output order
            for i in cat_rows:
                _fmt_float(cd.dist_to_center[i])
            _fmt_float(cd.d_c[c])
    ids, levels, dists = cd.sample_ids, cd.levels.tolist(), cd.dist_to_center.tolist()
    for c, d_c in enumerate(cd.d_c.tolist()):
        if c:
            out.append(", ")
        samples = ", ".join(
            '{"id": %s, "level": %d, "dist": %s}'
            % (json.dumps(ids[i]), levels[i], _fmt_float(dists[i]))
            for i in rows[c]
        )
        out.append(
            '{"category_id": %d, "center_id": %s, "d_c": %s, "samples": [%s]}'
            % (c, json.dumps(cd.center_ids[c]), _fmt_float(d_c), samples)
        )
    out.append("]}")
    return "".join(out)


def save_curriculum(cd: CurriculumDesign, path: str | Path) -> None:
    atomic_write_text(path, curriculum_to_json(cd) + "\n")


def _field(obj, key: str, kind: type, where: str):
    """obj[key], which must be a JSON value of `kind`; a float field also
    takes a JSON integer, and a boolean is never a number."""
    if not isinstance(obj, dict):
        raise CurriculumError(f"malformed curriculum file: {where} is not a JSON object")
    if key not in obj:
        raise CurriculumError(f"malformed curriculum file: {where} has no {key!r} field")
    value = obj[key]
    kinds = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise CurriculumError(
            f"malformed curriculum file: {where}: {key!r} must be of type {kind.__name__}"
        )
    return value


def curriculum_from_json(text: str) -> CurriculumDesign:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CurriculumError(f"malformed curriculum file: {exc}") from exc
    version = _field(doc, "version", int, "the file")
    if version != CURRICULUM_VERSION:
        raise CurriculumError(
            f"curriculum version mismatch: got {version!r}, expected {CURRICULUM_VERSION}"
        )
    raw_params = _field(doc, "params", dict, "the file")
    params = CurriculumParams(
        k_percent=float(_field(raw_params, "k_percent", float, "params")),
        n_subsets=_field(raw_params, "n_subsets", int, "params"),
        kmeans_max_iters=_field(raw_params, "kmeans_max_iters", int, "params"),
        seed=_field(raw_params, "seed", int, "params"),
    )
    params.validate()
    ids: list[str] = []
    cats: list[int] = []
    levels: list[int] = []
    dists: list[float] = []
    center_ids: list[str] = []
    dcs: list[float] = []
    for expected, entry in enumerate(_field(doc, "categories", list, "the file")):
        where = f"category entry {expected}"
        cid = _field(entry, "category_id", int, where)
        if cid != expected:
            raise CurriculumError(
                f"category ids must be dense and ascending; found {cid} at position {expected}"
            )
        center_ids.append(_field(entry, "center_id", str, where))
        dcs.append(float(_field(entry, "d_c", float, where)))
        sample_where = f"a sample of category {cid}"
        for s in _field(entry, "samples", list, where):
            level = _field(s, "level", int, sample_where)
            if not 0 <= level < params.n_subsets:
                raise CurriculumError(
                    f"sample level {level} in category {cid} is outside "
                    f"[0, {params.n_subsets})"
                )
            ids.append(_field(s, "id", str, sample_where))
            cats.append(cid)
            levels.append(level)
            dists.append(float(_field(s, "dist", float, sample_where)))
    if len(set(ids)) != len(ids):
        raise CurriculumError("duplicate sample id in curriculum file")
    return CurriculumDesign(
        params=params,
        sample_ids=tuple(ids),
        categories=np.array(cats, dtype=np.int64),
        levels=np.array(levels, dtype=np.int64),
        dist_to_center=np.array(dists, dtype=np.float64),
        center_ids=tuple(center_ids),
        d_c=np.array(dcs, dtype=np.float64),
    )


@_names_its_file(CurriculumError)
def load_curriculum(path: str | Path) -> CurriculumDesign:
    """The curriculum file at `path`; each CurriculumError starts with the path."""
    return curriculum_from_json(Path(path).read_text(encoding="utf-8"))
