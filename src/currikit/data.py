"""Feature datasets with noisy labels: in-memory types, file formats, synthesis.

Two on-disk feature formats are supported:

* binary: magic ``CRFS``, u32 version=1, u32 N, u32 d, u32 C, then C
  length-prefixed UTF-8 category names, then N records of (length-prefixed
  sample id, u32 label, d little-endian float32 values). All integers are
  little-endian u32. This format is lossless.
* csv: header ``id,label,f0..f{d-1}``, UTF-8, cells unquoted, so a sample
  id holding a comma, a double quote or a line break cannot be written. Category
  names and the category count are not representable in this format; the
  loader infers ``C = max(label) + 1`` and default names unless the caller
  passes ``category_names``.

Ground truth for synthetic data is a CSV ``id,true_label,noise_kind``.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import struct
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

from .fileio import atomic_write_bytes, atomic_write_text
from .seeding import component_rng

MAGIC = b"CRFS"
BINARY_VERSION = 1
_U32 = struct.Struct("<I").unpack_from

NOISE_CLEAN = "clean"
NOISE_CROSS = "cross-label"
NOISE_UNIFORM = "uniform-noise"
NOISE_KINDS = (NOISE_CLEAN, NOISE_CROSS, NOISE_UNIFORM)

#: true_label value for samples drawn from no category (background noise).
NO_CATEGORY = -1

#: Blob centers are drawn uniformly from this box in every dimension.
CENTER_BOX = (0.0, 10.0)

#: The largest finite float32, which every feature value must fit under.
FLOAT32_MAX = float(np.finfo(np.float32).max)

#: Default reach of the uniform-noise bounding box past the blob centers, in
#: blob sigmas. Far-out background noise keeps the noise bands of the
#: designed curriculum well separated from the category structure.
DEFAULT_BOX_MARGIN_SIGMAS = 14.0

FORMATS = ("binary", "csv")


class DatasetError(ValueError):
    """Malformed dataset file or invalid in-memory dataset."""


def _label_cell(text: str, row: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise DatasetError(f"row {row}: label {text!r} is not an integer") from None


def _frozen(values, dtype) -> np.ndarray:
    """`values` as a read-only `dtype` array, copied unless it owns its data."""
    arr = np.asarray(values, dtype=dtype)
    arr = arr if arr.flags.owndata else arr.copy()
    arr.setflags(write=False)
    return arr


def _names_its_file(error: type[ValueError]):
    """A decorator: `load(path, ...)`, with every `error` it raises prefixed
    by the path; a file that is not UTF-8 raises an `error` that names no
    row or position."""
    def decorate(load):
        @functools.wraps(load)
        def wrapper(path, *args, **kwargs):
            try:
                return load(path, *args, **kwargs)
            except UnicodeDecodeError:  # a ValueError: caught before `error`
                raise error(f"{path}: not UTF-8 text") from None
            except error as exc:
                raise error(f"{path}: {exc}") from None
        return wrapper
    return decorate


def category_rows(labels: np.ndarray, n_categories: int) -> list[np.ndarray]:
    """Each category's rows of `labels` in ascending order, from one stable
    sort; a label outside [0, n_categories) is in no category's rows."""
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.searchsorted(labels[order], np.arange(n_categories + 1)))[1:-1]


@dataclass(frozen=True, eq=False)
class FeatureSet:
    """N feature vectors with per-sample noisy category labels.

    ``features`` is an (N, d) float32 matrix, ``labels`` an (N,) int64 vector
    of category ids in [0, C), ``sample_ids`` N unique strings and
    ``category_names`` the C display names. Categories are allowed to be
    empty; :meth:`empty_categories` reports which. Instances are validated
    and frozen (arrays are marked read-only) on construction.
    """

    features: np.ndarray
    labels: np.ndarray
    sample_ids: tuple[str, ...]
    category_names: tuple[str, ...]

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=np.float32)
        labels = np.asarray(self.labels, dtype=np.int64)
        ids = tuple(str(s) for s in self.sample_ids)
        names = tuple(str(s) for s in self.category_names)
        if features.ndim != 2:
            raise DatasetError("features must be a 2-D matrix")
        n = features.shape[0]
        if n < 1:
            raise DatasetError("a FeatureSet needs at least one sample")
        if labels.shape != (n,) or len(ids) != n:
            raise DatasetError(
                f"length mismatch: {n} feature rows, {labels.shape[0]} labels, "
                f"{len(ids)} sample ids"
            )
        if not names:
            raise DatasetError("at least one category is required")
        bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
        if bad.size:
            raise DatasetError(f"non-finite feature value at row {bad[0]}")
        out_of_range = np.flatnonzero((labels < 0) | (labels >= len(names)))
        if out_of_range.size:
            i = out_of_range[0]
            raise DatasetError(
                f"label {labels[i]} at row {i} outside [0, {len(names)})"
            )
        seen: dict[str, int] = {}
        for i, sid in enumerate(ids):
            if sid in seen:
                raise DatasetError(
                    f"duplicate sample id {sid!r} at rows {seen[sid]} and {i}"
                )
            seen[sid] = i
        object.__setattr__(self, "features", _frozen(features, np.float32))
        object.__setattr__(self, "labels", _frozen(labels, np.int64))
        object.__setattr__(self, "sample_ids", ids)
        object.__setattr__(self, "category_names", names)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_categories(self) -> int:
        return len(self.category_names)

    def empty_categories(self) -> tuple[int, ...]:
        present = np.bincount(self.labels, minlength=self.n_categories)
        return tuple(int(c) for c in np.flatnonzero(present == 0))

    def take(self, indices) -> "FeatureSet":
        """Rows by number, in order, or by a full-length mask; all categories kept."""
        rows = np.arange(self.n_samples)[indices]
        return FeatureSet(
            features=self.features[rows],
            labels=self.labels[rows],
            sample_ids=tuple(self.sample_ids[i] for i in rows),
            category_names=self.category_names,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureSet):
            return NotImplemented
        return (
            self.features.shape == other.features.shape
            and self.features.tobytes() == other.features.tobytes()
            and np.array_equal(self.labels, other.labels)
            and self.sample_ids == other.sample_ids
            and self.category_names == other.category_names
        )


@dataclass(frozen=True, eq=False)
class SyntheticTruth:
    """Ground-truth annotation for a synthetic FeatureSet (same row order).

    ``true_labels[i]`` is the category whose blob generated sample i, or
    ``NO_CATEGORY`` (-1) for uniform background noise, which belongs to no
    category and is always counted as mislabeled. ``noise_kind[i]`` is one of
    ``clean`` / ``cross-label`` / ``uniform-noise``.
    """

    true_labels: np.ndarray
    noise_kind: tuple[str, ...]

    def __post_init__(self) -> None:
        true_labels = np.asarray(self.true_labels, dtype=np.int64)
        kinds = tuple(str(k) for k in self.noise_kind)
        if true_labels.shape != (len(kinds),):
            raise DatasetError("true_labels and noise_kind lengths differ")
        for i, k in enumerate(kinds):
            if k not in NOISE_KINDS:
                raise DatasetError(f"unknown noise kind {k!r} at row {i}")
        object.__setattr__(self, "true_labels", _frozen(true_labels, np.int64))
        object.__setattr__(self, "noise_kind", kinds)

    def __len__(self) -> int:
        return self.true_labels.shape[0]

    def take(self, indices) -> "SyntheticTruth":
        rows = np.arange(len(self))[indices]
        return SyntheticTruth(
            true_labels=self.true_labels[rows],
            noise_kind=tuple(self.noise_kind[i] for i in rows),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SyntheticTruth):
            return NotImplemented
        return (
            np.array_equal(self.true_labels, other.true_labels)
            and self.noise_kind == other.noise_kind
        )


# ---------------------------------------------------------------------------
# binary format


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _features_to_binary(fs: FeatureSet) -> bytes:
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<IIII", BINARY_VERSION, fs.n_samples, fs.n_features, fs.n_categories))
    for name in fs.category_names:
        buf.write(_pack_str(name))
    rows = np.ascontiguousarray(fs.features, dtype="<f4")
    for i in range(fs.n_samples):
        buf.write(_pack_str(fs.sample_ids[i]))
        buf.write(struct.pack("<I", int(fs.labels[i])))
        buf.write(rows[i].tobytes())
    return buf.getvalue()


def _features_from_binary(data: bytes) -> FeatureSet:
    """The binary feature file `data`, read in one pass. An error names the
    field, and the row, at which the file ends early or goes wrong."""
    pos = 0

    # Each reader takes a message template and the row (or category) it
    # formats into it, so a message is built only when it is raised.
    def skip(size: int, what: str, row: int | None = None) -> int:
        nonlocal pos
        if pos + size > len(data):
            raise DatasetError("truncated file while reading " + what.format(row))
        pos += size
        return pos - size

    def u32(what: str, row: int | None = None) -> int:
        return _U32(data, skip(4, what, row))[0]

    def string(what: str, row: int | None = None) -> str:
        start = skip(u32(what + " length", row), what, row)
        try:
            return data[start:pos].decode("utf-8")
        except UnicodeDecodeError:
            raise DatasetError("invalid UTF-8 in " + what.format(row)) from None

    skip(4, "magic")
    if data[:4] != MAGIC:
        raise DatasetError("bad magic bytes: not a CRFS feature file")
    version = u32("version")
    if version != BINARY_VERSION:
        raise DatasetError(f"unsupported feature file version {version}")
    n = u32("sample count")
    d = u32("feature dimension")
    c = u32("category count")
    if n < 1 or d < 1 or c < 1:
        raise DatasetError(f"invalid header counts N={n} d={d} C={c}")
    names = tuple(string("category name {}", i) for i in range(c))
    # Each record holds at least an id length, a label and d floats.
    needed = n * (8 + 4 * d)
    if needed > len(data) - pos:
        raise DatasetError(
            f"truncated file: N={n} records at d={d} need at least {needed} bytes, "
            f"{len(data) - pos} remain"
        )
    # A record from `pos` with an id of `length` bytes fits in `data` when
    # pos + length <= last, and pos <= last keeps its length inside `data`.
    # One that does not fit is read field by field, which raises at the first
    # field that is cut short or not UTF-8.
    last = len(data) - 8 - 4 * d
    ids, starts = [], []
    for i in range(n):
        if pos > last or pos + (length := _U32(data, pos)[0]) > last:
            string("sample id at row {}", i)
            u32("label at row {}", i)
            skip(4 * d, "features at row {}", i)
        pos += 4 + length
        try:
            ids.append(data[pos - length : pos].decode("utf-8"))
        except UnicodeDecodeError:
            raise DatasetError(f"invalid UTF-8 in sample id at row {i}") from None
        starts.append(pos)
        pos += 4 + 4 * d
    if pos != len(data):
        raise DatasetError(f"{len(data) - pos} trailing bytes after row {n - 1}")
    # Every byte offset of `data` as the start of a label, and of d features.
    at = np.array(starts, dtype=np.intp)
    labels = np.ndarray((len(data) - 3,), "<u4", data, strides=(1,))[at]
    features = np.ndarray((len(data) - 4 * d + 1, d), "<f4", data, strides=(1, 4))[at + 4]
    return FeatureSet(features, labels.astype(np.int64), tuple(ids), names)


# ---------------------------------------------------------------------------
# csv format


_CSV_UNSAFE = frozenset(',"\r\n')


def _csv_id(sid: str) -> str:
    if not _CSV_UNSAFE.isdisjoint(sid):
        raise DatasetError(
            f"sample id {sid!r} holds a comma, a quote or a line break; "
            "the csv files do not quote their cells"
        )
    return sid


#: Feature values the csv writer formats in one pass of numpy calls, in whole
#: rows (at least one). Each value takes about 150 bytes while formatted.
CSV_BLOCK_VALUES = 16384

#: The csv loader names categories 0..max(label) itself; it refuses a label past
#: both the row count and this count, whose names alone could exhaust memory.
CSV_INFERRED_CATEGORIES = 65536


def _csv_bytes(fs: FeatureSet) -> bytearray:
    """The csv file, one block of rows at a time. The blocks go into one
    buffer that grows in place, so no joined copy is ever held beside them."""
    from .csvtext import _csv_block

    out = bytearray(",".join(["id", "label"] + [f"f{k}" for k in range(fs.n_features)]).encode())
    out += b"\n"
    labels = fs.labels.tolist()
    rows = max(1, CSV_BLOCK_VALUES // fs.n_features)
    for start in range(0, fs.n_samples, rows):
        stop = min(start + rows, fs.n_samples)
        prefixes = [f"{_csv_id(fs.sample_ids[i])},{labels[i]},".encode() for i in range(start, stop)]
        out += _csv_block(fs.features[start:stop], prefixes)
    return out


def _csv_rows(
    lines: Iterable[str], check_header: Callable[[list[str] | None], int]
) -> Iterator[tuple[int, list[str]]]:
    """(row, cells) of every non-blank row of ``csv.reader(lines)`` after the
    header, rows numbered from 0 after the header, blank ones included.
    `check_header` gets the header (None for an empty file), raises if it is
    bad and returns the number of cells every row must have. A row the csv
    module rejects, such as one with a cell longer than
    ``csv.field_size_limit()``, raises DatasetError naming the row."""
    reader = csv.reader(lines)
    row = -1
    while True:
        try:
            cells = next(reader, None)
        except csv.Error as exc:
            where = "header" if row < 0 else f"row {row}"
            raise DatasetError(f"{where}: {exc}") from None
        if row < 0:
            width = check_header(cells)
        elif cells is None:
            return
        elif cells:
            if len(cells) != width:
                raise DatasetError(f"row {row} has {len(cells)} cells, expected {width}")
            yield row, cells
        row += 1


def _feature_columns(header: list[str] | None) -> int:
    """The cell count of a feature csv file's rows, from its header."""
    if header is None:
        raise DatasetError("empty csv file")
    if len(header) < 3 or header[0] != "id" or header[1] != "label":
        raise DatasetError(f"bad csv header {header!r}")
    if header[2:] != [f"f{k}" for k in range(len(header) - 2)]:
        raise DatasetError(f"bad csv feature columns {header[2:]!r}")
    return len(header)


def _features_from_csv(
    fh: TextIO, category_names: tuple[str, ...] | None = None
) -> FeatureSet:
    """The feature csv file open as `fh`. The block reader reads a file it can
    show it reads as the row loop does; the row loop reads any other file
    again from the start and words every error."""
    parsed = _csv_feature_blocks(fh)
    if parsed is None:
        fh.seek(0)
        parsed = _csv_feature_rows(fh)
    ids, labels, blocks = parsed
    if not ids:
        raise DatasetError("csv file has no data rows")
    if category_names is None:
        top = max(labels)
        if top < 0:
            raise DatasetError(f"label {labels[0]} at row 0 is negative; category ids start at 0")
        if top >= max(len(ids), CSV_INFERRED_CATEGORIES):
            raise DatasetError(f"label {top} needs {top + 1} categories, more than the "
                               f"{len(ids)} data rows and the limit of {CSV_INFERRED_CATEGORIES}")
        category_names = tuple(f"cat{k:03d}" for k in range(top + 1))
    return FeatureSet(
        features=np.vstack(blocks),
        labels=np.array(labels, dtype=np.int64),
        sample_ids=tuple(ids),
        category_names=category_names,
    )


def _csv_feature_rows(lines: Iterable[str]) -> tuple[list[str], list[int], list[np.ndarray]]:
    """(ids, labels, feature rows), one ``csv.reader`` row at a time."""
    ids: list[str] = []
    labels: list[int] = []
    rows: list[np.ndarray] = []
    for i, row in _csv_rows(lines, _feature_columns):
        ids.append(row[0])
        labels.append(_label_cell(row[1], i))
        try:
            vec = np.array(row[2:], dtype=np.float32)
        except ValueError:
            raise DatasetError(f"row {i}: unparseable feature value") from None
        if not np.isfinite(vec).all():
            raise DatasetError(f"row {i}: non-finite feature value")
        rows.append(vec)
    return ids, labels, rows


#: The only characters of the feature cells that the block reader passes to
#: ``np.loadtxt``. Over them, it reads a float32 through a double as
#: ``np.array(cells, dtype=np.float32)`` does and rejects the text that call
#: rejects; outside them the two differ (``1_0``, non-ASCII digits, padding
#: such as ``\x1c``), so such files go to the row loop.
_DECIMAL_TEXT = b"0123456789.eE+-,\n"


def _csv_feature_blocks(fh: TextIO) -> tuple[list[str], list[int], list[np.ndarray]] | None:
    """(ids, labels, feature blocks), one ``np.loadtxt`` per block of lines,
    or None for a file that the row loop might read otherwise.

    Without a double quote, csv cells are the text between commas, and a
    line holding only its line break is a blank row. Labels go through
    ``int()``, as the row loop's do. ``np.loadtxt`` rejects rows of unequal
    length, so a block of the header's width reads every row's cell count."""
    line = fh.readline()
    if '"' in line:
        return None
    try:
        width = _feature_columns(next(csv.reader([line]), None))
    except (csv.Error, DatasetError):
        return None
    limit = csv.field_size_limit()
    ids: list[str] = []
    labels: list[int] = []
    blocks: list[np.ndarray] = []
    size = max(1, CSV_BLOCK_VALUES // (width - 2))
    while lines := list(itertools.islice(fh, size)):
        text = "".join(lines)
        if '"' in text or "\0" in text:
            return None
        if max(map(len, lines)) > limit and any(
            len(cell) > limit for line in lines for cell in line.split(",")
        ):
            return None
        rows = [line.split(",", 2) for line in lines if line != "\n"]
        if not rows:
            continue
        try:
            block_ids, block_labels, values = zip(*rows)
            block_labels = list(map(int, block_labels))
            decimals = "".join(values)
            if not decimals.isascii() or decimals.encode().translate(None, _DECIMAL_TEXT):
                return None
            block = np.loadtxt(values, dtype=np.float32, delimiter=",", comments=None,
                               quotechar=None, ndmin=2)
        except ValueError:
            return None
        if block.shape != (len(rows), width - 2) or not np.isfinite(block).all():
            return None
        ids += block_ids
        labels += block_labels
        blocks.append(block)
    return ids, labels, blocks


def save_features(fs: FeatureSet, path: str | Path, format: str) -> None:
    """Write `fs` to `path` atomically; ``load_features`` inverts it.

    The csv format drops category names / trailing empty categories (see
    module docstring); the binary format is exact.
    """
    if format == "binary":
        atomic_write_bytes(path, _features_to_binary(fs))
    elif format == "csv":
        atomic_write_bytes(path, _csv_bytes(fs))
    else:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")


@_names_its_file(DatasetError)
def load_features(
    path: str | Path, format: str, category_names: tuple[str, ...] | None = None
) -> FeatureSet:
    """Load and validate a feature file written by :func:`save_features`.

    `category_names` restores the names and count the csv format cannot
    carry; it is ignored for binary files, which store them. Every
    DatasetError of the three loaders starts with the file's path.
    """
    if format == "binary":
        return _features_from_binary(Path(path).read_bytes())
    if format == "csv":
        # The csv readers parse the open file, never a copy of its whole text.
        with open(path, encoding="utf-8") as fh:
            return _features_from_csv(fh, category_names)
    raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")


# ---------------------------------------------------------------------------
# truth / reference labels


def save_truth(fs: FeatureSet, truth: SyntheticTruth, path: str | Path) -> None:
    if len(truth) != fs.n_samples:
        raise DatasetError("truth length does not match the FeatureSet")
    rows = zip(map(_csv_id, fs.sample_ids), truth.true_labels.tolist(), truth.noise_kind)
    text = "".join([f"{sid},{label},{kind}\n" for sid, label, kind in rows])
    atomic_write_text(path, "id,true_label,noise_kind\n" + text)


@_names_its_file(DatasetError)
def load_truth(path: str | Path) -> tuple[tuple[str, ...], SyntheticTruth]:
    """Returns (sample ids in file order, truth annotation)."""
    def check_header(header: list[str] | None) -> int:
        if header != ["id", "true_label", "noise_kind"]:
            raise DatasetError(f"bad truth header {header!r}")
        return 3

    ids: list[str] = []
    labels: list[int] = []
    kinds: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for i, row in _csv_rows(fh, check_header):
            ids.append(row[0])
            labels.append(_label_cell(row[1], i))
            kinds.append(row[2])
    return tuple(ids), SyntheticTruth(
        true_labels=np.array(labels, dtype=np.int64), noise_kind=tuple(kinds)
    )


@_names_its_file(DatasetError)
def load_reference_labels(path: str | Path) -> dict[str, int]:
    """Reference labels keyed by sample id.

    Accepts either the truth CSV (``id,true_label,noise_kind``) or an external
    prediction CSV (``id,predicted_label``).
    """
    def check_header(header: list[str] | None) -> int:
        if header not in (["id", "true_label", "noise_kind"], ["id", "predicted_label"]):
            raise DatasetError(f"unrecognized reference header {header!r}")
        return len(header)

    out: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for i, row in _csv_rows(fh, check_header):
            if row[0] in out:
                raise DatasetError(f"duplicate id {row[0]!r} at row {i}")
            out[row[0]] = _label_cell(row[1], i)
    return out


# ---------------------------------------------------------------------------
# synthesis


@dataclass(frozen=True)
class SynthConfig:
    """Planted-noise dataset: per category, a deterministic count of samples
    from the category's own Gaussian blob (clean), from another category's
    blob (cross-label) and from a uniform box around all blobs (uniform
    noise). Counts use half-up rounding of fraction * per_category, with
    uniform noise absorbing the remainder."""

    n_categories: int
    per_category: int
    n_features: int
    clean_frac: float
    cross_frac: float
    uniform_frac: float
    blob_sigma: float = 1.0
    box_margin_sigmas: float = DEFAULT_BOX_MARGIN_SIGMAS
    seed: int = 0

    def validate(self) -> None:
        if self.n_categories < 2:
            raise ValueError("need at least 2 categories")
        if self.per_category < 1:
            raise ValueError("per_category must be >= 1")
        if self.n_features < 1:
            raise ValueError("n_features must be >= 1")
        for name in ("clean_frac", "cross_frac", "uniform_frac", "blob_sigma", "box_margin_sigmas"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.blob_sigma <= 0:
            raise ValueError("blob_sigma must be positive")
        if self.box_margin_sigmas <= 0:
            raise ValueError("box_margin_sigmas must be positive")
        if not math.isfinite(2 * (self.box_margin_sigmas * self.blob_sigma)):  # 2 margins wide
            raise ValueError(f"box_margin_sigmas * blob_sigma = {self.box_margin_sigmas!r} * "
                             f"{self.blob_sigma!r} makes the uniform-noise box infinitely wide")
        if CENTER_BOX[1] + self.box_margin_sigmas * self.blob_sigma > FLOAT32_MAX:
            raise ValueError(f"box_margin_sigmas * blob_sigma = {self.box_margin_sigmas!r} * "
                             f"{self.blob_sigma!r} puts the uniform-noise box outside "
                             f"float32's range (±{FLOAT32_MAX:.7g})")
        fracs = (self.clean_frac, self.cross_frac, self.uniform_frac)
        if any(f < 0 for f in fracs):
            raise ValueError("noise fractions must be non-negative")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError(f"noise fractions sum to {sum(fracs)}, expected 1")

    def kind_counts(self) -> tuple[int, int, int]:
        n_clean = math.floor(self.clean_frac * self.per_category + 0.5)
        n_cross = math.floor(self.cross_frac * self.per_category + 0.5)
        n_uniform = self.per_category - n_clean - n_cross
        if n_uniform < 0:
            raise ValueError(
                "clean_frac and cross_frac round to more samples than per_category"
            )
        return n_clean, n_cross, n_uniform


@np.errstate(over="ignore")  # a draw past float32's range raises below, naming the options
def generate_synthetic(cfg: SynthConfig) -> tuple[FeatureSet, SyntheticTruth]:
    """Deterministic synthetic dataset with planted label noise.

    Blob centers are drawn once from ``CENTER_BOX``; each category then emits
    its clean, cross-label and uniform-noise blocks in that order. Identical
    configs produce bitwise-identical outputs.
    """
    cfg.validate()
    n_clean, n_cross, n_uniform = cfg.kind_counts()
    c_count, d = cfg.n_categories, cfg.n_features
    centers = component_rng(cfg.seed, "centers").uniform(
        CENTER_BOX[0], CENTER_BOX[1], size=(c_count, d)
    )
    margin = cfg.box_margin_sigmas * cfg.blob_sigma
    box_lo = centers.min(axis=0) - margin
    box_hi = centers.max(axis=0) + margin

    feats: list[np.ndarray] = []
    labels: list[int] = []
    ids: list[str] = []
    true_labels: list[int] = []
    kinds: list[str] = []
    for c in range(c_count):
        rng = component_rng(cfg.seed, "category", c)
        clean = centers[c] + cfg.blob_sigma * rng.standard_normal((n_clean, d))
        # Source categories for cross-label noise: uniform over the others.
        raw = rng.integers(0, c_count - 1, size=n_cross)
        sources = raw + (raw >= c)
        cross = centers[sources] + cfg.blob_sigma * rng.standard_normal((n_cross, d))
        uniform = rng.uniform(box_lo, box_hi, size=(n_uniform, d))
        feats.append(np.vstack([clean, cross, uniform]).astype(np.float32))
        labels.extend([c] * cfg.per_category)
        ids.extend(f"c{c:03d}_{i:04d}" for i in range(cfg.per_category))
        true_labels.extend([c] * n_clean)
        true_labels.extend(int(s) for s in sources)
        true_labels.extend([NO_CATEGORY] * n_uniform)
        kinds.extend([NOISE_CLEAN] * n_clean)
        kinds.extend([NOISE_CROSS] * n_cross)
        kinds.extend([NOISE_UNIFORM] * n_uniform)

    features = np.vstack(feats)
    if not np.isfinite(features).all():  # a Gaussian draw far out in the tail
        raise ValueError(f"blob_sigma = {cfg.blob_sigma!r} with box_margin_sigmas = "
                         f"{cfg.box_margin_sigmas!r} draws a feature value outside float32's range")
    fs = FeatureSet(
        features=features,
        labels=np.array(labels, dtype=np.int64),
        sample_ids=tuple(ids),
        category_names=tuple(f"cat{c:03d}" for c in range(c_count)),
    )
    truth = SyntheticTruth(
        true_labels=np.array(true_labels, dtype=np.int64), noise_kind=tuple(kinds)
    )
    return fs, truth
