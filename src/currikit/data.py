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
import math
import struct
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fileio import atomic_write_bytes, atomic_write_text
from .seeding import component_rng

MAGIC = b"CRFS"
BINARY_VERSION = 1

NOISE_CLEAN = "clean"
NOISE_CROSS = "cross-label"
NOISE_UNIFORM = "uniform-noise"
NOISE_KINDS = (NOISE_CLEAN, NOISE_CROSS, NOISE_UNIFORM)

#: true_label value for samples drawn from no category (background noise).
NO_CATEGORY = -1

#: Blob centers are drawn uniformly from this box in every dimension.
CENTER_BOX = (0.0, 10.0)

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


def _names_its_file(load):
    """`load(path, ...)`, with every DatasetError it raises prefixed by the path."""
    @functools.wraps(load)
    def wrapper(path, *args, **kwargs):
        try:
            return load(path, *args, **kwargs)
        except DatasetError as exc:
            raise DatasetError(f"{path}: {exc}") from None
    return wrapper


def _format_f32(value: np.float32) -> str:
    # Shortest decimal that parses back to the identical float32.
    return np.format_float_positional(value, unique=True, trim="0")


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

    def category_indices(self, category: int) -> np.ndarray:
        return np.flatnonzero(self.labels == category)

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
    ids = []
    labels = np.empty(n, dtype=np.int64)
    features = np.empty((n, d), dtype=np.float32)
    for i in range(n):
        ids.append(cur.string(f"sample id at row {i}"))
        labels[i] = cur.u32(f"label at row {i}")
        raw = cur.read(4 * d, f"features at row {i}")
        features[i] = np.frombuffer(raw, dtype="<f4")
    if cur.pos != len(data):
        raise DatasetError(f"{len(data) - cur.pos} trailing bytes after row {n - 1}")
    return FeatureSet(features=features, labels=labels, sample_ids=tuple(ids), category_names=names)


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

# The csv writer prints _format_f32's text with integer numpy arithmetic.
# _format_f32 runs numpy's Dragon4 (Steele & White, PLDI 1990): the fewest
# decimals k at which a multiple of 10**-k lies strictly inside the value's
# rounding interval, then the nearer of the value's floor and ceiling at that
# digit, the even one on a tie. A normal float32 is v = m / 2**s with m of 24
# bits; in units of half an ulp, 2**-(s + 1), it is 2m and its interval reaches
# one unit either side. (Dragon4 takes a quarter ulp below a power of two; for
# the 36 powers of two here that moves no digit, which the tests check.) The
# ends need s + 1 decimals and v at most s, so an end is never the candidate,
# and the nearer of floor and ceiling is inside whenever either is. At k
# decimals 10**k * v is 2m * 5**k / 2**(s + 1 - k): a shift for the floor, a
# mask for the remainder, and a margin of 5**k. Exponent fields 114..149
# (2**-13 <= |v| < 2**23) need k <= 11, so 2m * 5**k stays below 2**51 and
# every unit and remainder the search reaches below 2**54. Other cells (zeros,
# subnormals, tiny and huge values) are printed by _format_f32 itself.
_EXACT_FIELDS = (114, 149)
_POW10 = 10 ** np.arange(19, dtype=np.int64)


@functools.cache
def _interval_tables() -> tuple[np.ndarray, ...]:
    # Indexed by exponent field: -k for the fewest decimals k with 10**-k
    # below an ulp, 2**-s, where a candidate is sure to lie inside; the
    # margin 5**k; the shift s + 1 - k; the digit unit 2**shift.
    s = np.clip(150 - np.arange(256), 0, 60)
    k = np.array([len(str(2 ** int(e))) for e in s])
    shift = np.clip(s + 1 - k, 0, 62)
    return -k, 5**k, shift, np.left_shift(1, shift)


def _shortest_f32(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, p): _format_f32 prints n * 10**p for each int64 float32 bit
    pattern whose exponent field lies in _EXACT_FIELDS; the sign is ignored."""
    neg_k, pow5, shifts, units = _interval_tables()
    field = (bits >> 23) & 0xFF
    shift = np.take(shifts, field)
    margin = np.take(pow5, field)
    x = (((bits & 0x7FFFFF) | 0x800000) << 1) * margin
    # floor t and remainder r of 10**k * v in its digit unit, at the fewest
    # decimals k certain to hold a candidate.
    t = x >> shift
    r = x - (t << shift)
    unit = np.take(units, field)
    p = np.take(neg_k, field)
    # A candidate inside at one decimal is inside at every longer one, so
    # drop decimals while the floor or the ceiling stays inside.
    at, ct, cr, cu, cm = None, t, r, unit, margin
    while True:
        q = ct // 10
        cr = (ct - 10 * q) * cu + cr
        cu = cu * 10
        keep = np.flatnonzero((cr < cm) | (cr + cm > cu))
        if not keep.size:
            break
        ct, cr, cu, cm = q[keep], cr[keep], cu[keep], cm[keep]
        at = keep if at is None else at[keep]
        t[at], r[at], unit[at] = ct, cr, cu
        p[at] += 1
    r += r
    return t + ((r > unit) | ((r == unit) & (t % 2 == 1))), p


_BLANK = b"\xff"  # a byte no UTF-8 text holds: padding the writer deletes


@functools.cache
def _glyph_table() -> tuple[np.ndarray, dict[str, int]]:
    """4-byte text pieces as uint32 words, and the offset of each kind."""
    blank = _BLANK[0]

    def digits(count, width):
        places = 10 ** np.arange(width - 1, -1, -1)
        return (np.arange(count)[:, None] // places % 10 + 48).astype(np.uint8)

    def blank_leading(d):  # the last digit stays
        lead = np.cumsum(d != 48, axis=1) == 0
        lead[:, -1] = False
        return np.where(lead, blank, d)

    def blank_trailing(d):  # zero becomes all blank
        return np.where(np.cumsum((d != 48)[:, ::-1], axis=1)[:, ::-1] == 0, blank, d)

    def column(count, byte):
        return np.full((count, 1), byte, dtype=np.uint8)

    d3, d4 = digits(1000, 3), digits(10000, 4)
    short = blank_leading(d3)
    high = short.copy()
    high[0] = blank
    first = blank_trailing(d3)
    first[0, 0] = ord("0")
    last = blank_trailing(d3)
    kinds = {
        # sign and a whole part below 1000
        "whole": [np.hstack([column(1000, b), short]) for b in (blank, ord("-"))],
        # sign and whole // 10**4, then whole % 10**4 after a zero or not
        "high": [np.hstack([column(1000, b), high]) for b in (blank, ord("-"))],
        "low": [blank_leading(d4), d4],
        # the point and the first three decimals, the last ones or not
        "first": [np.hstack([column(1000, ord(".")), first]),
                  np.hstack([column(1000, ord(".")), d3])],
        "middle": [blank_trailing(d4), d4],
        # three decimals and the cell's separator
        "last": [np.hstack([last, column(1000, b)]) for b in (ord(","), ord("\n"))],
        "blank": [np.full((1, 4), blank, dtype=np.uint8)],
    }
    offsets, start = {}, 0
    for kind, parts in kinds.items():
        offsets[kind] = start
        start += sum(len(part) for part in parts)
    pieces = np.vstack([part for parts in kinds.values() for part in parts])
    return np.ascontiguousarray(pieces, dtype=np.uint8).view(np.uint32).ravel(), offsets


def _csv_block(block: np.ndarray, prefixes: list[bytes]) -> bytes:
    """The csv lines of `block`'s rows, each after its ``id,label,`` prefix.

    Each cell is laid out as whole-part words, then decimal words, the last
    of which carries the separator, all taken from _glyph_table; every word
    is 4 bytes of text padded with _BLANK, which is deleted at the end."""
    glyphs, offset = _glyph_table()
    rows, d = block.shape
    bits = block.view(np.uint32).ravel().astype(np.int64)
    field = (bits >> 23) & 0xFF
    others = np.flatnonzero((field < _EXACT_FIELDS[0]) | (field > _EXACT_FIELDS[1]))
    texts = [_format_f32(v).encode() for v in block.ravel()[others]]
    bits[others] = 0x3F800000  # 1.0; these cells are written from texts below
    field[others] = 127
    n, p = _shortest_f32(bits)
    # When a decimal is printed, the value's whole part is its floor: a
    # whole number inside the interval would have been printed instead.
    decimals = np.maximum(-p, 0)
    whole = np.where(decimals > 0, ((bits & 0x7FFFFF) | 0x800000) >> (150 - field),
                     n * _POW10[np.maximum(p, 0)])
    fraction = n - whole * _POW10[decimals]
    fraction[decimals == 0] = 0
    np.maximum(decimals, 1, out=decimals)

    whole_words = 1 if whole.max() < 1000 else 2
    middle = max(0, -(-(int(decimals.max()) - 6) // 4))
    width = max([whole_words + middle + 2] + [1 + -(-len(text) // 4) for text in texts])
    codes = np.empty((rows, d, width), dtype=np.intp)
    flat = codes.reshape(rows * d, width)
    neg = 1000 * (bits >> 31)
    if whole_words == 1:
        flat[:, 0] = offset["whole"] + neg + whole
    else:
        hi = whole // 10000
        flat[:, 0] = offset["high"] + neg + hi
        flat[:, 1] = offset["low"] + 10000 * (hi > 0) + (whole - 10000 * hi)
    # The decimals, left-aligned in 3 + 4 * middle + 3 places; a word with
    # no decimal after it blanks its trailing zeros.
    places = 6 + 4 * middle
    scaled = fraction * _POW10[places - decimals]
    rest = places - 3
    flat[:, whole_words] = offset["first"] + 1000 * (decimals > 3) + scaled // _POW10[rest]
    for j in range(1, middle + 1):
        rest -= 4
        flat[:, whole_words + j] = (offset["middle"] + 10000 * (decimals > places - rest)
                                    + scaled // _POW10[rest] % 10000)
    flat[:, whole_words + middle + 1] = offset["last"] + scaled % 1000
    codes[:, -1, whole_words + middle + 1] += 1000
    codes[..., whole_words + middle + 2:] = offset["blank"]

    pad = -(-max(map(len, prefixes)) // 4)
    out = np.empty((rows, pad + d * width), dtype=np.uint32)
    out[:, :pad] = np.frombuffer(
        b"".join(prefix.ljust(4 * pad, _BLANK) for prefix in prefixes), dtype=np.uint32
    ).reshape(rows, pad)
    np.take(glyphs, codes.reshape(rows, d * width), out=out[:, pad:])
    cells = out[:, pad:].reshape(rows, d, width)
    for i, text in zip(others.tolist(), texts):
        row, col = divmod(i, d)
        text += b"\n" if col == d - 1 else b","
        cells[row, col] = np.frombuffer(text.ljust(4 * width, _BLANK), dtype=np.uint32)
    return out.tobytes().translate(None, _BLANK)


def _csv_bytes(fs: FeatureSet) -> bytearray:
    """The csv file, one block of rows at a time. The blocks go into one
    buffer that grows in place, so no joined copy is ever held beside them."""
    out = bytearray(",".join(["id", "label"] + [f"f{k}" for k in range(fs.n_features)]).encode())
    out += b"\n"
    labels = fs.labels.tolist()
    rows = max(1, CSV_BLOCK_VALUES // fs.n_features)
    for start in range(0, fs.n_samples, rows):
        stop = min(start + rows, fs.n_samples)
        prefixes = [f"{_csv_id(fs.sample_ids[i])},{labels[i]},".encode() for i in range(start, stop)]
        out += _csv_block(fs.features[start:stop], prefixes)
    return out


def _features_to_csv(fs: FeatureSet) -> str:
    """The text ``save_features`` writes in the csv format."""
    return _csv_bytes(fs).decode("utf-8")


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


def _features_from_csv(
    lines: Iterable[str], category_names: tuple[str, ...] | None = None
) -> FeatureSet:
    def check_header(header: list[str] | None) -> int:
        if header is None:
            raise DatasetError("empty csv file")
        if len(header) < 3 or header[0] != "id" or header[1] != "label":
            raise DatasetError(f"bad csv header {header!r}")
        if header[2:] != [f"f{k}" for k in range(len(header) - 2)]:
            raise DatasetError(f"bad csv feature columns {header[2:]!r}")
        return len(header)

    ids: list[str] = []
    labels: list[int] = []
    rows: list[np.ndarray] = []
    for i, row in _csv_rows(lines, check_header):
        ids.append(row[0])
        labels.append(_label_cell(row[1], i))
        try:
            vec = np.array(row[2:], dtype=np.float32)
        except ValueError:
            raise DatasetError(f"row {i}: unparseable feature value") from None
        if not np.isfinite(vec).all():
            raise DatasetError(f"row {i}: non-finite feature value")
        rows.append(vec)
    if not rows:
        raise DatasetError("csv file has no data rows")
    if category_names is None:
        category_names = tuple(f"cat{k:03d}" for k in range(max(labels) + 1))
    return FeatureSet(
        features=np.vstack(rows),
        labels=np.array(labels, dtype=np.int64),
        sample_ids=tuple(ids),
        category_names=category_names,
    )


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


@_names_its_file
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
    out = io.StringIO()
    out.write("id,true_label,noise_kind\n")
    for sid, label, kind in zip(fs.sample_ids, truth.true_labels, truth.noise_kind):
        out.write(f"{_csv_id(sid)},{int(label)},{kind}\n")
    atomic_write_text(path, out.getvalue())


@_names_its_file
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


@_names_its_file
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
        if self.blob_sigma <= 0:
            raise ValueError("blob_sigma must be positive")
        if self.box_margin_sigmas <= 0:
            raise ValueError("box_margin_sigmas must be positive")
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

    fs = FeatureSet(
        features=np.vstack(feats),
        labels=np.array(labels, dtype=np.int64),
        sample_ids=tuple(ids),
        category_names=tuple(f"cat{c:03d}" for c in range(c_count)),
    )
    truth = SyntheticTruth(
        true_labels=np.array(true_labels, dtype=np.int64), noise_kind=tuple(kinds)
    )
    return fs, truth
