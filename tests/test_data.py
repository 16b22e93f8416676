import contextlib
import csv
import decimal
import math
import re
import struct
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from currikit import csvtext, data
from currikit.data import (
    FORMATS,
    DatasetError,
    FeatureSet,
    SynthConfig,
    SyntheticTruth,
    NO_CATEGORY,
    NOISE_CLEAN,
    NOISE_CROSS,
    NOISE_UNIFORM,
    generate_synthetic,
    load_features,
    load_reference_labels,
    load_truth,
    save_features,
    save_truth,
)
from oracles import cursor_features, reference_from_truth


def small_fs(names=("a", "b")) -> FeatureSet:
    return FeatureSet(
        features=np.array([[0.0, 1.5], [2.0, -3.25], [0.5, 0.5], [9.0, 9.0]], dtype=np.float32),
        labels=np.array([0, 1, 0, 1]),
        sample_ids=("s0", "s1", "s2", "s3"),
        category_names=names,
    )


def random_fs(rng: np.random.Generator, default_names: bool = False) -> FeatureSet:
    n = int(rng.integers(1, 40))
    d = int(rng.integers(1, 9))
    c = int(rng.integers(1, 6))
    feats = (rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4)).astype(np.float32)
    if default_names:
        labels = np.concatenate([np.arange(c), rng.integers(0, c, n)])[:n]
        labels = labels if n >= c else np.zeros(n, dtype=np.int64)
        c = int(labels.max()) + 1
        names = tuple(f"cat{k:03d}" for k in range(c))
    else:
        labels = rng.integers(0, c, n)
        names = tuple(f"name-{k}" for k in range(c))
    ids = tuple(f"id{int(x):08d}" for x in rng.choice(10**7, size=n, replace=False))
    return FeatureSet(features=feats, labels=labels, sample_ids=ids, category_names=names)


class TestFeatureSetValidation:
    def test_rejects_nan(self):
        with pytest.raises(DatasetError, match="row 1"):
            FeatureSet(
                features=np.array([[0.0], [np.nan]], dtype=np.float32),
                labels=np.array([0, 0]),
                sample_ids=("a", "b"),
                category_names=("x",),
            )

    def test_rejects_duplicate_ids(self):
        with pytest.raises(DatasetError, match="duplicate"):
            FeatureSet(
                features=np.zeros((2, 1), dtype=np.float32),
                labels=np.array([0, 0]),
                sample_ids=("a", "a"),
                category_names=("x",),
            )

    def test_rejects_label_out_of_range(self):
        with pytest.raises(DatasetError, match="outside"):
            FeatureSet(
                features=np.zeros((1, 1), dtype=np.float32),
                labels=np.array([2]),
                sample_ids=("a",),
                category_names=("x", "y"),
            )

    def test_empty_categories_flagged(self):
        fs = FeatureSet(
            features=np.zeros((2, 1), dtype=np.float32),
            labels=np.array([0, 0]),
            sample_ids=("a", "b"),
            category_names=("x", "y", "z"),
        )
        assert fs.empty_categories() == (1, 2)

    def test_arrays_frozen(self):
        fs = small_fs()
        with pytest.raises(ValueError):
            fs.features[0, 0] = 5.0


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        fs = small_fs()
        path = tmp_path / "f.bin"
        save_features(fs, path, "binary")
        assert load_features(path, "binary") == fs

    def test_header_shape(self, tmp_path):
        fs = small_fs()
        path = tmp_path / "f.bin"
        save_features(fs, path, "binary")
        raw = path.read_bytes()
        assert raw[:4] == b"CRFS"
        loaded = load_features(path, "binary")
        assert (loaded.n_samples, loaded.n_features, loaded.n_categories) == (4, 2, 2)

    def test_empty_category_preserved(self, tmp_path):
        fs = FeatureSet(
            features=np.ones((2, 1), dtype=np.float32),
            labels=np.array([0, 0]),
            sample_ids=("a", "b"),
            category_names=("x", "y"),
        )
        path = tmp_path / "f.bin"
        save_features(fs, path, "binary")
        assert load_features(path, "binary").empty_categories() == (1,)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(DatasetError, match="magic"):
            load_features(path, "binary")

    def test_truncated(self, tmp_path):
        fs = small_fs()
        path = tmp_path / "f.bin"
        save_features(fs, path, "binary")
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(DatasetError, match="truncated"):
            load_features(path, "binary")

    def test_double_save_byte_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        fs = random_fs(rng)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_features(fs, p1, "binary")
        save_features(load_features(p1, "binary"), p2, "binary")
        assert p1.read_bytes() == p2.read_bytes()

    def test_large_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        n, d = 10_000, 64
        fs = FeatureSet(
            features=rng.standard_normal((n, d)).astype(np.float32),
            labels=rng.integers(0, 20, n),
            sample_ids=tuple(f"s{i:06d}" for i in range(n)),
            category_names=tuple(f"cat{k}" for k in range(20)),
        )
        p1, p2 = tmp_path / "big.bin", tmp_path / "big2.bin"
        save_features(fs, p1, "binary")
        loaded = load_features(p1, "binary")
        assert loaded == fs
        save_features(loaded, p2, "binary")
        assert p1.read_bytes() == p2.read_bytes()


# Text a UTF-8 file can hold. The CSV writers reject ids holding any of
# CSV_UNSAFE, so ids draw those characters often.
FILE_TEXT = st.characters(blacklist_categories=("Cs",))
CSV_UNSAFE = ',"\r\n'
ID_TEXT = st.one_of(FILE_TEXT, st.sampled_from(CSV_UNSAFE))


@st.composite
def feature_sets(draw):
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 4))
    c = draw(st.integers(1, 4))
    values = draw(st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                           min_size=n * d, max_size=n * d))
    ids = draw(st.lists(st.text(ID_TEXT, max_size=6), min_size=n, max_size=n, unique=True))
    return FeatureSet(
        features=np.array(values, dtype=np.float32).reshape(n, d),
        labels=np.array(draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n))),
        sample_ids=tuple(ids),
        category_names=tuple(draw(st.lists(st.text(FILE_TEXT, max_size=6),
                                           min_size=c, max_size=c))),
    )


def csv_unsafe(ids) -> bool:
    return any(ch in sid for sid in ids for ch in CSV_UNSAFE)


@pytest.mark.parametrize("fmt", FORMATS)
@settings(max_examples=80, deadline=None)
@given(fs=feature_sets())
def test_feature_file_round_trip_byte_exact(fmt, fs):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first"), Path(tmp, "second")
        if fmt == "csv" and csv_unsafe(fs.sample_ids):
            with pytest.raises(DatasetError, match="do not quote"):
                save_features(fs, first, fmt)
            return
        save_features(fs, first, fmt)
        # The csv format does not carry category names.
        loaded = load_features(first, fmt, category_names=fs.category_names)
        assert loaded == fs
        save_features(loaded, second, fmt)
        assert second.read_bytes() == first.read_bytes()


# float32 values drawn from their bit patterns: every exponent is as likely,
# so subnormals (exponent 0) and huge values are common. EDGES adds signed
# zeros, the extremes and both sides of numpy's switch to scientific notation.
F32_BITS = st.builds(
    lambda sign, exponent, mantissa: (sign << 31) | (exponent << 23) | mantissa,
    st.integers(0, 1), st.integers(0, 254), st.integers(0, 2**23 - 1),
)
_FINFO = np.finfo(np.float32)
SCIENTIFIC_EDGES = [9.99999e-5, 1e-4, 9999999.0, 1e7, 1e8, 1e16]
EDGES = np.array(
    [0.0, _FINFO.max, _FINFO.smallest_subnormal, _FINFO.smallest_normal, *SCIENTIFIC_EDGES],
    dtype=np.float32,
)
EDGES = np.concatenate([EDGES, np.nextafter(EDGES, np.float32(0)),
                        np.nextafter(EDGES, _FINFO.max)])
EDGES = np.concatenate([EDGES, -EDGES])
F32_VALUES = st.one_of(
    F32_BITS.map(lambda bits: np.array(bits, dtype=np.uint32).view(np.float32).item()),
    st.sampled_from(EDGES.tolist()),
)
PLAIN_ROW = [1.5, -3.25, 0.1, 123456.79, 0.001, -0.0]
SCIENTIFIC_ROW = [1e-4, -3e7, 1e-45, 9.99999e-5, 1e16, -1e8]


@st.composite
def csv_writer_rows(draw):
    d = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(F32_VALUES, min_size=d, max_size=d), min_size=0, max_size=12))
    return np.array([*rows, PLAIN_ROW[:d], SCIENTIFIC_ROW[:d]], dtype=np.float32)


@pytest.mark.parametrize("block_values", [1, 5, data.CSV_BLOCK_VALUES])
@settings(max_examples=150, deadline=None)
@given(features=csv_writer_rows())
def test_csv_writer_cells_match_reference(block_values, features):
    """Every feature cell is _format_f32's text, whichever way numpy printed it."""
    plain, scientific = features[-2:].astype(str)
    assert not any("e" in cell for cell in plain)
    assert all("e" in cell for cell in scientific)
    # Each id holds an "e", which must not be taken for a scientific cell.
    fs = FeatureSet(features=features, labels=np.zeros(len(features), dtype=np.int64),
                    sample_ids=tuple(f"e{i}" for i in range(len(features))),
                    category_names=("only",))
    with mock.patch.object(data, "CSV_BLOCK_VALUES", block_values):
        text = data._csv_bytes(fs).decode("utf-8")
    lines = text.split("\n")
    assert lines[-1] == ""
    assert len(lines) == len(features) + 2
    for i, (line, row) in enumerate(zip(lines[1:], features)):
        assert line.split(",") == [f"e{i}", "0", *(csvtext._format_f32(v) for v in row)]


def assert_block_prints_format_f32(block: np.ndarray) -> None:
    """csvtext._csv_block writes each row of `block` as _format_f32's cells."""
    prefixes = [f"r{i},{i % 3},".encode() for i in range(len(block))]
    lines = csvtext._csv_block(block, prefixes).decode().split("\n")
    assert lines[-1] == ""
    assert len(lines) == len(block) + 1
    for i, (line, row) in enumerate(zip(lines, block)):
        assert line.split(",") == [f"r{i}", str(i % 3), *(csvtext._format_f32(v) for v in row)]


# The exponent fields the kernel prints with integer arithmetic, 2**-13 <= |v| < 2**23.
EXACT = range(csvtext._EXACT_FIELDS[0], csvtext._EXACT_FIELDS[1] + 1)


@pytest.mark.parametrize("block_values", [1, 5, data.CSV_BLOCK_VALUES])
@settings(max_examples=15, deadline=None)
@given(drawn=st.lists(F32_VALUES, min_size=1, max_size=40), d=st.integers(1, 9),
       seed=st.integers(0, 2**32 - 1))
def test_csv_block_cells_match_format_f32(block_values, drawn, d, seed):
    """Blocks of the writer's sizes: drawn bit patterns and edges, then random
    values whose exponents reach a little past both ends of the exact path."""
    rng = np.random.default_rng(seed)
    rows = max(1, block_values // d)
    sign = rng.integers(0, 2, rows * d, dtype=np.uint32) << 31
    field = rng.integers(EXACT[0] - 3, EXACT[-1] + 4, rows * d, dtype=np.uint32) << 23
    values = (sign | field | rng.integers(0, 2**23, rows * d, dtype=np.uint32)).view(np.float32)
    values[rng.permutation(rows * d)[: len(drawn)]] = drawn[: rows * d]
    assert_block_prints_format_f32(values.reshape(rows, d))


def test_csv_block_dense_runs():
    """1024 consecutive float32 values around every power of two from 2**-14
    to 2**24, both signs: both ends of the exact path with their neighbours,
    each power itself, where Dragon4's lower margin is half as wide, and whole
    numbers up to 16777216. Then zeros, subnormals, whole numbers such as
    1200000 and cells with nine significant digits."""
    assert (2.0**(EXACT[0] - 127), 2.0**(EXACT[-1] - 126)) == (2.0**-13, 2.0**23)
    bits = np.arange(-512, 512) + (np.arange(EXACT[0] - 1, EXACT[-1] + 3)[:, None] << 23)
    runs = bits.astype(np.uint32).ravel().view(np.float32)
    nine = ["13.2696295", "0.107705094", "15.1090355", "0.000117875315"]
    assert [csvtext._format_f32(np.float32(text)) for text in nine] == nine
    finfo = np.finfo(np.float32)
    extra = np.array([0.0, finfo.smallest_subnormal, finfo.smallest_normal * 0.75,
                      finfo.smallest_normal, 10.0, 100.0, 1200000.0, 4194310.0, 8388600.0,
                      16777216.0, 0.1, 0.5, 1.0, *nine], dtype=np.float32)
    values = np.concatenate([runs, extra])
    values = np.concatenate([values, -values])
    assert_block_prints_format_f32(values[: len(values) // 7 * 7].reshape(-1, 7))
    assert_block_prints_format_f32(values.reshape(-1, 1))


class TestCsvFormat:
    def test_round_trip_default_names(self, tmp_path):
        rng = np.random.default_rng(11)
        fs = random_fs(rng, default_names=True)
        path = tmp_path / "f.csv"
        save_features(fs, path, "csv")
        assert load_features(path, "csv") == fs

    def test_header(self, tmp_path):
        fs = small_fs()
        path = tmp_path / "f.csv"
        save_features(fs, path, "csv")
        assert path.read_text().splitlines()[0] == "id,label,f0,f1"

    def test_nan_rejected_with_row(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,label,f0\na,0,1.0\nb,0,NaN\n")
        with pytest.raises(DatasetError, match="row 1"):
            load_features(path, "csv")

    def test_row_length_mismatch(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,label,f0,f1\na,0,1.0\n")
        with pytest.raises(DatasetError, match="row 0"):
            load_features(path, "csv")

    def test_crlf_files_read_as_lf(self, tmp_path):
        fs = small_fs()
        truth = SyntheticTruth(true_labels=np.array([0, 1, -1, 1]),
                               noise_kind=(NOISE_CLEAN,) * 3 + (NOISE_CROSS,))
        save_features(fs, tmp_path / "f.csv", "csv")
        save_truth(fs, truth, tmp_path / "t.csv")
        for name in ("f.csv", "t.csv"):
            raw = (tmp_path / name).read_bytes()
            (tmp_path / f"crlf-{name}").write_bytes(raw.replace(b"\n", b"\r\n"))
        assert load_features(tmp_path / "crlf-f.csv", "csv", fs.category_names) == fs
        assert load_truth(tmp_path / "crlf-t.csv") == (fs.sample_ids, truth)
        assert load_reference_labels(tmp_path / "crlf-t.csv") == {
            "s0": 0, "s1": 1, "s2": -1, "s3": 1}

    def test_category_metadata_restored_by_caller(self, tmp_path):
        fs = small_fs(names=("first", "second"))
        path = tmp_path / "f.csv"
        save_features(fs, path, "csv")
        loaded = load_features(path, "csv", category_names=("first", "second"))
        assert loaded == fs

    def test_inferred_categories_bounded_by_rows_and_limit(self, tmp_path):
        path = tmp_path / "f.csv"
        rows = "".join(f"r{i},{i},1.0\n" for i in range(3))
        path.write_text(f"id,label,f0\n{rows}", encoding="utf-8")
        with mock.patch.object(data, "CSV_INFERRED_CATEGORIES", 2):
            assert load_features(path, "csv").n_categories == 3
        path.write_text(f"id,label,f0\n{rows}a,4,1.0\n", encoding="utf-8")
        with mock.patch.object(data, "CSV_INFERRED_CATEGORIES", 5):
            assert load_features(path, "csv").n_categories == 5
        with mock.patch.object(data, "CSV_INFERRED_CATEGORIES", 4):
            with pytest.raises(DatasetError, match="label 4 needs 5 categories, more than "
                               "the 4 data rows and the limit of 4"):
                load_features(path, "csv")
            # Names from the caller set the count; nothing is inferred.
            assert load_features(path, "csv", tuple("vwxyz")).n_categories == 5

    def test_all_negative_labels_name_the_first(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,label,f0\na,-1,1.0\nb,-2,2.0\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=": label -1 at row 0 is negative; "
                           "category ids start at 0$"):
            load_features(path, "csv")


class TestTruthIO:
    def test_round_trip(self, tmp_path):
        fs = small_fs()
        truth = SyntheticTruth(
            true_labels=np.array([0, 0, -1, 1]),
            noise_kind=(NOISE_CLEAN, NOISE_CROSS, NOISE_UNIFORM, NOISE_CLEAN),
        )
        path = tmp_path / "t.csv"
        save_truth(fs, truth, path)
        ids, loaded = load_truth(path)
        assert ids == fs.sample_ids
        assert loaded == truth

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(
            st.text(ID_TEXT, max_size=8),
            st.integers(NO_CATEGORY, 2**40),
            st.sampled_from((NOISE_CLEAN, NOISE_CROSS, NOISE_UNIFORM)),
        ),
        min_size=1, max_size=12, unique_by=lambda row: row[0],
    ))
    def test_round_trip_byte_exact(self, rows):
        ids, labels, kinds = zip(*rows)
        fs = FeatureSet(features=np.zeros((len(rows), 1), dtype=np.float32),
                        labels=np.zeros(len(rows), dtype=np.int64), sample_ids=ids,
                        category_names=("only",))
        truth = SyntheticTruth(true_labels=np.array(labels), noise_kind=kinds)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "first.csv"), Path(tmp, "second.csv")
            if csv_unsafe(ids):
                with pytest.raises(DatasetError, match="do not quote"):
                    save_truth(fs, truth, first)
                return
            save_truth(fs, truth, first)
            loaded_ids, loaded = load_truth(first)
            assert loaded_ids == ids
            assert loaded == truth
            save_truth(fs, loaded, second)
            assert second.read_bytes() == first.read_bytes()

    def test_reference_loader_accepts_predictions(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,predicted_label\na,3\nb,1\n")
        assert load_reference_labels(path) == {"a": 3, "b": 1}

    def test_reference_loader_accepts_truth(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,true_label,noise_kind\na,0,clean\n")
        assert load_reference_labels(path) == {"a": 0}


# reader: (load, header, data row, row one cell short,
#          message for an empty file, for the header "id,x,y")
CSV_READERS = {
    "features": (lambda path: load_features(path, "csv"), "id,label,f0", "a,0,1.0", "b,0",
                 "empty csv file", "bad csv header ['id', 'x', 'y']"),
    "truth": (load_truth, "id,true_label,noise_kind", "a,0,clean", "b,0",
              "bad truth header None", "bad truth header ['id', 'x', 'y']"),
    "reference": (load_reference_labels, "id,predicted_label", "a,0", "b",
                  "unrecognized reference header None",
                  "unrecognized reference header ['id', 'x', 'y']"),
}


@pytest.mark.parametrize("case", ["empty", "wrong-header", "short-row", "blank-then-short-row",
                                  "over-field-limit", "not-utf-8"])
@pytest.mark.parametrize("reader", list(CSV_READERS))
def test_csv_reader_errors(tmp_path, reader, case):
    """The three csv readers check the header, blank rows and cell counts
    alike; rows are numbered from 0 after the header, blank rows included."""
    load, header, row, short, empty_message, header_message = CSV_READERS[reader]
    width = header.count(",") + 1
    long_id = "x" * (csv.field_size_limit() + 1)
    path = tmp_path / "in.csv"
    text, message = {
        "empty": ("", f"{path}: {empty_message}"),
        "wrong-header": (f"id,x,y\n{row}\n", f"{path}: {header_message}"),
        "short-row": (f"{header}\n{row}\n{short}\n",
                      f"{path}: row 1 has {width - 1} cells, expected {width}"),
        "blank-then-short-row": (f"{header}\n{row}\n\n{short}\n",
                                 f"{path}: row 2 has {width - 1} cells, expected {width}"),
        "over-field-limit": (f"{header}\n{row}\n{long_id}{row[1:]}\n",
                             f"{path}: row 1: field larger than field limit "
                             f"({csv.field_size_limit()})"),
        # A byte that is not UTF-8 well past the decoder's first read: the
        # message names the file and no row or position.
        "not-utf-8": ("".join([f"{header}\n"] + [f"r{i}{row[1:]}\n" for i in range(2_000)]
                              ).encode() + b"\xff" + row[1:].encode(),
                      f"{path}: not UTF-8 text"),
    }[case]
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(DatasetError) as caught:
        load(path)
    assert str(caught.value) == message


# The csv feature reader reads a file in blocks, and hands any file it cannot
# show it reads as the row loop does to that loop. The tests below load each
# csv file three ways: as load_features does, through the loop alone, and,
# for a file the block reader must take, with the loop patched to raise. Each
# binary file is loaded as load_features does and by the cursor loop in
# tests/oracles.py.
LOOPS = {"csv": ("_csv_feature_blocks", "_csv_feature_rows")}


def load_outcome(path, fmt, patch=None):
    """The loaded FeatureSet's bits, or the type and text of what loading raised."""
    with mock.patch.object(data, patch[0], **patch[1]) if patch else contextlib.nullcontext():
        try:
            fs = load_features(path, fmt)
        except Exception as exc:  # compared between the readers
            return type(exc).__name__, str(exc)
    return (fs.features.shape, fs.features.tobytes(), fs.labels.tolist(), fs.sample_ids,
            fs.category_names)


def assert_block_reader_matches_loop(path, fmt, taken: bool) -> None:
    blocks, loop = LOOPS[fmt]
    outcome = load_outcome(path, fmt)
    assert outcome == load_outcome(path, fmt, (blocks, {"return_value": None}))
    if taken:
        raising = (loop, {"side_effect": AssertionError(f"{loop} ran")})
        assert load_outcome(path, fmt, raising) == outcome


def assert_binary_reader_matches_cursor_loop(path) -> None:
    oracle = ("_features_from_binary", {"side_effect": cursor_features})
    assert load_outcome(path, "binary") == load_outcome(path, "binary", oracle)


_EXACT = decimal.Context(prec=400)


def halfway(bits: int) -> str:
    """The exact decimal halfway between a float32 and the next one away from zero."""
    lo, hi = np.array([bits, bits + 1], dtype=np.uint32).view(np.float32).tolist()
    if not math.isfinite(hi):
        hi = lo
    return format(_EXACT.divide(_EXACT.add(decimal.Decimal(lo), decimal.Decimal(hi)), 2), "f")


# 1 + 2**-24 + 2**-80: float32 1.0000001 when rounded once, 1.0 through a double.
DOUBLE_ROUNDING = format(_EXACT.add(_EXACT.power(2, -24), _EXACT.add(1, _EXACT.power(2, -80))),
                         "f")
FINITE_F32_BITS = F32_BITS.filter(lambda bits: (bits >> 23) & 0xFF != 0xFF)
# Cells the block reader never takes: csv quoting, text only Python's float
# reads, padding (np.loadtxt alone reads "1.5\x1c"), values that are not
# finite or not numbers, a NUL; and any text of the characters of decimals.
ODD_FEATURE_CELLS = st.sampled_from([
    '"1.5"', '"1,5"', "1_0", "١٢", " 1.5", "2.5 ", "\t3", "1.5\x1c", " 1", "inf", "-inf",
    "nan", "NaN", "1e400", "-1e400", "", " ", "x", "0x1p3", "1e", "1\x00", "\x1f1"
]) | st.text("0123456789.eE+-", max_size=8)
# Labels as int() reads them, and labels it rejects.
ODD_LABELS = [" 1", "+1", "1_0", "٣", "x", "", "-1", "1.0", '"1"']
# Sample ids: any text without a comma, a quote or a line break; the odd ones
# hold a quote or a NUL.
ID_CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n\x00')
ODD_IDS = ['"q"', 'a"b', "a\x00b"]


@st.composite
def feature_csv_files(draw):
    """(text, csv field size limit, whether the block reader must take it).
    Half the files draw no odd row or cell."""
    d = draw(st.integers(1, 4))
    limit = draw(st.sampled_from([csv.field_size_limit(), 24]))
    may_be_odd = draw(st.booleans())
    odd = False

    def pick(odd_values, clean):
        nonlocal odd
        if may_be_odd and draw(st.integers(0, 9)) == 0:
            odd = True
            return draw(odd_values)
        return draw(clean)

    float_text = st.one_of(
        F32_VALUES.map(lambda v: csvtext._format_f32(np.float32(v))),
        st.floats(-3.4e38, 3.4e38).map(repr),  # doubles that round to a finite float32
        F32_VALUES.map(lambda v: f"{v:.20e}"),
        FINITE_F32_BITS.map(halfway),
        st.just(DOUBLE_ROUNDING),
    )
    header = ",".join(["id", "label"] + [f"f{k}" for k in range(d)])
    lines = [pick(st.just('"id"' + header[2:]), st.just(header))]
    shapes = ["row"] * 6 + ["blank"] + ["spaces", "extra", "short"] * may_be_odd
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(shapes))
        if shape in ("blank", "spaces"):
            odd |= shape == "spaces"
            lines.append("" if shape == "blank" else " ")
            continue
        cells = [pick(st.sampled_from(ODD_IDS), st.text(ID_CHARS, max_size=5)),
                 pick(st.sampled_from(ODD_LABELS), st.integers(0, 3).map(str))]
        cells += [pick(ODD_FEATURE_CELLS, float_text) for _ in range(d)]
        if shape != "row":
            odd = True
            cells = cells + ["1.5"] if shape == "extra" else cells[:-1]
        odd |= any(len(cell) > limit for cell in cells)
        lines.append(",".join(cells))
    ends = [draw(st.sampled_from(["\n"] * 6 + ["\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)), limit, not odd


@settings(max_examples=80, deadline=None)
@given(case=feature_csv_files(), block_values=st.sampled_from([1, 5, data.CSV_BLOCK_VALUES]))
def test_csv_block_reader_matches_row_loop(case, block_values):
    """Random float32 text, decimals past double precision, halfway cases and
    odd rows: the same FeatureSet bits or the same error as the row loop."""
    text, limit, taken = case
    saved = csv.field_size_limit(limit)
    try:
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(data, "CSV_BLOCK_VALUES", block_values):
            path = Path(tmp, "f.csv")
            path.write_bytes(text.encode("utf-8"))
            assert_block_reader_matches_loop(path, "csv", taken)
    finally:
        csv.field_size_limit(saved)


HANDED_OFF = {
    "loadtxt-only-padding": "a,0,1.5\x1c,2",
    "python-only-digits": "a,0,1_0,١٢",
    "overflow": "a,0,1e400,2",
    "not-a-number": "a,0,nan,2",
    "extra-cell": "a,0,1,2,3",
    "short-row": "a,0,1",
    "spaces-row": " ",
    "quoted-id": '"a",0,1,2',
    "nul-in-id": "a\x00,0,1,2",
    "label-int-rejects": "a,x,1,2",
    "over-field-limit": "x" * (csv.field_size_limit() + 1) + ",0,1,2",
}


@pytest.mark.parametrize("row", list(HANDED_OFF.values()), ids=list(HANDED_OFF))
def test_csv_block_reader_hands_off(tmp_path, row):
    """Files the block reader must leave to the row loop, each in every row."""
    path = tmp_path / "f.csv"
    path.write_text(f"id,label,f0,f1\n{row}\n{row.replace('a', 'b', 1)}\n", encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        assert data._csv_feature_blocks(fh) is None
    assert_block_reader_matches_loop(path, "csv", False)


def binary_file(ids: list[bytes], labels: list[int], features: bytes, d: int, c: int) -> bytes:
    head = struct.pack("<4sIIII", b"CRFS", 1, len(ids), d, c)
    names = b"".join(struct.pack("<I", 1) + b"n" for _ in range(c))
    rows = (struct.pack("<I", len(sid)) + sid + struct.pack("<I", label)
            + features[4 * d * i : 4 * d * (i + 1)]
            for i, (sid, label) in enumerate(zip(ids, labels)))
    return head + names + b"".join(rows)


BINARY_IDS = st.one_of(
    st.text(FILE_TEXT, max_size=6).map(str.encode),  # ASCII and multi-byte UTF-8
    st.text(FILE_TEXT, max_size=3).map(lambda s: (s + "\x00").encode()),
    st.binary(max_size=6),  # often not UTF-8
)


@settings(max_examples=50, deadline=None)
@given(data_=st.data(), n=st.integers(1, 6), d=st.integers(1, 3), c=st.integers(1, 3))
def test_binary_block_reader_matches_cursor_loop(data_, n, d, c):
    """Mixed id lengths, ids ending in NUL, invalid UTF-8 at any row, a cut
    anywhere and trailing bytes: the same FeatureSet bits or the same error
    as the cursor loop."""
    ids = data_.draw(st.lists(BINARY_IDS, min_size=n, max_size=n))
    labels = data_.draw(st.lists(st.integers(0, c), min_size=n, max_size=n))
    bits = data_.draw(st.lists(F32_BITS, min_size=n * d, max_size=n * d))
    raw = binary_file(ids, labels, np.array(bits, dtype="<u4").tobytes(), d, c)
    cut = data_.draw(st.sampled_from(["none", "truncate", "trailing"]))
    if cut == "truncate":
        raw = raw[: data_.draw(st.integers(0, len(raw) - 1))]
    elif cut == "trailing":
        raw += data_.draw(st.binary(min_size=1, max_size=9))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "f.bin")
        path.write_bytes(raw)
        assert_binary_reader_matches_cursor_loop(path)


def test_binary_block_reader_every_truncation(tmp_path):
    """A file with ids of 0 to 9 bytes, multi-byte UTF-8 and a trailing NUL,
    cut at every offset and with trailing bytes."""
    ids = ["", "a", "é\x00", "日本語", "s3" * 4 + "x"]
    fs = FeatureSet(features=np.arange(10, dtype=np.float32).reshape(5, 2) / 3,
                    labels=np.array([0, 1, 2, 1, 0]), sample_ids=ids,
                    category_names=("x", "y", "z"))
    save_features(fs, tmp_path / "f.bin", "binary")
    raw = (tmp_path / "f.bin").read_bytes()
    path = tmp_path / "cut.bin"
    for end in range(len(raw) + 1):
        path.write_bytes(raw[:end])
        assert_binary_reader_matches_cursor_loop(path)
    for extra in (b"\x00", b"\x01\x00\x00\x00", raw[-13:]):
        path.write_bytes(raw + extra)
        assert_binary_reader_matches_cursor_loop(path)


def test_binary_reader_every_cut_of_the_last_record(tmp_path):
    """A long first id leaves room for the header's size check to pass every
    cut of the last record, so the record loop words each: inside a
    multi-byte id and an id that is not UTF-8, the cut is a truncation."""
    for last in ("日本語".encode(), b"\xff\xfe\xfd"):
        raw = binary_file([b"x" * 40, last], [0, 1], bytes(16), 2, 2)
        path = tmp_path / "cut.bin"
        for end in range(len(raw) + 1):
            path.write_bytes(raw[:end])
            assert_binary_reader_matches_cursor_loop(path)


@pytest.mark.parametrize("limit", [None, 40], ids=["field-limit", "lines-over-field-limit"])
@pytest.mark.parametrize("fmt", FORMATS)
def test_synth_files_are_read_in_blocks(tmp_path, fmt, limit):
    """The files synth writes never reach the csv row loop, so a check that
    sent every file to the loop would fail here; neither do lines longer
    than the csv field size limit whose cells are all shorter."""
    fs, _ = generate_synthetic(SynthConfig(n_categories=3, per_category=200, n_features=64,
                                           clean_frac=0.6, cross_frac=0.25,
                                           uniform_frac=0.15, seed=3))
    path = tmp_path / f"features.{fmt}"
    save_features(fs, path, fmt)
    saved = csv.field_size_limit(limit or csv.field_size_limit())
    try:
        with mock.patch.object(data, "_csv_feature_rows", side_effect=AssertionError("row loop")):
            assert load_features(path, fmt, fs.category_names) == fs
    finally:
        csv.field_size_limit(saved)


BASE = dict(n_categories=10, per_category=200, n_features=8,
            clean_frac=0.60, cross_frac=0.25, uniform_frac=0.15, seed=1)


class TestGenerateSynthetic:
    def test_exact_kind_counts(self):
        fs, truth = generate_synthetic(SynthConfig(**BASE))
        kinds = np.array(truth.noise_kind)
        for c in range(10):
            mask = fs.labels == c
            assert (kinds[mask] == NOISE_CLEAN).sum() == 120
            assert (kinds[mask] == NOISE_CROSS).sum() == 50
            assert (kinds[mask] == NOISE_UNIFORM).sum() == 30

    def test_per_category_noise_rate_exact(self):
        fs, truth = generate_synthetic(SynthConfig(**BASE))
        for c in range(10):
            mask = fs.labels == c
            rate = (truth.true_labels[mask] != fs.labels[mask]).mean()
            assert rate == (50 + 30) / 200

    def test_all_clean_degenerate(self):
        cfg = SynthConfig(n_categories=2, per_category=10, n_features=3,
                          clean_frac=1.0, cross_frac=0.0, uniform_frac=0.0, seed=7)
        fs, truth = generate_synthetic(cfg)
        assert all(k == NOISE_CLEAN for k in truth.noise_kind)
        assert np.array_equal(truth.true_labels, fs.labels)

    def test_deterministic(self):
        cfg = SynthConfig(**BASE)
        fs1, t1 = generate_synthetic(cfg)
        fs2, t2 = generate_synthetic(cfg)
        assert fs1 == fs2 and t1 == t2

    def test_cross_labels_point_elsewhere(self):
        fs, truth = generate_synthetic(SynthConfig(**BASE))
        kinds = np.array(truth.noise_kind)
        cross = kinds == NOISE_CROSS
        assert (truth.true_labels[cross] != fs.labels[cross]).all()
        assert (truth.true_labels[cross] >= 0).all()
        uniform = kinds == NOISE_UNIFORM
        assert (truth.true_labels[uniform] == NO_CATEGORY).all()

    def test_bad_fractions(self):
        with pytest.raises(ValueError, match="sum"):
            SynthConfig(n_categories=2, per_category=10, n_features=2,
                        clean_frac=0.5, cross_frac=0.2, uniform_frac=0.2).validate()

    @pytest.mark.parametrize("field, value", [
        ("clean_frac", math.nan), ("cross_frac", math.inf), ("uniform_frac", math.nan),
        ("blob_sigma", math.nan), ("blob_sigma", math.inf),
        ("box_margin_sigmas", math.nan), ("box_margin_sigmas", math.inf),
    ])
    def test_non_finite_field(self, field, value):
        cfg = replace(SynthConfig(**BASE), **{field: value})
        with pytest.raises(ValueError, match=re.escape(f"{field} must be finite, got {value!r}")):
            cfg.validate()

    @pytest.mark.parametrize("sigma, sigmas", [(1.0, 1e308), (1e200, 1e200)])
    def test_box_margin_beyond_float_range(self, sigma, sigmas):
        cfg = replace(SynthConfig(**BASE), blob_sigma=sigma, box_margin_sigmas=sigmas)
        with pytest.raises(ValueError, match=re.escape(
                f"box_margin_sigmas * blob_sigma = {sigmas!r} * {sigma!r} makes the "
                "uniform-noise box infinitely wide")):
            cfg.validate()

    @pytest.mark.parametrize("sigma, sigmas", [(2.0, 1e300), (1e300, 14.0), (1.0, 3.41e38)])
    def test_box_beyond_float32(self, sigma, sigmas):
        cfg = replace(SynthConfig(**BASE), blob_sigma=sigma, box_margin_sigmas=sigmas)
        with pytest.raises(ValueError, match=re.escape(
                f"box_margin_sigmas * blob_sigma = {sigmas!r} * {sigma!r} puts the "
                "uniform-noise box outside float32's range")):
            cfg.validate()

    def test_box_inside_float32(self):
        cfg = replace(SynthConfig(**BASE), blob_sigma=1.0, box_margin_sigmas=1e38)
        fs, _ = generate_synthetic(cfg)
        assert np.isfinite(fs.features).all()

    @pytest.mark.parametrize("sigma, sigmas", [(3e38, 1.0), (1e308, 1e-300)])
    def test_gaussian_draw_beyond_float32(self, sigma, sigmas):
        cfg = replace(SynthConfig(**BASE), blob_sigma=sigma, box_margin_sigmas=sigmas)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"blob_sigma = {sigma!r} with box_margin_sigmas = {sigmas!r} draws a "
                    "feature value outside float32's range")):
                generate_synthetic(cfg)

    def test_overcommitted_rounding(self):
        cfg = SynthConfig(n_categories=2, per_category=1, n_features=2,
                          clean_frac=0.5, cross_frac=0.5, uniform_frac=0.0)
        with pytest.raises(ValueError, match="per_category"):
            cfg.kind_counts()

    def test_reference_mapping(self):
        fs, truth = generate_synthetic(SynthConfig(n_categories=2, per_category=4,
                                                   n_features=2, clean_frac=1.0,
                                                   cross_frac=0.0, uniform_frac=0.0, seed=2))
        ref = reference_from_truth(fs, truth)
        assert set(ref) == set(fs.sample_ids)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(labels=st.lists(st.integers(-2, 11), max_size=60), n_categories=st.integers(0, 10))
def test_category_rows_equal_per_category_masks(labels, n_categories):
    # Empty categories, and labels below 0 or at or past n_categories, which
    # are in no category's rows.
    labels = np.array(labels, dtype=np.int64)
    rows = data.category_rows(labels, n_categories)
    assert len(rows) == n_categories
    for c, r in enumerate(rows):
        assert r.dtype == np.intp
        assert np.array_equal(r, np.flatnonzero(labels == c))


class TestTake:
    def test_subset_keeps_names(self):
        fs = small_fs()
        sub = fs.take(np.array([True, False, True, False]))
        assert sub.n_samples == 2
        assert sub.sample_ids == ("s0", "s2")
        assert sub.category_names == fs.category_names

    @pytest.mark.parametrize("mask", [[True, False, True], [True, False, True, False, False]],
                             ids=["short", "long"])
    def test_mask_of_wrong_length_rejected(self, mask):
        fs = small_fs()
        truth = SyntheticTruth(true_labels=np.zeros(4), noise_kind=(NOISE_CLEAN,) * 4)
        for data in (fs, truth):
            with pytest.raises(IndexError):
                data.take(np.array(mask))
