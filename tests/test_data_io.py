"""Dataset parsing, IDX binaries, stratified splitting and normalization."""

import csv
import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from divfe import data_io
from divfe.data_io import (FormatError, LabeledDataset, ParseError, SplitSpec,
                           Standardizer, load_iris, load_mnist_idx,
                           load_signals_csv, save_signals_csv, split)
from divfe.numerics import ContractError

IRIS_CSV = """5.1,3.5,1.4,0.2,setosa
7.0,3.2,4.7,1.4,versicolor
6.3,3.3,6.0,2.5,virginica
4.9,3.0,1.4,0.2,setosa
"""


# ---------------------------------------------------------------- iris CSV

def test_load_iris_parses_features_and_sorted_classes(tmp_path):
    path = tmp_path / "iris.csv"
    path.write_text(IRIS_CSV)
    ds = load_iris(path)
    assert len(ds) == 4
    assert ds.class_names == ("setosa", "versicolor", "virginica")
    np.testing.assert_array_equal(ds.labels, [0, 1, 2, 0])
    np.testing.assert_allclose(ds.samples[0], [5.1, 3.5, 1.4, 0.2])
    assert ds.samples.dtype == np.float64


def test_load_iris_rejects_header_row(tmp_path):
    path = tmp_path / "iris.csv"
    path.write_text("a,b,c,d,label\n" + IRIS_CSV)
    with pytest.raises(ParseError):
        load_iris(path)


def test_load_iris_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3,setosa\n")
    with pytest.raises(ParseError):
        load_iris(path)
    path.write_text("1,2,x,4,setosa\n")
    with pytest.raises(ParseError):
        load_iris(path)
    path.write_text("\n")
    with pytest.raises(ParseError):
        load_iris(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_iris_rejects_non_finite_features(tmp_path, value):
    path = tmp_path / "iris.csv"
    path.write_text(IRIS_CSV + f"5.0,{value},1.0,0.2,setosa\n")
    with pytest.raises(ParseError, match=r"iris.csv:5: .*non-finite"):
        load_iris(path)


def test_load_iris_names_the_file_of_undecodable_bytes(tmp_path):
    path = tmp_path / "iris.csv"
    path.write_bytes(IRIS_CSV.encode() + b"5.0,3.4,1.5,0.2,set\xffosa\n")
    with pytest.raises(ParseError) as excinfo:
        load_iris(path)
    assert str(excinfo.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xff")


# ---------------------------------------------------------------- IDX

def _idx_images(images):
    images = np.asarray(images, dtype=np.uint8)
    n, h, w = images.shape
    return struct.pack(">IIII", 0x00000803, n, h, w) + images.tobytes()


def _idx_labels(labels):
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", 0x00000801, labels.size) + labels.tobytes()


def test_load_mnist_idx_byte_level(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
    labels = np.array([0, 1, 2, 9, 5], dtype=np.uint8)
    ipath, lpath = tmp_path / "img", tmp_path / "lab"
    ipath.write_bytes(_idx_images(images))
    lpath.write_bytes(_idx_labels(labels))
    ds = load_mnist_idx(ipath, lpath)
    assert ds.class_count == 10
    np.testing.assert_array_equal(ds.labels, labels)
    np.testing.assert_allclose(ds.samples, images.astype(np.float64) / 255.0)


def test_idx_bad_magic(tmp_path):
    p = tmp_path / "img"
    p.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + bytes(4))
    with pytest.raises(FormatError, match="magic"):
        load_mnist_idx(p, p)


def test_idx_truncated_header(tmp_path):
    p = tmp_path / "img"
    p.write_bytes(b"\x00\x00\x08\x03\x00")
    with pytest.raises(FormatError, match="truncated"):
        load_mnist_idx(p, p)


def test_idx_truncated_payload(tmp_path):
    p = tmp_path / "img"
    p.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(7))
    l = tmp_path / "lab"
    l.write_bytes(_idx_labels([0, 1]))
    with pytest.raises(FormatError, match="payload"):
        load_mnist_idx(p, l)


def test_idx_without_images_is_format_error(tmp_path):
    ipath, lpath = tmp_path / "img", tmp_path / "lab"
    ipath.write_bytes(_idx_images(np.zeros((0, 28, 28), dtype=np.uint8)))
    lpath.write_bytes(_idx_labels([]))
    with pytest.raises(FormatError, match="no images"):
        load_mnist_idx(ipath, lpath)


def test_idx_count_mismatch(tmp_path):
    ipath, lpath = tmp_path / "img", tmp_path / "lab"
    ipath.write_bytes(_idx_images(np.zeros((3, 2, 2), dtype=np.uint8)))
    lpath.write_bytes(_idx_labels([0, 1]))
    with pytest.raises(FormatError, match="mismatch"):
        load_mnist_idx(ipath, lpath)


# ---------------------------------------------------------------- signal CSV

def test_signals_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    ds = LabeledDataset(samples=rng.normal(size=(6, 5)),
                        labels=np.array([0, 1, 2, 0, 1, 2]), class_count=3)
    path = tmp_path / "sig.csv"
    save_signals_csv(path, ds)
    back = load_signals_csv(path)
    np.testing.assert_array_equal(back.samples, ds.samples)   # repr round trip
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.class_count == 3


def test_signals_csv_writes_shortest_reprs_with_crlf(tmp_path):
    # the last row's finite values overflow a row sum, which the loader must accept
    samples = np.array([[-0.0, 5e-324, 1 / 3],
                        [1e300, 2.0, -1.5],
                        [1e308, 1e308, -2.5e-310]])
    ds = LabeledDataset(samples=samples, labels=np.array([0, 12, 3]), class_count=13)
    path = tmp_path / "sig.csv"
    save_signals_csv(path, ds)
    assert path.read_bytes() == (b"0,-0.0,5e-324,0.3333333333333333\r\n"
                                 b"12,1e+300,2.0,-1.5\r\n"
                                 b"3,1e+308,1e+308,-2.5e-310\r\n")
    back = load_signals_csv(path)
    assert back.samples.tobytes() == samples.tobytes()
    np.testing.assert_array_equal(back.labels, ds.labels)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_signals_csv_round_trip_is_bit_exact(tmp_path, data):
    shape = (data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6)))
    samples = data.draw(arrays(np.float64, shape,
                               elements=st.floats(allow_nan=False, allow_infinity=False)))
    labels = data.draw(arrays(np.int64, shape[0], elements=st.integers(0, 20)))
    path = tmp_path / "sig.csv"
    save_signals_csv(path, LabeledDataset(samples=samples, labels=labels, class_count=21))
    back = load_signals_csv(path)
    assert back.samples.tobytes() == samples.tobytes()   # the sign of zero and subnormals too
    np.testing.assert_array_equal(back.labels, labels)


def test_signals_csv_rejects_ragged_and_negative(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("0,1.0,2.0\n1,3.0\n")
    with pytest.raises(ParseError, match="ragged"):
        load_signals_csv(path)
    # a label's range is checked on its own line, before numpy sees it
    for label in ("-1", "99999999999999999999", "9223372036854775808"):
        path.write_text(f"0,1.0,2.0\n{label},3.0,4.0\n")
        with pytest.raises(ParseError) as excinfo:
            load_signals_csv(path)
        assert str(excinfo.value) == (f"{path}:2: class label {label} "
                                      "is negative or beyond int64")
    path.write_text("9223372036854775807,1.0,2.0\n")
    assert load_signals_csv(path).labels[0] == 2 ** 63 - 1


@pytest.mark.parametrize("text, lineno, field", [
    pytest.param("0,1.0,2.0\n\n1,nan,3.0\n", 3, "nan", id="nan"),
    pytest.param("0,1.0,2.0\n\n1,inf,3.0\n", 3, "inf", id="inf"),
    pytest.param("0,1.0,2.0\n\n1,-Infinity,3.0\n", 3, "-Infinity", id="-Infinity"),
    pytest.param("0,nan,2.0\n1,1.0,3.0\n", 1, "nan", id="first-row"),
    pytest.param("0,1.0,2.0\n\n1,2.0,3.0\n\n1,4.0,-inf\n", 5, "-inf", id="last-row"),
    pytest.param("0,1.0,2.0\n\n1,1e400,3.0\n", 3, "1e400", id="overflow"),
    pytest.param("0,1.0,2.0\n\n1,2.0, inf \n", 3, "inf", id="spaces"),
    # file order: a bad value is reported before a later row's fault
    pytest.param("0,1.0,2.0\n1,NaN,3.0\n1,x\n", 2, "NaN", id="before-a-ragged-row"),
])
def test_signals_csv_rejects_non_finite_samples(tmp_path, text, lineno, field):
    path = tmp_path / "sig.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as excinfo:
        load_signals_csv(path)
    assert str(excinfo.value) == f"{path}:{lineno}: non-finite value {field!r}"


def test_load_signals_csv_names_the_file_of_undecodable_bytes(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_bytes(b"0,1.0,2.0\n1,3.0\xff,4.0\n")
    with pytest.raises(ParseError) as excinfo:
        load_signals_csv(path)
    assert str(excinfo.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xff")


def _loaded(path):
    """What ``load_signals_csv`` makes of ``path``: its arrays, or its error."""
    try:
        ds = load_signals_csv(path)
    except (ParseError, csv.Error) as exc:   # csv.Error: a NUL before Python 3.11
        return type(exc).__name__, str(exc)
    return ds.samples.shape, ds.samples.tobytes(), ds.labels.tobytes(), ds.class_count


def _walk_only():
    """Within it, ``load_signals_csv`` reads every file by its row walk."""
    return mock.patch.object(data_io, "_number_table", return_value=None)


GOOD_LABELS = ("0", "1", "7", "00", "+3", "-0", "9223372036854775807")
BAD_LABELS = ("-1", "1_0", "1.0", "1e0", "", " 2", "9223372036854775808",
              "99999999999999999999")
GOOD_SAMPLES = ("+1", "-0", "1e5", "1E-5", "1e+5", ".5", "5.", "-.5e-3", "007",
                "5e-324", "1e308", "1e-400")
BAD_SAMPLES = ("nan", "-inf", "inf", "1e400", "-1e400", "", ".", "e", "1e", "--1",
               "1..2", "1_0", '"1.0"', '"1,0"', " 2 ")
# a stray character anywhere in a row: quotes, comments, a BOM, NUL, and the
# characters numpy's parser skips around a number where float() does not
STRAYS = ("#", '"', "\ufeff", "\x00", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
          " ", "\t", "_")
NUMBER_CHARS = "0123456789+-.eE"


@st.composite
def _signal_csv_texts(draw):
    """A well-formed signal CSV, blank lines included, with up to two faults put in."""
    width = draw(st.integers(1, 4))
    label = st.one_of(st.integers(0, 30).map(str), st.sampled_from(GOOD_LABELS))
    sample = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                       st.sampled_from(GOOD_SAMPLES))
    rows = [[draw(label)] + [draw(sample) for _ in range(width - 1)]
            if draw(st.integers(0, 5)) else []
            for _ in range(draw(st.integers(0, 5)))]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("label", "sample", "stray", "ragged", "blank")))
        if kind == "blank":
            rows.insert(draw(st.integers(0, len(rows))), [draw(st.sampled_from((" ", "\t")))])
            continue
        row = rows[draw(st.integers(0, len(rows) - 1))] if rows else []
        if not row:
            continue
        i = draw(st.integers(0, len(row) - 1))
        if kind == "label":
            row[0] = draw(st.one_of(st.sampled_from(BAD_LABELS), st.integers(-9, -1).map(str),
                                    st.text(NUMBER_CHARS, max_size=4)))
        elif kind == "sample":
            row[i] = draw(st.one_of(st.sampled_from(BAD_SAMPLES),
                                    st.text(NUMBER_CHARS, max_size=6)))
        elif kind == "stray":
            cut = draw(st.integers(0, len(row[i])))
            row[i] = row[i][:cut] + draw(st.sampled_from(STRAYS)) + row[i][cut:]
        elif draw(st.booleans()):   # ragged
            row.append(draw(sample))
        else:
            row.pop()
    text = "".join(",".join(row) + draw(st.sampled_from(("\n", "\r\n", "\r")))
                   for row in rows)
    if draw(st.booleans()):   # no final newline
        text = text.rstrip("\r\n")
    return text


# as `divfe` runs, where Python ignores a DeprecationWarning outside __main__
RUNTIME_WARNINGS = pytest.mark.filterwarnings("ignore::DeprecationWarning")
LOADTXT = np.loadtxt


def _loadtxt_of_older_numpy(lines, dtype, **kwargs):
    """``np.loadtxt`` as older numpy runs it: an integer field is parsed via a float,
    which truncates "2.7" to 2, with a DeprecationWarning."""
    warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
    return LOADTXT(lines, dtype=[("label", np.float64), dtype[1]], **kwargs).astype(dtype)


@RUNTIME_WARNINGS
@pytest.mark.parametrize("loadtxt", [LOADTXT, _loadtxt_of_older_numpy])
@pytest.mark.parametrize("text, lineno, label", [("0,1.0\n1.0,2.0\n", 2, "1.0"),
                                                 ("2.7,1.0\n", 1, "2.7"),
                                                 ("1e0,2\n", 1, "1e0")])
def test_signals_csv_label_with_a_point_or_exponent_is_the_walks_parse_error(
        tmp_path, loadtxt, text, lineno, label):
    path = tmp_path / "sig.csv"
    path.write_text(text)
    with mock.patch.object(data_io.np, "loadtxt", loadtxt), pytest.raises(ParseError) as excinfo:
        load_signals_csv(path)
    assert str(excinfo.value) == (f"{path}:{lineno}: invalid literal for int() "
                                  f"with base 10: {label!r}")


@RUNTIME_WARNINGS
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_signal_csv_texts())
@example(text="1.0,2.0")
@example(text="3,1.0\x1c")
@example(text="\x853,5e-324\x1d")
def test_signals_csv_fast_path_matches_the_row_walk(tmp_path, text):
    path = tmp_path / "sig.csv"
    path.write_bytes(text.encode("utf-8"))
    fast = _loaded(path)
    with _walk_only():
        assert fast == _loaded(path)


def test_signals_csv_fast_path_is_c_contiguous_and_fits_like_the_walk(tmp_path):
    rng = np.random.default_rng(5)
    ds = LabeledDataset(samples=rng.normal(size=(288, 128)),
                        labels=np.arange(288) % 4, class_count=4)
    path = tmp_path / "sig.csv"
    save_signals_csv(path, ds)
    raw = path.read_bytes()
    assert data_io._number_table(raw, raw.decode()) is not None   # the fast path runs
    fast = load_signals_csv(path)
    with _walk_only():
        walked = load_signals_csv(path)
    assert fast.samples.flags.c_contiguous
    # a strided view would sum in another order and move the last bit
    fitted, reference = Standardizer.fit(fast.samples), Standardizer.fit(walked.samples)
    assert fitted.mean.tobytes() == reference.mean.tobytes()
    assert fitted.std.tobytes() == reference.std.tobytes()


# ---------------------------------------------------------------- dataset contract

def test_dataset_validates_labels():
    with pytest.raises(ContractError):
        LabeledDataset(samples=np.zeros((2, 3)), labels=np.array([0, 5]), class_count=2)
    with pytest.raises(ContractError):
        LabeledDataset(samples=np.zeros((2, 3)), labels=np.array([0]), class_count=1)


# ---------------------------------------------------------------- splitting

def _labels_dataset(counts):
    labels = np.concatenate([np.full(n, k) for k, n in enumerate(counts)])
    samples = np.arange(labels.size, dtype=np.float64)[:, None]
    return LabeledDataset(samples=samples, labels=labels, class_count=len(counts))


def test_split_partitions_exactly():
    ds = _labels_dataset([50, 50, 50])
    train, val, test = split(ds, SplitSpec(0.8, 0.1, seed=0))
    ids = np.concatenate([train.samples[:, 0], val.samples[:, 0], test.samples[:, 0]])
    assert sorted(ids.tolist()) == list(range(150))
    assert len(train) == 108 and len(val) == 12 and len(test) == 30


def test_split_is_stratified():
    ds = _labels_dataset([40, 60])
    train, val, test = split(ds, SplitSpec(0.5, 0.2, seed=3))
    for part, expect in ((test, (20, 30)),):
        counts = [int(np.sum(part.labels == k)) for k in range(2)]
        assert counts == list(expect)


def test_split_deterministic_in_seed():
    ds = _labels_dataset([30, 30])
    a = split(ds, SplitSpec(0.8, 0.1, seed=9))
    b = split(ds, SplitSpec(0.8, 0.1, seed=9))
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa.samples, pb.samples)
    c = split(ds, SplitSpec(0.8, 0.1, seed=10))
    assert any(not np.array_equal(pa.samples, pc.samples) for pa, pc in zip(a, c))


def test_split_rejects_too_small_classes():
    ds = _labels_dataset([2, 50])
    with pytest.raises(ContractError):
        split(ds, SplitSpec(0.9, 0.1, seed=0))


def test_split_spec_fraction_bounds():
    with pytest.raises(ContractError):
        SplitSpec(0.0, 0.1)
    with pytest.raises(ContractError):
        SplitSpec(0.8, 1.0)


def test_split_spec_rejects_negative_seed():
    with pytest.raises(ContractError, match="seed"):
        SplitSpec(0.8, 0.1, seed=-1)


# ---------------------------------------------------------------- normalization

def test_standardizer_zero_mean_unit_variance():
    rng = np.random.default_rng(4)
    samples = rng.normal(3.0, 2.0, size=(100, 4))
    norm = Standardizer.fit(samples)
    ds = LabeledDataset(samples=samples, labels=np.zeros(100, dtype=int), class_count=1)
    out = norm.apply(ds)
    np.testing.assert_allclose(out.samples.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.samples.std(axis=0), 1.0, atol=1e-12)


def test_standardizer_guards_constant_features():
    samples = np.column_stack([np.ones(10), np.arange(10.0)])
    norm = Standardizer.fit(samples)
    assert norm.std[0] == 1.0   # constant column left unscaled, no div by zero
