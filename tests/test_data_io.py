"""Dataset parsing, IDX binaries, stratified splitting and normalization."""

import struct

import numpy as np
import pytest

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


def test_signals_csv_rejects_ragged_and_negative(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("0,1.0,2.0\n1,3.0\n")
    with pytest.raises(ParseError, match="ragged"):
        load_signals_csv(path)
    path.write_text("-1,1.0,2.0\n")
    with pytest.raises(ParseError, match="negative"):
        load_signals_csv(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_signals_csv_rejects_non_finite_samples(tmp_path, value):
    path = tmp_path / "sig.csv"
    path.write_text(f"0,1.0,2.0\n\n1,{value},3.0\n")
    with pytest.raises(ParseError, match=r"sig.csv:3: non-finite"):
        load_signals_csv(path)


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
