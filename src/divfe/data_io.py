"""Dataset loading, normalization and deterministic splitting.

Supported inputs: the classic 4-feature iris CSV, MNIST-style IDX binaries,
and a generic labeled 1D-signal CSV (label first, then fixed-length samples).
Splits are seeded and stratified per class; validation is carved out of the
training pool only.
"""

import csv
import io
import math
import struct
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .numerics import ContractError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
# the only bytes of a signal CSV numpy's parser may read: it skips \x1c-\x1e and \x85
# around a number and str.splitlines breaks lines at them, where the row walk does neither
_NUMBER_CSV_BYTES = b"0123456789+-.eE,\r\n"


class ParseError(ValueError):
    pass


class FormatError(ValueError):
    pass


@dataclass(frozen=True)
class LabeledDataset:
    """Uniformly shaped samples with integer class labels."""

    samples: np.ndarray          # (N, ...) float64
    labels: np.ndarray           # (N,) int64 in [0, class_count)
    class_count: int
    class_names: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.samples.shape[0] != self.labels.shape[0]:
            raise ContractError(f"{self.samples.shape[0]} samples vs "
                                f"{self.labels.shape[0]} labels")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ContractError("labels must lie in [0, class_count)")

    def __len__(self):
        return self.samples.shape[0]

    def subset(self, indices) -> "LabeledDataset":
        indices = np.asarray(indices)
        return replace(self, samples=self.samples[indices], labels=self.labels[indices])


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    validation_fraction: float = 0.1   # fraction of the training pool
    seed: int = 0

    def __post_init__(self):
        for name in ("train_fraction", "validation_fraction"):
            frac = getattr(self, name)
            if not 0.0 < frac < 1.0:
                raise ContractError(f"{name} must be in (0, 1), got {frac}")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")


def _finite_floats(fields):
    """The fields as floats; ``ValueError`` for a field that is not a finite number."""
    values = list(map(float, fields))
    # one C-level pass per row; a sum of finite values can still overflow, so
    # the loop only looks for the culprit and may find none
    if not math.isfinite(sum(values)):
        for field, value in zip(fields, values):
            if not math.isfinite(value):
                raise ValueError(f"non-finite value {field.strip()!r}")
    return values


def read_text(path):
    """The file's bytes and their UTF-8 text; ``ParseError`` naming the file if undecodable."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw, raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _csv_rows(path, text):
    """(line number, fields) of each non-blank CSV row; ``ParseError`` naming the file
    for a row ``csv`` cannot split (an over-long field, a NUL before Python 3.11) or no rows."""
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = 0
    try:
        for row in reader:
            if row and (len(row) > 1 or row[0].strip()):
                rows += 1
                yield reader.line_num, row
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: no data rows")


def load_iris(path) -> LabeledDataset:
    """CSV of 4 numeric features plus a class-name string per row.

    Class indices follow the sorted order of the distinct names.
    """
    rows = []
    names = []
    for lineno, row in _csv_rows(path, read_text(path)[1]):
        if len(row) != 5:
            raise ParseError(f"{path}:{lineno}: expected 4 features + class name, "
                             f"got {len(row)} fields")
        try:
            rows.append(_finite_floats(row[:4]))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad feature: {exc}") from exc
        names.append(row[4].strip())
    class_names = tuple(sorted(set(names)))
    index = {name: i for i, name in enumerate(class_names)}
    return LabeledDataset(
        samples=np.asarray(rows),
        labels=np.asarray([index[n] for n in names]),
        class_count=len(class_names),
        class_names=class_names,
    )


def _read_idx(path, expected_magic, expected_ndim):
    with open(path, "rb") as fh:
        header = fh.read(4 + 4 * expected_ndim)
        if len(header) < 4 + 4 * expected_ndim:
            raise FormatError(f"{path}: truncated IDX header")
        magic = struct.unpack(">I", header[:4])[0]
        if magic != expected_magic:
            raise FormatError(f"{path}: bad magic 0x{magic:08x}, "
                              f"expected 0x{expected_magic:08x}")
        dims = struct.unpack(f">{expected_ndim}I", header[4:])
        payload = fh.read()
    expected_bytes = math.prod(dims)   # exact: int64 would wrap for huge headers
    if len(payload) < expected_bytes:
        raise FormatError(f"{path}: payload holds {len(payload)} bytes, "
                          f"dimensions require {expected_bytes}")
    return np.frombuffer(payload[:expected_bytes], dtype=np.uint8).reshape(dims)


def load_mnist_idx(images_path, labels_path) -> LabeledDataset:
    """Big-endian IDX image/label pair; pixels scaled to [0, 1]."""
    images = _read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1)
    if images.shape[0] != labels.shape[0]:
        raise FormatError(f"count mismatch: {images.shape[0]} images vs "
                          f"{labels.shape[0]} labels")
    if images.shape[0] == 0:
        raise FormatError(f"{images_path}: the IDX pair holds no images")
    return LabeledDataset(
        samples=images.astype(np.float64) / 255.0,
        labels=labels.astype(np.int64),
        class_count=10,
        class_names=tuple(str(d) for d in range(10)),
    )


def _number_table(raw, text):
    """(label, x) records of a file of plain numbers by numpy's parser, or None for the walk."""
    lines = text.splitlines()
    samples = next((line for line in lines if line), "").count(",")   # per row
    if raw.translate(None, _NUMBER_CSV_BYTES) or not samples:
        return None
    try:
        with warnings.catch_warnings():   # older numpy reads label "2.7" as 2, with a warning
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=1,
                               dtype=[("label", np.int64), ("x", np.float64, (samples,))])
    except (ValueError, DeprecationWarning):   # numpy raises that warning as a ValueError
        return None
    return table if (table["label"] >= 0).all() and np.isfinite(table["x"]).all() else None


def load_signals_csv(path) -> LabeledDataset:
    """CSV rows of an integer label followed by fixed-length signal samples; the row
    walk reads what numpy's parser does not take, and alone raises ``ParseError``."""
    raw, text = read_text(path)
    table = _number_table(raw, text)
    if table is not None:   # contiguous as the walk's: a strided view sums in another order
        return LabeledDataset(samples=np.ascontiguousarray(table["x"]), labels=table["label"],
                              class_count=int(table["label"].max()) + 1)
    signals = []
    labels = []
    width = None
    for lineno, row in _csv_rows(path, text):
        if width is None:
            width = len(row)
            if width < 2:
                raise ParseError(f"{path}:{lineno}: need a label and at least one sample")
        elif len(row) != width:
            raise ParseError(f"{path}:{lineno}: ragged row ({len(row)} fields, "
                             f"expected {width})")
        try:
            label = int(row[0])
            if not 0 <= label <= np.iinfo(np.int64).max:
                raise ValueError(f"class label {label} is negative or beyond int64")
            labels.append(label)
            signals.append(_finite_floats(row[1:]))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return LabeledDataset(samples=np.asarray(signals), labels=labels,
                          class_count=max(labels) + 1)


def save_signals_csv(path, dataset: LabeledDataset):
    samples = dataset.samples
    if samples.ndim != 2:
        raise ContractError("signal CSV holds 1D samples only")
    if not np.isfinite(samples).all():   # the loader would reject the file
        raise ContractError("signal CSV samples must be finite")
    # the bytes csv.writer would write: finite reprs never need quoting, and
    # its lines end in \r\n; one row at a time keeps no copy of the whole set
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for label, signal in zip(dataset.labels.tolist(), samples):
            fh.write(f"{label},{','.join(map(repr, signal.tolist()))}\r\n")


def _stratified_pick(labels, fraction, rng):
    """Seeded per-class shuffle; first round(fraction * n_c) indices per class."""
    picked = []
    rest = []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        take = int(np.floor(fraction * idx.size + 0.5))
        if take == 0 or take == idx.size:
            raise ContractError(f"class {cls} has too few samples ({idx.size}) to "
                                f"stratify at fraction {fraction}")
        picked.append(idx[:take])
        rest.append(idx[take:])
    return np.sort(np.concatenate(picked)), np.sort(np.concatenate(rest))


def split(dataset: LabeledDataset, spec: SplitSpec):
    """Stratified (train, validation, test) partition.

    The train fraction forms the training pool and the remainder the test
    set; validation is then carved from the pool at the validation fraction.
    The three parts partition the dataset exactly.
    """
    rng = np.random.default_rng(spec.seed)
    pool_idx, test_idx = _stratified_pick(dataset.labels, spec.train_fraction, rng)
    val_rel, train_rel = _stratified_pick(dataset.labels[pool_idx],
                                          spec.validation_fraction, rng)
    return (dataset.subset(pool_idx[train_rel]),
            dataset.subset(pool_idx[val_rel]),
            dataset.subset(test_idx))


@dataclass(frozen=True)
class Standardizer:
    """Per-feature zero-mean unit-variance scaling, fitted on training data."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, samples: np.ndarray) -> "Standardizer":
        samples = np.asarray(samples, dtype=np.float64)
        std = samples.std(axis=0)
        return cls(mean=samples.mean(axis=0), std=np.where(std == 0, 1.0, std))

    def apply(self, dataset: LabeledDataset) -> LabeledDataset:
        return replace(dataset, samples=(dataset.samples - self.mean) / self.std)
