"""Acceptance suite: one test per release criterion.

Each test prints a single ``criterion NN <name>: PASS`` line on success (and
pytest itself reports one PASSED/FAILED line per criterion under ``-v``).
Criterion 6 needs the MNIST IDX files on disk and is skipped when they are
absent; set DIVFE_MNIST_DIR or place them under data/mnist/.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from _gradcheck import run_layer_gradient_sweep
from divfe.augment import AugmentConfig, expand_training_set, invert_polarity, rotate_time
from divfe.checkpoint import load_checkpoint, save_checkpoint
from divfe.data_io import (FormatError, LabeledDataset, SplitSpec, Standardizer,
                           load_iris, load_mnist_idx, split)
from divfe.divergence import (analyze, between_class_scatter, divergence_value,
                              within_class_scatter)
from divfe.layers import Dense, FeatureExtractor, Flatten
from divfe.mdn import classify_batch
from divfe.modelspec import load_model_spec
from divfe.trainer import (GrowthTemplate, TrainConfig, derive_rng, evaluate, fit,
                           grow_layers, run_trials, STREAM_INIT)
from divfe.walsh import build_modified_walsh, make_codebook

REPO = Path(__file__).resolve().parent.parent

WALSH_8 = np.array([
    [1, 1, 1, 1, 1, 1, 1, 1],
    [1, 0, 1, 0, 1, 0, 1, 0],
    [1, 1, 0, 0, 1, 1, 0, 0],
    [1, 0, 0, 1, 1, 0, 0, 1],
    [1, 1, 1, 1, 0, 0, 0, 0],
    [1, 0, 1, 0, 0, 1, 0, 1],
    [1, 1, 0, 0, 0, 0, 1, 1],
    [1, 0, 0, 1, 0, 1, 1, 0],
])


def _report(num, name):
    print(f"criterion {num:02d} {name}: PASS")


def test_criterion_01_walsh_structure():
    for rank in (2, 4, 8, 16, 32):
        w = build_modified_walsh(rank)
        for i in range(rank):
            for j in range(i + 1, rank):
                assert np.count_nonzero(w[i] != w[j]) == rank // 2
    np.testing.assert_array_equal(build_modified_walsh(8), WALSH_8)
    _report(1, "walsh-structure")


def test_criterion_02_mdn_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for c in (2, 4, 11):
        cb = make_codebook(c, 16)
        targets = cb.targets()
        outputs = rng.normal(0.5, 1.0, size=(10_000, 16))
        # independent oracle: explicit per-class squared distances, argmin
        # picks the lowest index on ties
        d = np.stack([((outputs - targets[k]) ** 2).sum(axis=1) for k in range(c)], axis=1)
        oracle = d.argmin(axis=1)
        pred = classify_batch(outputs, cb)
        assert pred.shape == (10_000,)
        np.testing.assert_array_equal(pred, oracle)
    _report(2, "mdn-oracle-equivalence")


def test_criterion_03_gradient_correctness():
    checked = run_layer_gradient_sweep(n_configs=10)
    assert checked >= 70   # 10 configurations for each of the 7 layer kinds
    _report(3, "gradient-correctness")


def test_criterion_04_divergence_properties():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(5, 5))
    s = a @ a.T + 5.0 * np.eye(5)
    # zero between-class scatter => zero divergence (exact to the ridge term)
    assert divergence_value(s, np.zeros((5, 5))) == pytest.approx(0.0, abs=1e-12)
    # identity within-class scatter => trace of B
    m = rng.normal(size=(5, 5))
    b = m @ m.T
    assert abs(divergence_value(np.eye(5), b, ridge=0.0) - np.trace(b)) < 1e-10
    # linear in B
    base = divergence_value(s, b, ridge=0.0)
    for c in (0.5, 2.0, 10.0):
        got = divergence_value(s, c * b, ridge=0.0)
        assert abs(got - c * base) < 1e-9 * max(1.0, abs(c * base))
    # strictly increasing across mean separations {1, 2, 4}
    values = []
    for sep in (1.0, 2.0, 4.0):
        x0 = rng.normal(size=(400, 3))
        x1 = rng.normal(size=(400, 3)) + sep
        outputs = np.concatenate([x0, x1])
        labels = np.repeat([0, 1], 400)
        sw = within_class_scatter(outputs, labels)
        bw = between_class_scatter(np.stack([x0.mean(axis=0), x1.mean(axis=0)]))
        values.append(divergence_value(sw, bw))
    assert values[0] < values[1] < values[2]
    _report(4, "divergence-properties")


def test_criterion_05_iris_reproduction():
    start = time.perf_counter()
    dataset = load_iris(REPO / "data" / "iris.csv")
    model = load_model_spec(REPO / "specs" / "iris.spec")
    count = model.weight_count()
    assert 738 <= count <= 902, f"weight count {count} outside 820 +/- 10%"

    codebook = make_codebook(3, 8)
    config = TrainConfig(learning_rate=0.015, momentum=0.9, batch_size=8,
                         max_epochs=600, patience=80, seed=1)
    result = run_trials(lambda: load_model_spec(REPO / "specs" / "iris.spec"),
                        dataset, SplitSpec(0.8, 0.1, seed=1), codebook, config,
                        n_trials=5, normalizer_factory=Standardizer.fit)
    median = float(np.median(result.accuracies))
    assert median >= 29 / 30, f"median test accuracy {median:.4f} < 29/30"
    assert time.perf_counter() - start < 120
    _report(5, "iris-reproduction")


def _mnist_dir():
    return Path(os.environ.get("DIVFE_MNIST_DIR", REPO / "data" / "mnist"))


def test_criterion_06_mnist_desk_scale():
    d = _mnist_dir()
    needed = ["train-images-idx3-ubyte", "train-labels-idx1-ubyte",
              "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"]
    if not all((d / name).exists() for name in needed):
        pytest.skip(f"MNIST IDX files not found under {d} "
                    "(set DIVFE_MNIST_DIR to enable this criterion)")
    train_full = load_mnist_idx(d / needed[0], d / needed[1])
    test_full = load_mnist_idx(d / needed[2], d / needed[3])
    test_set = test_full.subset(np.arange(10_000))

    codebook = make_codebook(10, 16)
    accuracies = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        # stratified 10,000-image subset: 1,000 per digit
        picks = np.concatenate([
            rng.choice(np.flatnonzero(train_full.labels == digit), 1000, replace=False)
            for digit in range(10)])
        subset = train_full.subset(np.sort(picks))
        train_set, val_set, _ = split(subset, SplitSpec(0.95, 0.05, seed=seed))
        model = load_model_spec(REPO / "specs" / "mnist.spec")
        model.initialize(derive_rng(seed, 0, STREAM_INIT))
        config = TrainConfig(learning_rate=0.005, momentum=0.9, batch_size=32,
                             max_epochs=5, patience=5, seed=seed)
        fit(model, train_set, val_set, codebook, config, trial=seed)
        accuracies.append(evaluate(model, test_set, codebook).accuracy)
    median = float(np.median(accuracies))
    assert median >= 0.95, f"median test accuracy {median:.4f} < 0.95 ({accuracies})"
    _report(6, "mnist-desk-scale")


def test_criterion_07_augmentation_invariants():
    rng = np.random.default_rng(7)
    signal = np.sin(2 * np.pi * 3 * np.arange(64) / 64) + 0.2 * rng.normal(size=64)
    ref = np.abs(np.fft.fft(signal))
    assert np.max(np.abs(np.abs(np.fft.fft(invert_polarity(signal))) - ref)) < 1e-9
    for shift in (1, 9, 40):
        assert np.max(np.abs(np.abs(np.fft.fft(rotate_time(signal, shift))) - ref)) < 1e-9

    samples = rng.normal(size=(30, 32)) + 1.0
    labels = np.repeat([0, 1, 2], 10)
    ds = LabeledDataset(samples=samples, labels=labels, class_count=3)
    out = expand_training_set(ds, AugmentConfig(factor=3, seed=0))
    for cls in range(3):
        assert np.sum(out.labels == cls) == 30
    np.testing.assert_array_equal(out.samples[:30], samples)
    _report(7, "augmentation-invariants")


def _blobs(seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(60, 6)) + 2.0
    b = rng.normal(size=(60, 6)) - 2.0
    ds = LabeledDataset(samples=np.concatenate([a, b]),
                        labels=np.repeat([0, 1], 60), class_count=2)
    n = len(ds)
    return ds.subset(np.arange(0, n, 2)), ds.subset(np.arange(1, n, 2))


def test_criterion_08_training_sanity():
    train, val = _blobs()
    cb = make_codebook(2, 4)
    model = FeatureExtractor([Flatten(), Dense(4)], (1, 6), 4)
    model.initialize(np.random.default_rng(1))
    div_before = analyze(model.forward(train.samples, mode="infer"),
                         train.labels, cb).divergence
    snapshot = model.snapshot()

    config = TrainConfig(learning_rate=0.01, batch_size=16, max_epochs=50,
                         patience=50, seed=0)
    report = fit(model, train, val, cb, config)
    assert max(report.val_accuracy) == 1.0, "blobs not solved within 50 epochs"
    div_after = analyze(model.forward(train.samples, mode="infer"),
                        train.labels, cb).divergence
    assert div_after > div_before

    model.restore(snapshot)
    frozen = TrainConfig(learning_rate=0.0, batch_size=16, max_epochs=3,
                         patience=3, seed=0)
    fit(model, train, val, cb, frozen)
    for arr, ref in zip(model.state_arrays, snapshot):
        np.testing.assert_array_equal(arr, ref)
    _report(8, "training-sanity")


def test_criterion_09_layer_growing():
    cb = make_codebook(2, 4)
    config = TrainConfig(learning_rate=0.01, batch_size=16, max_epochs=150,
                         patience=30, seed=0)
    train, val = _blobs()
    template = GrowthTemplate(input_shape=(1, 6), filters=(2, 2), planes=8)
    _, report = grow_layers(template, train, val, cb, config, threshold=0.95)
    assert report.growth_history[-1][0] == 1
    assert report.growth_history[-1][1] > 0.95

    # parity labels are unlearnable by a purely linear depth-1 model
    rng = np.random.default_rng(9)
    ab = rng.choice([-1.0, 1.0], size=(200, 2))
    sig = np.zeros((200, 4))
    sig[:, 0], sig[:, 1] = ab[:, 0], ab[:, 1]
    sig += 0.1 * rng.normal(size=sig.shape)
    xds = LabeledDataset(samples=sig, labels=(ab[:, 0] * ab[:, 1] > 0).astype(int),
                         class_count=2)
    xtrain, xval = xds.subset(np.arange(0, 200, 2)), xds.subset(np.arange(1, 200, 2))
    xconfig = TrainConfig(learning_rate=0.02, batch_size=16, max_epochs=150,
                          patience=30, seed=0)
    xtemplate = GrowthTemplate(input_shape=(1, 4), filters=(2, 2), planes=8)
    _, xreport = grow_layers(xtemplate, xtrain, xval, cb, xconfig, threshold=0.95)
    assert xreport.growth_history[0][1] <= 0.95
    assert xreport.growth_history[-1][0] > 1
    assert xreport.growth_history[-1][1] > 0.95
    _report(9, "layer-growing")


def test_criterion_10_persistence(tmp_path):
    model = load_model_spec(REPO / "specs" / "iris.spec")
    model.initialize(np.random.default_rng(10))
    cb = make_codebook(3, 8)
    norm = Standardizer.fit(np.random.default_rng(11).normal(size=(50, 4)))
    path = tmp_path / "model.divf"
    save_checkpoint(model, cb, path, normalizer=norm)

    back, cb2, norm2 = load_checkpoint(path)
    for a, b in zip(model.state_arrays, back.state_arrays):
        np.testing.assert_array_equal(a, b)   # bit-exact
    np.testing.assert_array_equal(cb2.matrix, cb.matrix)
    np.testing.assert_array_equal(norm2.mean, norm.mean)
    np.testing.assert_array_equal(norm2.std, norm.std)

    blob = bytearray(path.read_bytes())
    blob[len(blob) // 3] ^= 0x01       # flip one bit of one byte
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_checkpoint(path)
    _report(10, "persistence")
