"""Scatter matrices and the tr(S^-1 B) separability criterion."""

import numpy as np
import pytest

from divfe.divergence import (InsufficientDataError, analyze, between_class_scatter,
                              default_ridge, divergence_value, within_class_scatter)
from divfe.numerics import ContractError
from divfe.walsh import make_codebook


def test_within_class_scatter_hand_computed():
    # class 0: {(0,0), (2,0)} -> covariance diag(1, 0)
    # class 1: {(0,0), (0,4)} -> covariance diag(0, 4)
    outputs = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0], [0.0, 4.0]])
    labels = np.array([0, 0, 1, 1])
    np.testing.assert_allclose(within_class_scatter(outputs, labels),
                               np.diag([1.0, 4.0]))


def test_between_class_scatter_hand_computed():
    means = np.array([[1.0, 0.0], [0.0, 2.0]])
    expected = np.array([[0.25, -0.5], [-0.5, 1.0]])
    np.testing.assert_allclose(between_class_scatter(means), expected)


def test_divergence_hand_computed():
    # S = diag(1, 4), B as above, no ridge: 0.25/1 + 1/4 = 0.5
    s = np.diag([1.0, 4.0])
    b = np.array([[0.25, -0.5], [-0.5, 1.0]])
    assert divergence_value(s, b, ridge=0.0) == pytest.approx(0.5, abs=1e-12)


def test_zero_between_scatter_gives_zero():
    s = np.diag([1.0, 2.0, 3.0])
    assert divergence_value(s, np.zeros((3, 3))) == pytest.approx(0.0, abs=1e-12)


def test_identity_within_gives_trace_of_between():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4))
    b = a @ a.T
    value = divergence_value(np.eye(4), b, ridge=0.0)
    assert abs(value - np.trace(b)) < 1e-10


def test_divergence_linear_in_between_scatter():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5, 5))
    s = a @ a.T + 5.0 * np.eye(5)
    m = rng.normal(size=(5, 5))
    b = m @ m.T
    base = divergence_value(s, b, ridge=0.0)
    for c in (0.5, 2.0, 10.0):
        assert abs(divergence_value(s, c * b, ridge=0.0) - c * base) < 1e-9 * max(1.0, c * base)


def test_divergence_increases_with_mean_separation():
    rng = np.random.default_rng(2)
    values = []
    for sep in (1.0, 2.0, 4.0):
        a = rng.normal(size=(300, 3))
        b = rng.normal(size=(300, 3)) + sep
        outputs = np.concatenate([a, b])
        labels = np.repeat([0, 1], 300)
        s = within_class_scatter(outputs, labels)
        bt = between_class_scatter(np.stack([a.mean(axis=0), b.mean(axis=0)]))
        values.append(divergence_value(s, bt))
    assert values[0] < values[1] < values[2]


def test_default_ridge_scales_with_trace():
    assert default_ridge(np.diag([2.0, 4.0])) == pytest.approx(1e-6 * 3.0)
    assert default_ridge(np.zeros((3, 3))) == 1e-12   # floor keeps S invertible


def test_symmetry_and_shape_validation():
    with pytest.raises(ContractError):
        divergence_value(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2))
    with pytest.raises(ContractError):
        divergence_value(np.eye(2), np.eye(3))


def test_analyze_paper_mode_uses_codebook_rows():
    rng = np.random.default_rng(3)
    cb = make_codebook(3, 8)
    outputs = cb.targets()[rng.integers(0, 3, size=60)] + 0.01 * rng.normal(size=(60, 8))
    labels = np.zeros(60, dtype=int)
    # label each output by its nearest codebook row to keep classes populated
    labels = np.argmin(((outputs[:, None, :] - cb.targets()) ** 2).sum(-1), axis=1)
    report = analyze(outputs, labels, cb, mode="paper")
    np.testing.assert_allclose(report.between, between_class_scatter(cb.targets()))
    assert report.divergence > 0


def test_analyze_paper_mode_counts_present_classes_only():
    rng = np.random.default_rng(5)
    cb = make_codebook(4, 8)
    labels = np.repeat([1, 3], 10)
    outputs = cb.targets()[labels] + 0.1 * rng.normal(size=(20, 8))
    report = analyze(outputs, labels, cb, mode="paper")
    np.testing.assert_allclose(report.between, between_class_scatter(cb.targets()[[1, 3]]))
    with pytest.raises(ContractError):
        analyze(outputs, np.repeat([1, 4], 10), cb, mode="paper")   # no row for class 4


def test_analyze_empirical_mode():
    rng = np.random.default_rng(4)
    cb = make_codebook(2, 8)
    outputs = rng.normal(size=(40, 8))
    labels = np.repeat([0, 1], 20)
    report = analyze(outputs, labels, cb, mode="empirical")
    means = np.stack([outputs[:20].mean(axis=0), outputs[20:].mean(axis=0)])
    np.testing.assert_allclose(report.between, between_class_scatter(means))


def test_analyze_rejects_bad_inputs():
    cb = make_codebook(2, 8)
    with pytest.raises(ContractError):
        analyze(np.zeros((4, 8)), np.array([0, 0, 1, 1]), cb, mode="nonsense")
    with pytest.raises(InsufficientDataError):
        analyze(np.zeros((4, 8)), np.zeros(4, dtype=int), cb)          # one class
    with pytest.raises(InsufficientDataError):
        analyze(np.zeros((3, 8)), np.array([0, 0, 1]), cb)             # singleton class
