"""Minimum-distance classification against a brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divfe.mdn import classify_batch
from divfe.numerics import ShapeError
from divfe.walsh import make_codebook


def brute_force_classify(output, targets):
    """Independent oracle: explicit loop, lowest index wins ties."""
    best, best_d = 0, float("inf")
    for k in range(targets.shape[0]):
        d = 0.0
        for j in range(targets.shape[1]):
            d += (output[j] - targets[k, j]) ** 2
        if d < best_d:
            best, best_d = k, d
    return best


def test_distances_values():
    cb = make_codebook(3, 8)
    t = cb.targets()
    # every prototype is its own class, exactly rank/2 from the others
    np.testing.assert_array_equal(classify_batch(t, cb), [0, 1, 2])
    d = ((t[:, None, :] - t[None, :, :]) ** 2).sum(axis=2)
    np.testing.assert_array_equal(d, 4.0 * (1 - np.eye(3)))


def test_classify_matches_oracle_on_random_vectors():
    rng = np.random.default_rng(42)
    for c in (2, 4, 11):
        cb = make_codebook(c, 16)
        targets = cb.targets()
        outs = rng.normal(0.5, 1.0, size=(500, 16))
        pred = classify_batch(outs, cb)
        assert pred.shape == (500,)
        for out, got in zip(outs, pred):
            assert got == brute_force_classify(out, targets)


def test_exact_tie_breaks_to_lowest_index():
    cb = make_codebook(4, 8)
    t = cb.targets()
    # midpoint of two prototypes is equidistant from both
    for i in range(4):
        for j in range(i + 1, 4):
            mid = (t[i] + t[j]) / 2.0
            assert np.sum((mid - t[i]) ** 2) == np.sum((mid - t[j]) ** 2)
            assert classify_batch(mid[None, :], cb)[0] <= i
    assert classify_batch(((t[0] + t[1]) / 2.0)[None, :], cb)[0] == 0


@st.composite
def _tie_cases(draw):
    """A codebook and one output: a random vector, or a midpoint of two
    prototypes whose coordinates where the two rows agree are random, so
    both prototypes are at bit-identical distances."""
    rank = draw(st.sampled_from((4, 8, 16, 32)))
    cb = make_codebook(draw(st.integers(2, rank - 1)), rank)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    out = rng.normal(0.5, 1.0, size=rank)
    if draw(st.booleans()):
        i, j = sorted(draw(st.lists(st.integers(0, cb.class_count - 1), min_size=2,
                                    max_size=2, unique=True)))
        t = cb.targets()
        out = np.where(t[i] == t[j], out, (t[i] + t[j]) / 2.0)
    return cb, out


@settings(max_examples=300, deadline=None)
@given(_tie_cases())
def test_classify_matches_oracle_under_ties(case):
    cb, out = case
    assert classify_batch(out[None, :], cb)[0] == brute_force_classify(out, cb.targets())


def test_shape_mismatch_rejected():
    cb = make_codebook(2, 8)
    with pytest.raises(ShapeError):
        classify_batch(np.zeros((3, 4)), cb)
    with pytest.raises(ShapeError):
        classify_batch(np.zeros(8), cb)
