"""The reverse-mode gradient tape and finite-difference checking."""

import numpy as np
import pytest

from divfe.numerics import (ContractError, GradientTape, ShapeError, backward,
                            numeric_gradient, relative_error)


def _scalarize(tape, y, weights):
    """Project an array to a scalar through a recorded weighted sum."""
    loss = np.asarray(np.sum(y * weights))
    tape.record(loss, (y,), lambda g: (g * weights,), "proj")
    return loss


def test_backward_requires_scalar_loss():
    with pytest.raises(ContractError):
        backward(GradientTape(), np.zeros(3))


def test_matvec_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 3))
    v = rng.normal(size=3)
    proj = rng.normal(size=4)

    tape = GradientTape()
    y = tape.record(m @ v, (m, v), lambda g: (np.outer(g, v), m.T @ g), "matvec")
    loss = _scalarize(tape, y, proj)
    grads = backward(tape, loss)

    num_m = numeric_gradient(lambda a: np.sum((a @ v) * proj), m.copy())
    num_v = numeric_gradient(lambda a: np.sum((m @ a) * proj), v.copy())
    assert relative_error(grads[id(m)], num_m) < 1e-7
    assert relative_error(grads[id(v)], num_v) < 1e-7


def test_gradient_accumulates_over_reused_arrays():
    # loss = sum(x*x) => dloss/dx = 2x, reached through both inputs of one entry
    x = np.array([1.0, -2.0, 3.0])
    tape = GradientTape()
    y = tape.record(x * x, (x, x), lambda g: (g * x, g * x), "mul")
    loss = _scalarize(tape, y, np.ones(3))
    grads = backward(tape, loss)
    np.testing.assert_allclose(grads[id(x)], 2.0 * x)


def test_chained_ops_gradient():
    rng = np.random.default_rng(7)
    a, b, c = (rng.normal(size=5) for _ in range(3))
    proj = rng.normal(size=5)

    tape = GradientTape()
    s = tape.record(a + b, (a, b), lambda g: (g, g), "add")
    p = tape.record(s * c, (s, c), lambda g: (g * c, g * s), "mul")
    loss = _scalarize(tape, p, proj)
    grads = backward(tape, loss)

    np.testing.assert_allclose(grads[id(a)], c * proj)
    np.testing.assert_allclose(grads[id(b)], c * proj)
    np.testing.assert_allclose(grads[id(c)], (a + b) * proj)


def test_untouched_arrays_get_no_gradient():
    a, b, unused = np.array([1.0]), np.array([2.0]), np.array([3.0])
    tape = GradientTape()
    # an entry whose output never reaches the loss passes nothing back
    tape.record(unused * 2.0, (unused,), lambda g: (2.0 * g,), "dead")
    y = tape.record(a + b, (a, b), lambda g: (g, None), "add")
    loss = _scalarize(tape, y, np.ones(1))
    grads = backward(tape, loss)
    assert id(a) in grads
    assert id(b) not in grads          # a None gradient marks a constant input
    assert id(unused) not in grads


def test_no_implicit_broadcasting():
    # a gradient that would broadcast onto its input is a wiring bug, not a sum
    x = np.ones(3)
    tape = GradientTape()
    y = tape.record(x.copy(), (x,), lambda g: (np.ones((1, 3)),), "bad-shape")
    with pytest.raises(ShapeError, match="bad-shape"):
        backward(tape, _scalarize(tape, y, np.ones(3)))


def test_backward_rejects_wrong_gradient_count():
    a, b = np.ones(2), np.ones(2)
    tape = GradientTape()
    y = tape.record(a + b, (a, b), lambda g: (g,), "one-short")
    with pytest.raises(ContractError, match="one-short"):
        backward(tape, _scalarize(tape, y, np.ones(2)))


def test_numeric_gradient_on_quadratic():
    x = np.array([1.0, 2.0, -3.0])
    g = numeric_gradient(lambda a: float(np.sum(a ** 2)), x)
    np.testing.assert_allclose(g, 2.0 * x, atol=1e-8)


def test_relative_error_definition():
    # elementwise |a-n| / max(1, |n|), reduced by max
    assert relative_error([2.0, 0.5], [2.0, 0.0]) == 0.5
    assert relative_error([4.0], [2.0]) == 1.0
    assert relative_error(np.empty(0), np.empty(0)) == 0.0
