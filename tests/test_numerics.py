"""The reverse walk down a tape's chain, the finite-difference reference, and
the dense kernel's cached ones vector behind its bias gradients."""

import itertools
import tracemalloc

import numpy as np
import pytest

from divfe import layers
from divfe.numerics import ContractError, GradientTape, ShapeError, allocate, backward

from _gradcheck import numeric_gradient, relative_error


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
    dm, grads = backward(tape, loss)

    num_m = numeric_gradient(lambda a: np.sum((a @ v) * proj), m.copy())
    num_v = numeric_gradient(lambda a: np.sum((m @ a) * proj), v.copy())
    assert relative_error(dm, num_m) < 1e-7
    assert len(grads) == 1 and grads[0][0] is v
    assert relative_error(grads[0][1], num_v) < 1e-7


def test_chained_ops_gradient():
    rng = np.random.default_rng(7)
    a, b, c = (rng.normal(size=5) for _ in range(3))
    proj = rng.normal(size=5)

    tape = GradientTape()
    s = tape.record(a + b, (a, b), lambda g: (g, g), "add")
    p = tape.record(s * c, (s, c), lambda g: (g * c, g * s), "mul")
    loss = _scalarize(tape, p, proj)
    da, grads = backward(tape, loss)

    np.testing.assert_allclose(da, c * proj)
    assert grads[0][0] is b and grads[1][0] is c    # recording order
    np.testing.assert_allclose(grads[0][1], c * proj)
    np.testing.assert_allclose(grads[1][1], (a + b) * proj)


def test_two_entry_chain_matches_finite_differences():
    # y = tanh(x @ w1); z = y @ w2; loss = sum(z * proj)
    rng = np.random.default_rng(8)
    x, w1, w2 = rng.normal(size=(3, 4)), rng.normal(size=(4, 5)), rng.normal(size=(5, 2))
    proj = rng.normal(size=(3, 2))

    def forward(x, w1, w2, tape=None):
        y = np.tanh(x @ w1)
        z = y @ w2
        if tape is not None:
            tape.record(y, (x, w1), lambda g: ((g * (1 - y * y)) @ w1.T,
                                               x.T @ (g * (1 - y * y))), "tanh-matmul")
            tape.record(z, (y, w2), lambda g: (g @ w2.T, y.T @ g), "matmul")
        return z

    tape = GradientTape()
    loss = _scalarize(tape, forward(x, w1, w2, tape), proj)
    dx, grads = backward(tape, loss)
    assert len(grads) == 2 and grads[0][0] is w1 and grads[1][0] is w2
    for target, analytic in ((x, dx), (w1, grads[0][1]), (w2, grads[1][1])):
        num = numeric_gradient(lambda _: np.sum(forward(x, w1, w2) * proj), target)
        assert relative_error(analytic, num) < 1e-7


def test_entry_not_called_on_the_previous_output_is_rejected():
    a, b = np.ones(2), np.ones(2)
    tape = GradientTape()
    tape.record(a * 2.0, (a,), lambda g: (2.0 * g,), "first")
    # called on b, not on the first entry's output: a DAG, not a chain
    y = tape.record(b + 1.0, (b,), lambda g: (g,), "second")
    with pytest.raises(ContractError, match="not a chain"):
        backward(tape, _scalarize(tape, y, np.ones(2)))


def test_loss_must_be_the_last_entrys_output():
    x = np.ones(3)
    tape = GradientTape()
    y = tape.record(x * 2.0, (x,), lambda g: (2.0 * g,), "double")
    with pytest.raises(ContractError, match="not a chain"):
        backward(tape, np.asarray(np.sum(y)))        # a loss the tape never recorded
    loss = _scalarize(tape, y, np.ones(3))
    tape.record(y * 3.0, (y,), lambda g: (3.0 * g,), "after-the-loss")
    with pytest.raises(ContractError, match="not a chain"):
        backward(tape, loss)
    with pytest.raises(ContractError, match="empty"):
        backward(GradientTape(), loss)


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


def _two_entry_chain(tape, x, w, first_dx=True, second_dx=True):
    """Record ``z = 2*(x*w)`` and its projection; either entry may return ``None``
    for its input gradient."""
    y = tape.record(x * w, (x, w), lambda g: (g * w if first_dx else None, g * x), "scale")
    z = tape.record(y * 2.0, (y,), lambda g: (2.0 * g if second_dx else None,), "double")
    return _scalarize(tape, z, np.ones(3))


def test_the_first_entry_may_skip_its_input_gradient():
    rng = np.random.default_rng(9)
    x, w = rng.normal(size=3), rng.normal(size=3)
    tape = GradientTape()
    dx, grads = backward(tape, _two_entry_chain(tape, x, w, first_dx=False))
    assert dx is None
    assert len(grads) == 1 and grads[0][0] is w
    np.testing.assert_array_equal(grads[0][1], 2.0 * x)
    # skipping is allowed, not required
    tape = GradientTape()
    dx, _ = backward(tape, _two_entry_chain(tape, x, w))
    np.testing.assert_array_equal(dx, 2.0 * w)


@pytest.mark.parametrize("first_dx", [True, False])
def test_a_missing_input_gradient_from_a_later_entry_is_rejected(first_dx):
    rng = np.random.default_rng(10)
    x, w = rng.normal(size=3), rng.normal(size=3)
    tape = GradientTape()
    loss = _two_entry_chain(tape, x, w, first_dx, second_dx=False)
    with pytest.raises(ContractError, match="double: backward returned no input gradient"):
        backward(tape, loss)


@pytest.mark.parametrize("first_dx", [True, False])
def test_a_parameter_gradient_of_the_wrong_shape_is_rejected(first_dx):
    x, w = np.ones(3), np.ones(3)
    tape = GradientTape()
    y = tape.record(x * w, (x, w), lambda g: (g * w if first_dx else None, np.ones((1, 3))),
                    "bad-param")
    with pytest.raises(ShapeError, match=r"bad-param: gradient shape \(1, 3\) != input \(3,\)"):
        backward(tape, _scalarize(tape, y, np.ones(3)))


def test_a_chain_returns_its_parameter_pairs_in_recording_order():
    # three entries h -> h*a + b, two parameters each
    rng = np.random.default_rng(11)
    h, proj = rng.normal(size=3), rng.normal(size=3)
    tape, entries = GradientTape(), []
    for k in range(3):
        a, b = rng.normal(size=3), rng.normal(size=3)
        entries.append((h, a, b))
        h = tape.record(h * a + b, (h, a, b), lambda g, h=h, a=a: (g * a, g * h, g), f"affine{k}")
    dx, grads = backward(tape, _scalarize(tape, h, proj))
    assert len(grads) == 6
    upstream = proj
    for k in reversed(range(3)):
        h, a, b = entries[k]
        (pa, ga), (pb, gb) = grads[2 * k:2 * k + 2]
        assert pa is a and pb is b
        np.testing.assert_array_equal(ga, upstream * h)
        np.testing.assert_array_equal(gb, upstream)
        upstream = upstream * a
    np.testing.assert_array_equal(dx, upstream)


def test_the_bias_gradients_ones_vector_is_cached_read_only():
    ones = layers._ones(7)
    assert ones is layers._ones(7) and ones.dtype == np.float64
    np.testing.assert_array_equal(ones, np.ones(7))
    assert not ones.flags.writeable
    with pytest.raises(ValueError):
        ones[0] = 2.0


def test_two_backward_calls_never_return_the_same_bias_gradient():
    rng = np.random.default_rng(12)
    x, weights, bias = rng.normal(size=(4, 2, 5)), rng.normal(size=(3, 2, 2)), rng.normal(size=3)
    dys, dbs = [], []
    for _ in range(2):
        y, bwd = layers._dense_conv(x, weights, bias, "valid")
        dys.append(rng.normal(size=y.shape))
        dbs += [bwd(dys[-1])[-1], bwd(dys[-1])[-1]]
    for i, j in itertools.combinations(range(len(dbs)), 2):
        assert not np.shares_memory(dbs[i], dbs[j])
    kept = [db.copy() for db in dbs]
    dbs[0][:] = 0.0     # its caller may write it
    for db, copy in zip(dbs[1:], kept[1:]):
        assert db.tobytes() == copy.tobytes()


def test_numeric_gradient_on_quadratic():
    x = np.array([1.0, 2.0, -3.0])
    g = numeric_gradient(lambda a: float(np.sum(a ** 2)), x)
    np.testing.assert_allclose(g, 2.0 * x, atol=1e-8)


def test_relative_error_definition():
    # elementwise |a-n| / max(1, |n|), reduced by max
    assert relative_error([2.0, 0.5], [2.0, 0.0]) == 0.5
    assert relative_error([4.0], [2.0]) == 1.0
    assert relative_error(np.empty(0), np.empty(0)) == 0.0


def test_allocate_turns_an_impossible_size_into_memory_error_without_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):   # numpy's own refusal, which allocate translates
            np.empty((1 << 62, 1 << 62))
        with pytest.raises(MemoryError):
            allocate(np.empty, (1 << 62, 1 << 62))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_allocate_returns_other_results_unchanged():
    out = allocate(np.full, (2, 3), 7, dtype=np.int8)
    assert out.dtype == np.int8 and out.shape == (2, 3) and (out == 7).all()
    result = object()
    assert allocate(lambda *args, **kwargs: (result, args, kwargs), 1, key=2) == (
        result, (1,), {"key": 2})
