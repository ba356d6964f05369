"""Shared finite-difference gradient-check harness for layer tests, and an
unfolded reference inference for the folded one."""

from contextlib import contextmanager

import numpy as np

from divfe.numerics import GradientTape, backward

TOL = 1e-4
STEP = 1e-5
N_CONFIGS = 10


def numeric_gradient(fn, x, step=1e-5) -> np.ndarray:
    """Central finite differences of a scalar function w.r.t. array x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = float(fn(x))
        flat[i] = orig - step
        f_minus = float(fn(x))
        flat[i] = orig
        grad.reshape(-1)[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def relative_error(analytic, numeric) -> float:
    """Elementwise |analytic - numeric| / max(1, |numeric|), reduced by max."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    if numeric.size == 0:
        return 0.0
    return float(np.max(np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))))


def input_tape(x):
    """A tape whose first entry is the identity on ``x``: the layer recorded
    after it is asked for its input gradient, which ``backward`` returns."""
    tape = GradientTape()
    tape.record(x, (x,), lambda g: (g,), "input")
    return tape


def input_gradients(tape):
    """``(input, dx)`` of every entry of a tape that ends in a scalar loss, from
    the last entry to the first: the chain :func:`backward` walks."""
    upstream, pairs = np.ones(()), []
    for _, (inp, *_), backward_fn, _ in reversed(tape.entries):
        upstream = backward_fn(upstream)[0]
        pairs.append((inp, upstream))
    return pairs


def train_forward(layer, x):
    """A training pass of ``layer`` (or a model) on ``x``, on a throwaway tape."""
    return layer.forward(x, mode="train", tape=GradientTape())


def unfolded_inference(model, x):
    """``model``'s inference on ``x``, cast to its compute dtype as
    :meth:`~divfe.layers.FeatureExtractor.forward` casts it, run layer by layer
    with every link cleared, so that each convolution runs unfolded, each
    BatchNorm applies its running-statistics map and each ReLU its own
    maximum; the links are restored after."""
    x = np.asarray(x, dtype=model.compute)
    with unlinked(model.layers, "norm", "folded", "relu", "linked"):
        for layer in model.layers:
            x = layer.forward(x)
    return x


@contextmanager
def unlinked(layers, *links):
    """The ``links`` attributes of every layer cleared (``None`` or ``False``),
    then restored. A convolution's ``bias`` is read while ``norm`` is cleared,
    so clearing ``norm`` on a model whose convolutions have no bias runs them
    without one."""
    saved = [[getattr(layer, name) for name in links] for layer in layers]
    try:
        for layer in layers:
            for name in links:
                setattr(layer, name, None if name == "norm" else False)
        yield
    finally:
        for layer, values in zip(layers, saved):
            for name, value in zip(links, values):
                setattr(layer, name, value)


def analytic_grads(layer, x, proj):
    """Gradients of sum(forward(x) * proj): ``(dx, [(param, grad), ...])``."""
    tape = input_tape(x)
    y = layer.forward(x, mode="train", tape=tape)
    loss = np.asarray(np.sum(y * proj))
    tape.record(loss, (y,), lambda g: (g * proj,), "proj")
    return backward(tape, loss)


def numeric_wrt(layer, x, proj, target):
    """Finite-difference gradient w.r.t. ``target`` (the input or a parameter)."""
    def fn(_):
        return float(np.sum(train_forward(layer, x) * proj))
    return numeric_gradient(fn, target, step=STEP)


def check_all_grads(layer, x, rng, tol=TOL):
    proj = rng.normal(size=train_forward(layer, x).shape)
    dx, grads = analytic_grads(layer, x, proj)
    assert relative_error(dx, numeric_wrt(layer, x, proj, x)) < tol
    params = layer.trainable_params
    assert len(grads) == len(params)
    for (p, g), expected in zip(grads, params):
        assert p is expected
        assert relative_error(g, numeric_wrt(layer, x, proj, p)) < tol


def run_layer_gradient_sweep(n_configs=N_CONFIGS, master_seed=100):
    """Randomized gradient checks over every layer kind plus the loss.

    Raises AssertionError on the first failure; returns the number of
    configurations checked.
    """
    from divfe.layers import BatchNorm, Conv1D, Conv2D, Dense, ReLU, mse_loss
    from divfe.numerics import GradientTape

    rng = np.random.default_rng(master_seed)
    checked = 0

    for i in range(n_configs):
        c, length = int(rng.integers(1, 4)), int(rng.integers(4, 9))
        layer = Conv1D(int(rng.integers(1, length + 1)), int(rng.integers(1, 4)),
                       padding="same" if i % 2 else "valid")
        layer.wire((c, length))
        layer.init_params(rng)
        check_all_grads(layer, rng.normal(size=(int(rng.integers(1, 4)), c, length)), rng)
        checked += 1

    for i in range(n_configs):
        c = int(rng.integers(1, 3))
        h, w = int(rng.integers(3, 7)), int(rng.integers(3, 7))
        layer = Conv2D(int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1)),
                       int(rng.integers(1, 4)), padding="same" if i % 2 else "valid")
        layer.wire((c, h, w))
        layer.init_params(rng)
        check_all_grads(layer, rng.normal(size=(int(rng.integers(1, 3)), c, h, w)), rng)
        checked += 1

    for i in range(n_configs):
        if i % 2:
            shape = (int(rng.integers(1, 4)), int(rng.integers(2, 6)))
        else:
            shape = (int(rng.integers(1, 3)), int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        layer = BatchNorm()
        layer.wire(shape)
        layer.init_params(rng)
        layer.scale[:] = rng.normal(1.0, 0.2, size=layer.planes)
        layer.shift[:] = rng.normal(size=layer.planes)
        x = rng.normal(size=(int(rng.integers(2, 6)),) + shape)
        check_all_grads(layer, x, rng)
        checked += 1

    for _ in range(n_configs):
        in_dim, out_dim = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        layer = Dense(out_dim)
        layer.wire((in_dim,))
        layer.init_params(rng)
        check_all_grads(layer, rng.normal(size=(int(rng.integers(1, 5)), in_dim)), rng)
        checked += 1

    for _ in range(n_configs):
        layer = ReLU()
        x = rng.normal(size=(int(rng.integers(1, 4)), int(rng.integers(2, 6))))
        layer.wire(x.shape[1:])
        check_all_grads(layer, x, rng)
        checked += 1

    for _ in range(n_configs):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        out = rng.normal(size=(n, m))
        target = rng.normal(size=(n, m))
        tape = GradientTape()
        loss = mse_loss(out, target, tape=tape)
        dout, _ = backward(tape, loss)
        num = numeric_gradient(lambda a: float(mse_loss(a, target)), out, step=STEP)
        assert relative_error(dout, num) < TOL
        checked += 1

    return checked
