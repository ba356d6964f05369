"""Layer forward passes and gradient checks against finite differences."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from divfe import layers
from divfe.checkpoint import load_checkpoint, save_checkpoint
from divfe.layers import (BN_EPSILON, BatchNorm, Conv1D, Conv2D, Dense, Dropout,
                          FeatureExtractor, Flatten, MaxPool, ReLU, mse_loss)
from divfe.modelspec import load_model_spec, parse_model_spec
from divfe.numerics import ContractError, GradientTape, ShapeError, backward
from divfe.walsh import make_codebook

from _gradcheck import (N_CONFIGS, STEP, TOL, analytic_grads,
                        check_all_grads as _check_all_grads, numeric_gradient,
                        relative_error)


# ---------------------------------------------------------------- conv1d

def test_conv1d_forward_known_values():
    layer = Conv1D(2, 1)
    layer.wire((1, 4))
    layer.weights = np.array([[[1.0, -1.0]]])
    layer.bias = np.array([0.5])
    y = layer.forward(np.array([[[1.0, 3.0, 6.0, 10.0]]]))
    np.testing.assert_allclose(y, [[[-1.5, -2.5, -3.5]]])


def test_conv1d_gradients():
    rng = np.random.default_rng(10)
    for i in range(N_CONFIGS):
        c, length = int(rng.integers(1, 4)), int(rng.integers(4, 9))
        f = int(rng.integers(1, length + 1))
        planes = int(rng.integers(1, 4))
        padding = "same" if i % 2 else "valid"
        layer = Conv1D(f, planes, padding=padding)
        layer.wire((c, length))
        layer.init_params(rng)
        x = rng.normal(size=(int(rng.integers(1, 4)), c, length))
        _check_all_grads(layer, x, rng)


def test_conv1d_same_padding_keeps_length():
    layer = Conv1D(4, 3, padding="same")
    assert layer.wire((2, 7)) == (3, 7)


def test_conv1d_valid_filter_too_long():
    with pytest.raises(ShapeError):
        Conv1D(5, 1).wire((1, 4))


# ---------------------------------------------------------------- conv2d

def test_conv2d_forward_known_values():
    layer = Conv2D(2, 2, 1)
    layer.wire((1, 3, 3))
    layer.weights = np.ones((1, 1, 2, 2))
    layer.bias = np.array([1.0])
    x = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
    y = layer.forward(x)
    np.testing.assert_allclose(y, [[[[9.0, 13.0], [21.0, 25.0]]]])


def test_conv2d_gradients():
    rng = np.random.default_rng(11)
    for i in range(N_CONFIGS):
        c = int(rng.integers(1, 3))
        h, w = int(rng.integers(3, 7)), int(rng.integers(3, 7))
        fh, fw = int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1))
        planes = int(rng.integers(1, 4))
        padding = "same" if i % 2 else "valid"
        layer = Conv2D(fh, fw, planes, padding=padding)
        layer.wire((c, h, w))
        layer.init_params(rng)
        x = rng.normal(size=(int(rng.integers(1, 3)), c, h, w))
        _check_all_grads(layer, x, rng)


def _direct_conv2d(x, weights, bias, padding):
    """Reference: sum over taps (u, v) of shifted input slices contracted with
    ``weights[:, :, u, v]``; no im2col."""
    fh, fw = weights.shape[2:]
    if padding == "same":
        x = np.pad(x, ((0, 0), (0, 0), ((fh - 1) // 2, fh // 2), ((fw - 1) // 2, fw // 2)))
    ho, wo = x.shape[2] - fh + 1, x.shape[3] - fw + 1
    y = np.zeros((x.shape[0], weights.shape[0], ho, wo)) + bias[:, None, None]
    for u in range(fh):
        for v in range(fw):
            y += np.einsum("nchw,pc->nphw", x[:, :, u:u + ho, v:v + wo], weights[:, :, u, v])
    return y


# (batch, planes in, height, width, fh, fw, planes out, padding): odd batches,
# C > 1 and non-square filters, under both paddings; height-1 cases with
# 1-high filters run through Conv1D as length-``width`` signals; spanning
# cases (one output position per sample) take the single-GEMM input gradient
BLOCKED_CONFIGS = [
    (5, 3, 7, 6, 3, 2, 4, "valid"),
    (7, 2, 6, 8, 2, 5, 3, "same"),
    (3, 1, 5, 5, 5, 5, 2, "valid"),
    (5, 2, 4, 7, 4, 3, 2, "same"),
    (5, 3, 1, 9, 1, 4, 2, "valid"),
    (7, 2, 1, 8, 1, 3, 3, "same"),
    (5, 2, 4, 3, 4, 3, 3, "valid"),     # 2D spanning
    (5, 2, 1, 1, 3, 2, 2, "same"),      # 2D spanning, 1x1 map
    (5, 3, 1, 6, 1, 6, 2, "valid"),     # 1D spanning
    (5, 2, 1, 1, 1, 3, 2, "same"),      # 1D spanning, length-1 signal
]


def _blocked_conv(monkeypatch, config, samples_per_block):
    """A wired, initialised convolution, its input, and the im2col budget
    patched to ``samples_per_block`` samples (0: below one sample)."""
    n, c, h, w, fh, fw, planes, padding = config
    rng = np.random.default_rng(sum(config[:-1]) + samples_per_block)
    if h == fh == 1:
        layer = Conv1D(fw, planes, padding=padding)
        _, wo = layer.wire((c, w))
        ho, x_shape = 1, (n, c, w)
    else:
        layer = Conv2D(fh, fw, planes, padding=padding)
        _, ho, wo = layer.wire((c, h, w))
        x_shape = (n, c, h, w)
    layer.init_params(rng)
    layer.bias[:] = rng.normal(size=planes)
    sample_bytes = 8 * ho * wo * fh * fw * c
    monkeypatch.setattr(layers, "_IM2COL_BLOCK_BYTES",
                        max(1, samples_per_block * sample_bytes + sample_bytes // 2))
    assert n > max(1, samples_per_block)    # several blocks; odd n leaves a partial one
    return layer, rng.normal(size=x_shape), rng


@pytest.mark.parametrize("samples_per_block", [0, 2])
@pytest.mark.parametrize("config", BLOCKED_CONFIGS)
def test_conv2d_blocked_forward_matches_direct_sum(monkeypatch, config, samples_per_block):
    layer, x, _ = _blocked_conv(monkeypatch, config, samples_per_block)
    if isinstance(layer, Conv1D):
        expected = _direct_conv2d(x[:, :, None], layer.weights[:, :, None], layer.bias,
                                  layer.padding)[:, :, 0]
    else:
        expected = _direct_conv2d(x, layer.weights, layer.bias, layer.padding)
    np.testing.assert_allclose(layer.forward(x), expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("config", BLOCKED_CONFIGS)
def test_conv2d_blocked_gradients(monkeypatch, config):
    layer, x, rng = _blocked_conv(monkeypatch, config, 2)
    _check_all_grads(layer, x, rng)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), c=st.integers(1, 3),
       h=st.integers(1, 6), w=st.integers(1, 6), fh=st.integers(1, 4),
       fw=st.integers(1, 4), same=st.booleans(), one_row=st.booleans())
def test_window_view_equals_sliding_window_view(seed, n, c, h, w, fh, fw, same, one_row):
    if one_row:
        h = 1
    rng = np.random.default_rng(seed)
    xt = rng.normal(size=(n, h, w, c))
    if same:   # the padded input, as the kernel builds it
        xp = np.zeros((n, h + fh - 1, w + fw - 1, c))
        xp[:, (fh - 1) // 2:(fh - 1) // 2 + h, (fw - 1) // 2:(fw - 1) // 2 + w] = xt
    else:
        fh, fw = min(fh, h), min(fw, w)
        xp = np.ascontiguousarray(xt)
    expected = sliding_window_view(xp, (fh, fw), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)
    view = layers._windows(xp, fh, fw)
    assert view.shape == expected.shape
    assert np.shares_memory(view, xp)
    np.testing.assert_array_equal(view, expected)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), c=st.integers(1, 3),
       length=st.integers(1, 9), f=st.integers(1, 9), planes=st.integers(1, 3),
       same=st.booleans())
def test_conv1d_equals_conv2d_with_height_one(seed, n, c, length, f, planes, same):
    padding = "same" if same else "valid"
    if not same:
        f = min(f, length)
    rng = np.random.default_rng(seed)
    conv1 = Conv1D(f, planes, padding=padding)
    conv1.wire((c, length))
    conv1.init_params(rng)
    conv1.bias[:] = rng.normal(size=planes)
    conv2 = Conv2D(1, f, planes, padding=padding)
    conv2.wire((c, 1, length))
    conv2.weights = conv1.weights[:, :, None].copy()
    conv2.bias = conv1.bias.copy()
    x1 = rng.normal(size=(n, c, length))
    x2 = x1[:, :, None].copy()
    y1, y2 = conv1.forward(x1), conv2.forward(x2)
    np.testing.assert_allclose(y1, y2[:, :, 0], rtol=1e-12, atol=1e-12)
    proj = rng.normal(size=y1.shape)
    dx1, g1 = analytic_grads(conv1, x1, proj)
    dx2, g2 = analytic_grads(conv2, x2, proj[:, :, None])
    for (a, ga), (_, gb) in zip([(x1, dx1)] + g1, [(x2, dx2)] + g2, strict=True):
        np.testing.assert_allclose(ga, gb.reshape(a.shape), rtol=1e-12, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       fh=st.integers(1, 4), fw=st.integers(1, 4), same=st.booleans(),
       budget=st.sampled_from([1, 2000, 1 << 22]))
def test_batched_stack_matches_per_sample(seed, n, fh, fw, same, budget):
    rng = np.random.default_rng(seed)
    stack = [Conv2D(fh, fw, 3, padding="same" if same else "valid"), BatchNorm(), ReLU(),
             Conv2D(2, 2, 2), BatchNorm(), ReLU()]
    shape = (2, 6, 5)
    for layer in stack:
        shape = layer.wire(shape)
        layer.init_params(rng)
    for layer in stack[1::3]:
        layer.scale[:] = rng.normal(1.0, 0.2, size=layer.planes)
        layer.shift[:] = rng.normal(size=layer.planes)
        layer.running_mean[:] = rng.normal(size=layer.planes)
        layer.running_var[:] = rng.uniform(0.5, 2.0, size=layer.planes)

    def run(x):
        for layer in stack:
            x = layer.forward(x, mode="infer")
        return x

    x = rng.normal(size=(n, 2, 6, 5))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(layers, "_IM2COL_BLOCK_BYTES", budget)
        batched = run(x)
        per_sample = np.concatenate([run(x[i:i + 1]) for i in range(n)])
    np.testing.assert_allclose(batched, per_sample, rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------- maxpool

def test_maxpool_forward_and_tie_rule():
    layer = MaxPool(2)
    layer.wire((1, 4))
    y = layer.forward(np.array([[[1.0, 4.0, 2.0, 2.0]]]))
    np.testing.assert_array_equal(y, [[[4.0, 2.0]]])
    # on a tie the gradient goes to the first position in row-major order,
    # in 1D and in 2D, where (0, 1) comes before (1, 0)
    ties = [(np.array([[[3.0, 3.0, 1.0, 0.0]]]), [[[1.0, 0.0, 1.0, 0.0]]]),
            (np.array([[[[0.0, 3.0], [3.0, 1.0]]]]), [[[[0.0, 1.0], [0.0, 0.0]]]])]
    for x, expected in ties:
        tape = GradientTape()
        out = layer.forward(x, mode="train", tape=tape)
        loss = np.asarray(out.sum())
        tape.record(loss, (out,), lambda g: (g * np.ones_like(out),), "proj")
        np.testing.assert_array_equal(backward(tape, loss)[0], expected)


def test_maxpool_window_must_divide():
    with pytest.raises(ShapeError):
        MaxPool(3).wire((1, 4))


def test_maxpool_gradients():
    rng = np.random.default_rng(12)
    for i in range(N_CONFIGS):
        k = int(rng.integers(1, 4))
        if i % 2:
            c, length = int(rng.integers(1, 4)), k * int(rng.integers(1, 4))
            layer = MaxPool(k)
            layer.wire((c, length))
            x = rng.normal(size=(int(rng.integers(1, 4)), c, length))
        else:
            c = int(rng.integers(1, 3))
            h, w = k * int(rng.integers(1, 4)), k * int(rng.integers(1, 4))
            layer = MaxPool(k)
            layer.wire((c, h, w))
            x = rng.normal(size=(int(rng.integers(1, 3)), c, h, w))
        _check_all_grads(layer, x, rng)


# ---------------------------------------------------------------- batchnorm

def test_batchnorm_normalizes_batch_in_training():
    rng = np.random.default_rng(13)
    layer = BatchNorm()
    layer.wire((3, 5))
    layer.init_params(rng)
    x = rng.normal(2.0, 3.0, size=(16, 3, 5))
    y = layer.forward(x, mode="train")
    np.testing.assert_allclose(y.mean(axis=(0, 2)), 0.0, atol=1e-12)
    np.testing.assert_allclose(y.std(axis=(0, 2)), 1.0, atol=1e-3)


def test_batchnorm_running_statistics_ema():
    rng = np.random.default_rng(14)
    layer = BatchNorm()
    layer.wire((2, 4))
    layer.init_params(rng)
    x = rng.normal(5.0, 2.0, size=(8, 2, 4))
    mu = x.mean(axis=(0, 2))
    var = x.var(axis=(0, 2))
    layer.forward(x, mode="train")
    np.testing.assert_allclose(layer.running_mean, 0.1 * mu)
    np.testing.assert_allclose(layer.running_var, 0.9 + 0.1 * var)


def test_batchnorm_inference_uses_running_stats():
    rng = np.random.default_rng(15)
    layer = BatchNorm()
    layer.wire((2, 3))
    layer.init_params(rng)
    layer.running_mean[:] = [1.0, 2.0]
    layer.running_var[:] = [4.0, 9.0]
    x = rng.normal(size=(5, 2, 3))
    y = layer.forward(x, mode="infer")
    expected = (x - np.array([1.0, 2.0]).reshape(1, 2, 1)) / np.sqrt(
        np.array([4.0, 9.0]).reshape(1, 2, 1) + BN_EPSILON)
    np.testing.assert_allclose(y, expected)


def test_batchnorm_rejects_single_sample_training():
    layer = BatchNorm()
    layer.wire((2, 3))
    layer.init_params(np.random.default_rng(0))
    with pytest.raises(ContractError):
        layer.forward(np.zeros((1, 2, 3)), mode="train")


def test_batchnorm_gradients():
    rng = np.random.default_rng(16)
    for i in range(N_CONFIGS):
        if i % 2:
            shape = (int(rng.integers(1, 4)), int(rng.integers(2, 6)))
            batch = int(rng.integers(2, 6))
            x = rng.normal(size=(batch,) + shape)
        else:
            shape = (int(rng.integers(1, 3)), int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            batch = int(rng.integers(2, 5))
            x = rng.normal(size=(batch,) + shape)
        layer = BatchNorm()
        layer.wire(shape)
        layer.init_params(rng)
        layer.scale[:] = rng.normal(1.0, 0.2, size=layer.planes)
        layer.shift[:] = rng.normal(size=layer.planes)
        mode = "train" if i % 3 else "infer"
        _check_all_grads(layer, x, rng, mode=mode)


# ---------------------------------------------------------------- dropout

def test_dropout_identity_at_inference():
    layer = Dropout(0.5)
    layer.wire((4,))
    x = np.ones((3, 4))
    assert layer.forward(x, mode="infer") is x


def test_dropout_inverted_scaling():
    layer = Dropout(0.25)
    layer.reseed(1)
    layer.wire((1000,))
    x = np.ones((4, 1000))
    y = layer.forward(x, mode="train")
    survivors = y[y != 0.0]
    np.testing.assert_allclose(survivors, 1.0 / 0.75)
    # survival rate close to 1 - rate
    assert abs(survivors.size / y.size - 0.75) < 0.05


def test_dropout_reseed_reproduces_masks():
    x = np.ones((2, 50))
    a, b = Dropout(0.5), Dropout(0.5)
    a.reseed(3)
    b.reseed(3)
    np.testing.assert_array_equal(a.forward(x, mode="train"),
                                  b.forward(x, mode="train"))


def test_dropout_gradient_matches_mask():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(3, 20))
    layer = Dropout(0.4)
    layer.reseed(9)
    layer.wire((20,))
    tape = GradientTape()
    y = layer.forward(x, mode="train", tape=tape)
    mask = np.where(y != 0.0, 1.0 / 0.6, 0.0)
    proj = rng.normal(size=y.shape)
    loss = np.asarray(np.sum(y * proj))
    tape.record(loss, (y,), lambda g: (g * proj,), "proj")
    dx, _ = backward(tape, loss)
    np.testing.assert_allclose(dx, proj * mask)


def test_dropout_rate_validation():
    with pytest.raises(ContractError):
        Dropout(1.0)
    with pytest.raises(ContractError):
        Dropout(-0.1)


# ---------------------------------------------------------------- relu / flatten / dense

def test_relu_forward_and_gradient_gate():
    rng = np.random.default_rng(18)
    for _ in range(N_CONFIGS):
        layer = ReLU()
        x = rng.normal(size=(int(rng.integers(1, 4)), int(rng.integers(2, 6))))
        layer.wire(x.shape[1:])
        np.testing.assert_array_equal(layer.forward(x), np.maximum(x, 0.0))
        _check_all_grads(layer, x, rng)


def test_flatten_row_major():
    layer = Flatten()
    assert layer.wire((2, 3, 4)) == (24,)
    x = np.arange(48, dtype=np.float64).reshape(2, 2, 3, 4)
    np.testing.assert_array_equal(layer.forward(x), x.reshape(2, 24))


def test_dense_gradients():
    rng = np.random.default_rng(19)
    for _ in range(N_CONFIGS):
        in_dim, out_dim = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        layer = Dense(out_dim)
        layer.wire((in_dim,))
        layer.init_params(rng)
        x = rng.normal(size=(int(rng.integers(1, 5)), in_dim))
        _check_all_grads(layer, x, rng)


def test_dense_shape_check():
    layer = Dense(3)
    layer.wire((4,))
    layer.init_params(np.random.default_rng(0))
    with pytest.raises(ShapeError):
        layer.forward(np.zeros((2, 5)))


# ---------------------------------------------------------------- loss

def test_mse_loss_single_sample_is_sum_of_squares():
    out = np.array([[1.0, 0.0, 1.0, 1.0]])
    target = np.array([[1.0, 1.0, 0.0, 1.0]])
    assert float(mse_loss(out, target)) == 2.0


def test_mse_loss_batch_mean():
    out = np.array([[2.0, 0.0], [0.0, 0.0]])
    target = np.zeros((2, 2))
    assert float(mse_loss(out, target)) == 2.0


def test_mse_loss_gradient():
    rng = np.random.default_rng(20)
    for _ in range(N_CONFIGS):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        out = rng.normal(size=(n, m))
        target = rng.normal(size=(n, m))
        tape = GradientTape()
        loss = mse_loss(out, target, tape=tape)
        dout, _ = backward(tape, loss)
        num = numeric_gradient(lambda a: float(mse_loss(a, target)), out, step=STEP)
        assert relative_error(dout, num) < TOL


def test_mse_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        mse_loss(np.zeros((2, 3)), np.zeros((2, 4)))


# ---------------------------------------------------------------- model stack

def _small_model():
    layers = [Conv1D(3, 4), BatchNorm(), ReLU(), MaxPool(2),
              Flatten(), Dense(8)]
    return FeatureExtractor(layers, (1, 10), 8)


def test_model_wiring_validates_output_rank():
    with pytest.raises(ShapeError):
        FeatureExtractor([Flatten()], (1, 10), 8)


def test_model_end_to_end_gradient():
    rng = np.random.default_rng(21)
    model = _small_model().initialize(rng)
    x = rng.normal(size=(4, 1, 10))
    target = rng.normal(size=(4, 8))
    tape = GradientTape()
    out = model.forward(x, mode="train", tape=tape)
    loss = mse_loss(out, target, tape=tape)
    _, grads = backward(tape, loss)
    assert [id(p) for p, _ in grads] == [id(p) for p in model.trainable_params]
    for p, g in grads:
        def fn(_):
            return float(mse_loss(model.forward(x, mode="train"), target))
        assert relative_error(g, numeric_gradient(fn, p, step=STEP)) < TOL


def test_model_snapshot_restore_roundtrip():
    rng = np.random.default_rng(22)
    model = _small_model().initialize(rng)
    snap = model.snapshot()
    for p in model.trainable_params:
        p += 1.0
    model.restore(snap)
    for a, b in zip(model.state_arrays, snap):
        np.testing.assert_array_equal(a, b)


def test_model_weight_count_excludes_biases():
    model = _small_model()
    # conv: 4*1*3 = 12; dense: 8 * (4 planes * 4 pooled) = 128; bn and biases excluded
    assert model.weight_count() == 12 + 128


def test_model_accepts_channelless_input():
    rng = np.random.default_rng(23)
    model = _small_model().initialize(rng)
    with_channel = model.forward(rng.normal(size=(2, 1, 10)))
    assert with_channel.shape == (2, 8)
    flat = model.forward(np.zeros((2, 10)))
    assert flat.shape == (2, 8)
    with pytest.raises(ShapeError):
        model.forward(np.zeros((2, 3, 10)))


def test_he_initialization_statistics():
    rng = np.random.default_rng(24)
    layer = Dense(400)
    layer.wire((200,))
    layer.init_params(rng)
    assert abs(layer.weights.std() - np.sqrt(2.0 / 200)) < 0.005
    np.testing.assert_array_equal(layer.bias, 0.0)


# ---------------------------------------------------------------- flat parameter vector

SPECS = Path(__file__).resolve().parent.parent / "specs"


def _assert_params_are_views(model):
    params = model.trainable_params
    assert sum(p.size for p in params) == model.params.size
    for p in params:
        assert np.shares_memory(p, model.params)
    np.testing.assert_array_equal(np.concatenate([p.ravel() for p in params]), model.params)


@pytest.mark.parametrize("make", [_small_model, lambda: load_model_spec(SPECS / "iris.spec"),
                                  lambda: load_model_spec(SPECS / "mnist.spec")],
                         ids=["small", "iris", "mnist"])
def test_trainable_arrays_are_views_of_the_flat_vector(tmp_path, make):
    model = make()
    assert model.params is None
    model.initialize(np.random.default_rng(30))
    _assert_params_are_views(model)
    # a write through the flat vector is a write to the layers, and back
    model.params[:] = np.arange(model.params.size)
    assert model.trainable_params[0].ravel()[1] == 1.0
    model.trainable_params[-1][...] = -1.0
    assert model.params[-1] == -1.0

    snap = model.snapshot()
    model.params += 1.0
    model.restore(snap)
    _assert_params_are_views(model)
    for a, b in zip(model.state_arrays, snap):
        np.testing.assert_array_equal(a, b)

    path = tmp_path / "model.divf"
    save_checkpoint(model, make_codebook(2, model.rank), path)
    loaded, _, _ = load_checkpoint(path)
    _assert_params_are_views(loaded)
    for a, b in zip(loaded.state_arrays, model.state_arrays):
        np.testing.assert_array_equal(a, b)


def test_model_without_parameters_gets_an_empty_vector():
    model = parse_model_spec("input 8\nwalsh_rank 8\nflatten\n").initialize(0)
    assert model.params.shape == (0,)
    assert model.trainable_params == []


def _randomize_running_stats(model, rng):
    for layer in model.layers:
        if isinstance(layer, BatchNorm):
            layer.running_mean[:] = rng.normal(size=layer.planes)
            layer.running_var[:] = rng.uniform(0.5, 2.0, size=layer.planes)


@pytest.mark.parametrize("name", ["iris", "mnist"])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
def test_model_batched_inference_matches_per_sample(name, seed, n):
    rng = np.random.default_rng(seed)
    model = load_model_spec(SPECS / f"{name}.spec").initialize(rng)
    _randomize_running_stats(model, rng)
    x = rng.normal(size=(n,) + model.input_shape)
    batched = model.forward(x, mode="infer")
    per_sample = np.concatenate([model.forward(x[i:i + 1], mode="infer") for i in range(n)])
    np.testing.assert_allclose(batched, per_sample, rtol=1e-9, atol=1e-9)
