"""Layer forward passes and gradient checks against finite differences."""

import collections
import inspect
import itertools
import os
import subprocess
import sys
import threading
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from divfe import layers
from divfe.checkpoint import load_checkpoint, save_checkpoint
from divfe.layers import (BN_EPSILON, BN_MOMENTUM, BatchNorm, Conv1D, Conv2D, Dense,
                          FeatureExtractor, Flatten, ReLU, mse_loss)
from divfe.modelspec import load_model_spec, parse_model_spec
from divfe.numerics import ContractError, GradientTape, ShapeError, backward
from divfe.walsh import make_codebook

from _gradcheck import (N_CONFIGS, STEP, TOL, analytic_grads,
                        check_all_grads as _check_all_grads, input_gradients, input_tape,
                        numeric_gradient, relative_error, train_forward, unfolded_inference,
                        unlinked)


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


def test_conv2d_rejects_an_unknown_padding():
    with pytest.raises(ContractError, match="unknown padding 'full'"):
        Conv2D(3, 3, 2, padding="full")


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


def _direct_conv2d_adjoint(x, weights, dy, padding):
    """Reference ``(dx, dW, db)`` of :func:`_direct_conv2d` for the output
    gradient ``dy``: its tap sum transposed, tap (u, v) adding ``dy`` contracted
    with ``weights[:, :, u, v]`` into the shifted input slice, and ``dy``
    contracted with that slice into ``dW[:, :, u, v]``."""
    fh, fw = weights.shape[2:]
    h, w = x.shape[2:]
    top, left = ((fh - 1) // 2, (fw - 1) // 2) if padding == "same" else (0, 0)
    if padding == "same":
        x = np.pad(x, ((0, 0), (0, 0), (top, fh - 1 - top), (left, fw - 1 - left)))
    ho, wo = dy.shape[2:]
    dxp, dw = np.zeros(x.shape), np.zeros(weights.shape)
    for u in range(fh):
        for v in range(fw):
            dxp[:, :, u:u + ho, v:v + wo] += np.einsum("nphw,pc->nchw", dy, weights[:, :, u, v])
            dw[:, :, u, v] = np.einsum("nphw,nchw->pc", dy, x[:, :, u:u + ho, v:v + wo])
    return dxp[:, :, top:top + h, left:left + w], dw, dy.sum(axis=(0, 2, 3))


# (batch, planes in, height, width, fh, fw, planes out, padding): odd batches,
# C > 1 and non-square filters, under both paddings; height-1 cases with
# 1-high filters run through Conv1D as length-``width`` signals. The input
# gradient takes row windows on every config: the two-tap filter, the output
# narrower than its filter, the spanning cases (one output position per
# sample) and the three with C = 1 among them
BLOCKED_CONFIGS = [
    (5, 3, 7, 6, 3, 2, 4, "valid"),
    (7, 2, 6, 8, 2, 5, 3, "same"),
    (5, 2, 4, 7, 4, 3, 2, "same"),
    (5, 3, 1, 9, 1, 4, 2, "valid"),
    (7, 2, 1, 8, 1, 3, 3, "same"),
    (5, 1, 6, 7, 3, 2, 3, "valid"),     # 2D, one plane
    (5, 1, 1, 9, 1, 3, 4, "same"),      # 1D, one plane
    (5, 3, 1, 7, 1, 2, 2, "same"),      # 1D, two taps
    (5, 2, 6, 6, 2, 4, 3, "valid"),     # output 3 wide, filter 4
    (3, 1, 5, 5, 5, 5, 2, "valid"),     # 2D spanning
    (5, 2, 4, 3, 4, 3, 3, "valid"),     # 2D spanning
    (5, 2, 1, 1, 3, 2, 2, "same"),      # 2D spanning, 1x1 map
    (5, 3, 1, 6, 1, 6, 2, "valid"),     # 1D spanning
    (5, 2, 1, 1, 1, 3, 2, "same"),      # 1D spanning, length-1 signal
]


def _blocked_conv(monkeypatch, config, samples_per_block):
    """A wired, initialised convolution, its input, and the row-window budget
    patched to ``samples_per_block`` samples (0: below one sample), checked
    for the backward's row windows of the padded ``dy`` and then for the
    forward's: each pass copies its windows in several blocks of at most the
    budget, the last one partial when a block holds several samples. On one
    input plane the forward copies whole fh×fw windows instead of row windows,
    plane-major ``(fh, fw, 1, Ho, Wo)`` per sample; ``dy``'s are row windows
    on any number. The weight gradient
    copies the forward's windows again in the forward's blocks, and none when
    one block held the batch."""
    n, c, h, w, fh, fw, planes, padding = config
    rng = np.random.default_rng(sum(config[:-1]) + samples_per_block)
    if h == fh == 1:
        layer = Conv1D(fw, planes, padding=padding)
        _, wo = layer.wire((c, w))
        x_shape = (n, c, w)
    else:
        layer = Conv2D(fh, fw, planes, padding=padding)
        _, _, wo = layer.wire((c, h, w))
        x_shape = (n, c, h, w)
    layer.init_params(rng)
    layer.bias[:] = rng.normal(size=planes)
    hp, wp = (h + fh - 1, w + fw - 1) if padding == "same" else (h, w)
    ho = hp - fh + 1
    x = rng.normal(size=x_shape)
    step = max(1, samples_per_block)
    assert n > step and (step == 1 or n % step)
    blocks = [step] * (n // step) + [n % step] * (n % step > 0)

    def block_sizes(sample, run):
        """The samples in each block of ``sample``-shaped windows ``run()``
        copies under a budget of ``samples_per_block`` and a half of them."""
        sample_bytes = 8 * int(np.prod(sample))
        budget = max(1, samples_per_block * sample_bytes + sample_bytes // 2)
        monkeypatch.setattr(layers, "_IM2COL_BLOCK_BYTES", budget)
        copied = _copied_blocks(run)
        assert all(b.nbytes <= budget for b in copied if len(b) > 1)
        return [len(b) for b in copied if b.shape[1:] == sample]

    y, bwd = _row_window_conv(layer, x)     # under the default budget: one block
    dy = rng.normal(size=y.shape)
    forward = (fh, fw, 1, ho, wo) if c == 1 else (hp, wo, 1, fw, c)
    assert forward not in [b.shape[1:] for b in _copied_blocks(lambda: bwd(dy))]
    assert block_sizes((ho, wp, 1, fw, planes), lambda: bwd(dy)) == blocks
    assert block_sizes(forward, lambda: _row_window_conv(layer, x)) == blocks
    bwd = _row_window_conv(layer, x)[1]
    assert block_sizes(forward, lambda: bwd(dy)) == blocks
    return layer, x, rng


def _row_window_conv(layer, x):
    """The row-window kernel's ``(y, bwd)`` on the layer's arrays, whichever
    kernel the layer would take."""
    return layers._conv2d(x, layer.weights, layer.bias, layer.padding)


# one block of windows copied in a walk: the walk's number and block count,
# the block's index j, the worker i that claimed it, where it was copied to, and
# whether the calling thread copied it
Copy = collections.namedtuple("Copy", "walk blocks block worker dst on_caller")


def _copies(run):
    """A :class:`Copy` for every block of windows ``np.copyto`` fills while
    ``run()`` runs: walks numbered in the order they start, and each walk's
    copies in block order j. Block order is read from :func:`layers._share`,
    not from the source address: the input gradient's blocks copy their
    windows from their worker's padded part of the workspace, the same memory
    for every block of a worker."""
    copies, current = [], threading.local()
    copyto, share = np.copyto, layers._share
    caller, walks = threading.get_ident(), itertools.count()

    def spy_share(blocks, k, work):
        walk = next(walks)

        def tagged(i, j):
            current.block = walk, blocks, j, i
            return work(i, j)

        return share(blocks, k, tagged)

    def spy(dst, src, *args, **kwargs):
        copies.append(Copy(*current.block, dst, threading.get_ident() == caller))
        return copyto(dst, src, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(layers, "_share", spy_share)
        mp.setattr(np, "copyto", spy)
        run()
    return sorted(copies, key=lambda copy: (copy.walk, copy.block))


def _copied_blocks(run):
    """Every block of windows ``np.copyto`` fills while ``run()`` runs, walk by
    walk, each in block order."""
    return [copy.dst for copy in _copies(run)]


def _check_claims(copies, workers):
    """Each walk in ``copies`` spans at least 3 blocks and copies every block
    exactly once, each into part i of the walk's buffer, i the worker that
    claimed it, i < k = min(workers, ceil(blocks / 2)); worker 0 is the
    calling thread. Returns the walks' block counts."""
    walks = [list(walk) for _, walk in itertools.groupby(copies, lambda copy: copy.walk)]
    for walk in walks:
        blocks = walk[0].blocks
        k = min(workers, -(-blocks // 2))
        part = walk[0].dst.nbytes        # block 0 is a full block: one worker's part
        assert blocks >= 3 and [copy.block for copy in walk] == list(range(blocks))
        for copy in walk:
            assert copy.worker < k and copy.on_caller == (copy.worker == 0)
            assert _address(copy.dst) - _address(copy.dst.base) == copy.worker * part
    return [walk[0].blocks for walk in walks]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("config", [
    (7, 1, 9, 8, 3, 3, 4, "valid"),     # 2D, one plane: whole filter windows
    (7, 3, 9, 8, 3, 2, 4, "same"),      # 2D, several planes: row windows
    (7, 1, 1, 20, 1, 5, 3, "same"),     # signal, one plane
    (7, 4, 1, 20, 1, 5, 3, "valid"),    # signal, several planes
])
def test_row_window_kernel_is_bit_identical_on_any_number_of_workers(monkeypatch, config, dtype):
    """``y``, ``dx``, ``dW`` and ``db`` are the same bytes on 1, 2 and 5
    workers (5: more than any pass takes), each pass walking at least 3
    blocks, each block copied exactly once by the worker that claimed it,
    into that worker's part of the buffer (:func:`_check_claims`)."""
    n, c, h, w, fh, fw, planes, padding = config
    signal = h == fh == 1
    rng = np.random.default_rng(sum(config[:-1]))
    x = rng.normal(size=(n, c, w) if signal else (n, c, h, w)).astype(dtype)
    weights = rng.normal(size=(planes, c, fw) if signal else (planes, c, fh, fw))
    bias = rng.normal(size=planes)
    hp, wp = (h + fh - 1, w + fw - 1) if padding == "same" else (h, w)
    height = fh if c == 1 else 1
    samples = ((hp - height + 1) * (wp - fw + 1) * height * c, (hp - fh + 1) * wp * planes)
    # two samples of the smaller windows: 4 to 7 blocks of the 7 samples each pass
    monkeypatch.setattr(layers, "_IM2COL_BLOCK_BYTES", 2 * fw * min(samples) * x.itemsize)
    dy = rng.normal(size=layers._conv2d(x, weights, bias, padding)[0].shape).astype(dtype)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # the threads of a walk interleave as finely as they can
    try:
        results = {workers: _walked(monkeypatch, workers, x, weights, bias, padding, dy)
                   for workers in (1, 2, 5)}
    finally:
        sys.setswitchinterval(switch)
    for workers in (2, 5):
        for name, array in results[1].items():
            assert array.dtype == results[workers][name].dtype == dtype, name
            np.testing.assert_array_equal(results[workers][name], array, err_msg=name)


def _walked(monkeypatch, workers, x, weights, bias, padding, dy):
    """The kernel's ``y``, ``dx``, ``dW`` and ``db`` on ``workers`` workers,
    after checking the claims of its three walks (:func:`_check_claims`)."""
    monkeypatch.setattr(layers, "_CORES", workers)
    out = {}

    def forward():
        out["y"], out["bwd"] = layers._conv2d(x, weights, bias, padding)

    def backward():
        out["dx"], out["dw"], out["db"] = out.pop("bwd")(dy)

    # the forward's walk, then the weight gradient's and the input gradient's
    assert len(_check_claims(_copies(forward), workers)) == 1
    assert len(_check_claims(_copies(backward), workers)) == 2
    return out


class _DeferredPool:
    """A pool whose task runs only when its result is awaited, on the
    awaiting thread: a worker that wakes after the caller's last block."""

    def submit(self, fn, *args):
        return types.SimpleNamespace(result=lambda: fn(*args))


def test_the_calling_thread_claims_every_block_a_late_worker_leaves(monkeypatch):
    """With the pool's workers deferred until the caller awaits them, the
    calling thread, worker 0, claims and copies every block of all three
    walks, and ``y``, ``dx``, ``dW`` and ``db`` are the inline result's bytes."""
    rng = np.random.default_rng(37)
    x, dy = rng.normal(size=(7, 3, 9, 8)), rng.normal(size=(7, 4, 9, 8))
    weights, bias = rng.normal(size=(4, 3, 3, 2)), rng.normal(size=4)
    monkeypatch.setattr(layers, "_IM2COL_BLOCK_BYTES", 2 * 8 * 11 * 8 * 2 * 3)   # 2 samples
    inline = _walked(monkeypatch, 1, x, weights, bias, "same", dy)
    monkeypatch.setattr(layers, "_CORES", 2)
    monkeypatch.setattr(layers, "_pool", _DeferredPool)
    late = {}

    def run():
        late["y"], bwd = layers._conv2d(x, weights, bias, "same")
        late["dx"], late["dw"], late["db"] = bwd(dy)

    copies = _copies(run)
    assert _check_claims(copies, 2) == [4, 4, 7]     # dy's padded windows: 1 sample a block
    assert all(copy.worker == 0 for copy in copies)
    for name, array in inline.items():
        np.testing.assert_array_equal(late[name], array, err_msg=name)


@pytest.mark.parametrize("workers", [2, 5])
def test_every_claimed_block_runs_exactly_once(workers):
    """Over 200 walks of 0 to 12 blocks, with the threads switching as often
    as they can, ``_share`` runs each block's work exactly once, on a worker
    i < k = min(workers, ceil(blocks / 2)), and returns the results in block
    order."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for walk in range(200):
            blocks, ran = walk % 13, []
            k = min(workers, -(-blocks // 2))
            results = layers._share(blocks, k, lambda i, j: ran.append((j, i)) or j)
            assert results == list(range(blocks))
            assert sorted(j for j, _ in ran) == list(range(blocks))
            assert all(i < k for _, i in ran)
    finally:
        sys.setswitchinterval(switch)


def test_a_convolution_plans_each_walk_once(monkeypatch):
    """One forward and backward, with ``dx``, of a layer whose walks span
    several blocks computes one block plan per walk: the weight gradient's
    partials come back from its walk, so the backward plans no blocks of its
    own."""
    rng = np.random.default_rng(38)
    x, dy = rng.normal(size=(7, 3, 9, 8)), rng.normal(size=(7, 4, 9, 8))
    weights, bias = rng.normal(size=(4, 3, 3, 2)), rng.normal(size=4)
    monkeypatch.setattr(layers, "_IM2COL_BLOCK_BYTES", 2 * 8 * 11 * 8 * 2 * 3)   # 2 samples
    plans, block_starts = [], layers._block_starts
    monkeypatch.setattr(layers, "_block_starts",
                        lambda *args: plans.append(block_starts(*args)) or plans[-1])
    _, bwd = layers._conv2d(x, weights, bias, "same")
    assert bwd(dy)[0].shape == x.shape
    # the forward's walk, the weight gradient's and the input gradient's
    assert [len(starts) for starts in plans] == [4, 4, 7]


def test_mnist_step_and_inference_are_bit_identical_on_any_number_of_workers(monkeypatch):
    """One mnist.spec training step at fit's batch of 32 (loss, every gradient
    and the state after it), then an inference with the ReLUs in the folded
    kernels, are the same bytes on 1, 2 and 5 workers: the 5x5 convolution's
    walks span 8 blocks, which 2 and 4 workers share."""
    rng = np.random.default_rng(31)
    x, target = rng.random((32, 28, 28)), rng.normal(size=(32, 16))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # the threads of a walk interleave as finely as they can
    try:
        results = {workers: _mnist_step_and_inference(monkeypatch, workers, x, target)
                   for workers in (1, 2, 5)}
    finally:
        sys.setswitchinterval(switch)
    assert [taken for _, taken in results.values()] == [1, 2, 4]
    for workers in (2, 5):
        for name, array in results[1][0].items():
            np.testing.assert_array_equal(results[workers][0][name], array, err_msg=name)


def _mnist_step_and_inference(monkeypatch, workers, x, target):
    """``(arrays, k)``: mnist.spec's step and inference on ``workers`` workers,
    and the most workers any walk or pass took."""
    monkeypatch.setattr(layers, "_CORES", workers)
    taken, share = [], layers._share
    monkeypatch.setattr(layers, "_share", lambda blocks, k, work:
                        taken.append(k) or share(blocks, k, work))
    model, out = _mnist_step(x, target)
    out["inference"] = model.forward(x)
    return out, max(taken)


def _mnist_step(x, target, seed=0):
    """``(model, arrays)``: a new mnist.spec model and the loss, every gradient
    and the state after one training step of it on ``x``."""
    model = load_model_spec(SPECS / "mnist.spec").initialize(seed)
    tape = GradientTape()
    loss = mse_loss(model.forward(x, mode="train", tape=tape), target, tape=tape)
    out = {"loss": loss}
    out.update((f"gradient {i}", g) for i, (_, g) in enumerate(backward(tape, loss)[1]))
    out.update((f"state {i}", array) for i, array in enumerate(model.state_arrays))
    return model, out


def _address(array):
    return array.__array_interface__["data"][0]


def test_backwards_of_one_geometry_copy_their_windows_into_the_same_memory(monkeypatch):
    """Every walk of several blocks copies into the calling thread's
    workspace, kept between calls: the second backward's blocks land where
    the first's did, though the first's are still referenced."""
    rng = np.random.default_rng(33)
    x, dy = rng.normal(size=(7, 3, 9, 8)), rng.normal(size=(7, 4, 9, 8))
    weights, bias = rng.normal(size=(4, 3, 3, 2)), rng.normal(size=4)
    monkeypatch.setattr(layers, "_IM2COL_BLOCK_BYTES", 2 * 8 * 11 * 8 * 2 * 3)   # 2 samples
    walks = []    # the first backward's blocks stay referenced through the second
    for _ in range(2):
        bwd = layers._conv2d(x, weights, bias, "same")[1]
        walks.append(_copied_blocks(lambda: bwd(dy)))
    first, second = walks
    assert len(first) == len(second) >= 8     # the weight gradient's and the input gradient's
    assert all(dst.base is layers._WORKSPACE.blocks for dst in first + second)


def test_interleaved_convolutions_keep_their_results_out_of_the_workspace():
    """A mnist.spec 5x5 layer, then a grown signal model's ``conv1d 9 16``,
    each walking several blocks: the second call leaves the first's ``y``,
    ``dx`` and ``dW`` as they were, and no result shares memory with the
    workspace."""
    rng = np.random.default_rng(34)

    def call(x, weights):
        y, bwd = layers._conv2d(x, weights, rng.normal(size=len(weights)), "valid")
        return (y, *bwd(rng.normal(size=y.shape).astype(x.dtype)))

    first = call(rng.normal(size=(32, 20, 26, 26)).astype(np.float32),
                 rng.normal(size=(20, 20, 5, 5)))
    before = [array.copy() for array in first]
    second = call(rng.normal(size=(16, 16, 128)), rng.normal(size=(16, 16, 9)))
    for array, copy in zip(first, before, strict=True):
        np.testing.assert_array_equal(array, copy)
    slots = [layers._WORKSPACE.blocks, layers._WORKSPACE.padded]
    assert not any(np.shares_memory(array, slot) for array in first + second for slot in slots)


def test_mnist_step_is_the_same_with_fresh_scratch(monkeypatch):
    """One mnist.spec training step (loss, every gradient and the state after
    it) is the same bytes with every workspace request a new buffer: layer
    0's single-block forward keeps its windows for the backward, past the
    walks of the layers after it, so they may not come from the workspace
    (which the first step grows to the largest walk's)."""
    rng = np.random.default_rng(35)
    x, target = rng.random((32, 28, 28)), rng.normal(size=(32, 16))
    kept = [_mnist_step(x, target)[1] for _ in range(2)][1]
    monkeypatch.setattr(layers, "_scratch", lambda slot, shape, dtype: np.empty(shape, dtype))
    fresh = _mnist_step(x, target)[1]
    for name, array in fresh.items():
        np.testing.assert_array_equal(kept[name], array, err_msg=name)


def test_models_trained_in_two_threads_at_once_match_the_same_steps_in_turn(monkeypatch):
    """Each calling thread walks with its own workspace: two mnist.spec steps
    on different batches, run at once in two threads on 3 workers each,
    give the bytes they give one after the other."""
    monkeypatch.setattr(layers, "_CORES", 3)
    rng = np.random.default_rng(36)
    batches = [(rng.random((32, 28, 28)), rng.normal(size=(32, 16)), seed) for seed in (1, 2)]
    in_turn = [_mnist_step(*batch)[1] for batch in batches]
    at_once, start = [None, None], threading.Barrier(2)

    def step(i):
        start.wait(timeout=60)
        at_once[i] = _mnist_step(*batches[i])[1]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # the two steps interleave as finely as they can
    try:
        threads = [threading.Thread(target=step, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    for expected, result in zip(in_turn, at_once, strict=True):
        for name, array in expected.items():
            np.testing.assert_array_equal(result[name], array, err_msg=name)


def test_batchnorm_sums_its_blocks_in_block_order(monkeypatch):
    # the batch mean and variance, through the running statistics, and dbeta
    # are bit-identical to the sums of each block's own per-plane sums, first
    # block first
    rng = np.random.default_rng(32)
    n, c, h, w = 7, 3, 4, 5
    x = (3.0 + 10.0 * rng.normal(size=(n, c, h, w))).astype(np.float32)
    dy = rng.normal(size=x.shape).astype(np.float32)
    monkeypatch.setattr(layers, "_NORM_BLOCK_BYTES", 2 * c * h * w * 4)    # 2 samples
    layer = BatchNorm()
    layer.wire((c, h, w))
    layer.init_params(rng)
    expected_mean, expected_var = layer.running_mean.copy(), layer.running_var.copy()
    _, bwd = layer._apply(x, True)
    dbeta = bwd(dy)[2]

    def in_block_order(values):
        """Each 2-sample block's per-plane sums of ``values (N, ..., C)``, summed in
        order, from C-contiguous rows as the layer's are."""
        total, values = None, np.ascontiguousarray(values)
        for s in range(0, n, 2):
            rows = values[s:s + 2].reshape(-1, c)
            part = np.ones(len(rows), np.float32) @ rows
            total = part if total is None else total + part
        return total

    xt, m = x.transpose(0, 2, 3, 1), n * h * w
    mean = in_block_order(xt) / m
    centred = xt - mean
    var = in_block_order(centred * centred) / m
    for expected, value in ((expected_mean, mean), (expected_var, var)):
        expected *= BN_MOMENTUM
        expected += (1.0 - BN_MOMENTUM) * value
    assert layer.running_mean.tobytes() == expected_mean.tobytes()
    assert layer.running_var.tobytes() == expected_var.tobytes()
    assert dbeta.tobytes() == in_block_order(dy.transpose(0, 2, 3, 1)).tobytes()


def test_batchnorm_runs_its_blocks_on_the_calling_thread(monkeypatch):
    # a block is a few small numpy calls: handing blocks to another core cost
    # what that core added
    rng = np.random.default_rng(34)
    n, c, h, w = 16, 3, 4, 5
    monkeypatch.setattr(layers, "_CORES", 2)
    monkeypatch.setattr(layers, "_NORM_BLOCK_BYTES", 2 * c * h * w * 8)    # 2 samples

    def no_pool():
        raise AssertionError("a BatchNorm pass asked for the thread pool")

    shared, share = [], layers._share
    monkeypatch.setattr(layers, "_pool", no_pool)
    monkeypatch.setattr(layers, "_share", lambda blocks, k, work:
                        shared.append(blocks) or share(blocks, k, work))
    layer = BatchNorm()
    layer.wire((c, h, w))
    layer.init_params(rng)
    layer.relu = True
    x = rng.normal(size=(n, c, h, w))
    assert len(layers._norm_blocks(x.reshape(n, -1))) == 8
    _, bwd = layer._apply(x, True)
    bwd(rng.normal(size=x.shape))
    layer._apply(x, False)
    assert shared == []


@pytest.mark.parametrize("workers", [1, 2])
def test_weight_gradient_sums_its_blocks_in_block_order(monkeypatch, workers):
    # bit-identical to the sum of each block's own weight gradient, first block first
    rng = np.random.default_rng(30)
    x, dy = rng.normal(size=(7, 3, 9, 8)), rng.normal(size=(7, 4, 9, 8))
    weights, bias = rng.normal(size=(4, 3, 3, 2)), rng.normal(size=4)
    monkeypatch.setattr(layers, "_CORES", workers)
    monkeypatch.setattr(layers, "_IM2COL_BLOCK_BYTES", 2 * 8 * 11 * 8 * 2 * 3)   # 2 samples
    dw = layers._conv2d(x, weights, bias, "same")[1](dy)[1]
    expected = None
    for s in range(0, 7, 2):
        block = layers._conv2d(x[s:s + 2], weights, bias, "same")[1](dy[s:s + 2])[1]
        expected = block if expected is None else expected + block
    assert dw.tobytes() == expected.tobytes()


def test_a_walk_of_two_blocks_runs_inline(monkeypatch):
    # handing one of two blocks to another core costs more than it saves
    x, weights, bias = np.ones((4, 2, 5, 5)), np.ones((3, 2, 3, 3)), np.zeros(3)
    monkeypatch.setattr(layers, "_CORES", 2)
    monkeypatch.setattr(layers, "_IM2COL_BLOCK_BYTES", 2 * 8 * 5 * 3 * 3 * 2)   # 2 samples
    copies = _copies(lambda: layers._conv2d(x, weights, bias, "valid"))
    assert [copy.on_caller for copy in copies] == [True, True]


def _run_python(code):
    """Exit status of ``code`` run by a fresh interpreter that imports this divfe."""
    env = {**os.environ, "PYTHONPATH": str(Path(layers.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode


def test_import_leaves_the_thread_pool_module_unloaded():
    # concurrent.futures imports logging: only a walk of several blocks pays for it
    assert _run_python("import sys, divfe; sys.exit('concurrent.futures' in sys.modules)") == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_walks_several_blocks_on_its_own_pool():
    # the parent's walk builds the pool; the child inherits none of its threads
    assert _run_python("""if True:
        import os, signal, numpy as np
        from divfe import layers
        layers._CORES, layers._IM2COL_BLOCK_BYTES = 2, 1
        x, w, b = np.ones((4, 2, 5, 5)), np.ones((3, 2, 3, 3)), np.zeros(3)
        y = layers._conv2d(x, w, b, "valid")[0]
        pid = os.fork()
        if pid == 0:
            signal.alarm(50)   # a child stuck on its parent's threads ends with the test
            os._exit(0 if np.array_equal(layers._conv2d(x, w, b, "valid")[0], y) else 1)
        raise SystemExit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    """) == 0


@pytest.mark.parametrize("c", [1, 4])
def test_conv2d_frees_its_window_blocks_after_a_forward_of_several(monkeypatch, c):
    """While ``bwd`` lives, a forward over several blocks leaves only ``y``,
    the padded input and less than one sample's windows allocated: the weight
    gradient walks the windows again, so the forward keeps no block buffer
    for it (its walks copy into the workspace the warm-up call grew)."""
    n, h, w, fh, fw, planes = 8, 16, 16, 3, 3, 4
    rng = np.random.default_rng(c)
    x = rng.normal(size=(n, c, h, w))
    weights, bias = rng.normal(size=(planes, c, fh, fw)), rng.normal(size=planes)
    hp, wp = h + fh - 1, w + fw - 1
    height = fh if c == 1 else 1     # whole filter windows on one plane, row windows on several
    sample_windows = 8 * (hp - height + 1) * w * height * fw * c
    monkeypatch.setattr(layers, "_IM2COL_BLOCK_BYTES", 3 * sample_windows)
    layers._conv2d(x, weights, bias, "same")   # builds the worker pool, which outlives any pass
    tracemalloc.start()
    try:
        y, bwd = layers._conv2d(x, weights, bias, "same")
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held - y.nbytes - 8 * n * hp * wp * c < sample_windows
    assert bwd(np.ones_like(y))[0].shape == x.shape


@pytest.mark.parametrize("samples_per_block", [0, 2])
@pytest.mark.parametrize("config", BLOCKED_CONFIGS)
def test_conv2d_blocked_forward_matches_direct_sum(monkeypatch, config, samples_per_block):
    layer, x, _ = _blocked_conv(monkeypatch, config, samples_per_block)
    if isinstance(layer, Conv1D):
        expected = _direct_conv2d(x[:, :, None], layer.weights[:, :, None], layer.bias,
                                  layer.padding)[:, :, 0]
    else:
        expected = _direct_conv2d(x, layer.weights, layer.bias, layer.padding)
    np.testing.assert_allclose(_row_window_conv(layer, x)[0], expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("config", BLOCKED_CONFIGS)
def test_conv2d_blocked_gradients(monkeypatch, config):
    layer, x, rng = _blocked_conv(monkeypatch, config, 2)
    y, bwd = _row_window_conv(layer, x)
    proj = rng.normal(size=y.shape)
    grads = bwd(proj)
    assert len(grads) == 1 + len(layer.trainable_params)

    def loss(_):
        return float(np.sum(_row_window_conv(layer, x)[0] * proj))

    for arg, g in zip([x] + layer.trainable_params, grads):
        assert relative_error(g, numeric_gradient(loss, arg, step=STEP)) < TOL


@pytest.mark.parametrize("budget", [1, 2048, layers._IM2COL_BLOCK_BYTES])
@pytest.mark.parametrize("kernel", ["_conv2d", "_dense_conv"])
@pytest.mark.parametrize("config", BLOCKED_CONFIGS + [
    (5, 1, 5, 6, 3, 3, 2, "same"),      # 2D, one plane
    (4, 1, 1, 9, 1, 4, 3, "valid"),     # 1D, one plane
])
def test_kernels_without_input_gradient_keep_the_parameter_gradients(monkeypatch, config,
                                                                     kernel, budget):
    """With ``input_grad=False`` either kernel's backward returns ``None`` for
    ``dx`` and the same ``y``, ``dW`` and ``db``, byte for byte, under block
    budgets of one sample, of a few samples and of the whole batch."""
    n, c, h, w, fh, fw, planes, padding = config
    rng = np.random.default_rng(sum(config[:-1]))
    signal = h == fh == 1
    x = rng.normal(size=(n, c, w) if signal else (n, c, h, w))
    weights = rng.normal(size=(planes, c, fw) if signal else (planes, c, fh, fw))
    bias = rng.normal(size=planes)
    monkeypatch.setattr(layers, "_IM2COL_BLOCK_BYTES", budget)
    conv = getattr(layers, kernel)
    y, bwd = conv(x, weights, bias, padding)
    y_skip, bwd_skip = conv(x, weights, bias, padding, input_grad=False)
    dy = rng.normal(size=y.shape)
    dx, dw, db = bwd(dy)
    skipped, dw_skip, db_skip = bwd_skip(dy)
    assert skipped is None and dx.shape == x.shape
    for full, skip in ((y, y_skip), (dw, dw_skip), (db, db_skip)):
        assert skip.shape == full.shape and skip.tobytes() == full.tobytes()


# the valid rows whose filter covers the whole input, and the same rows on a
# 1x1 map (a length-1 signal), which also have one output position
SPANNING_CONFIGS = [config for config in BLOCKED_CONFIGS
                    if config[-1] == "valid" and config[2:4] == config[4:6]]
ONE_POSITION_SAME_CONFIGS = [config for config in BLOCKED_CONFIGS
                             if config[-1] == "same" and config[2:4] == (1, 1)]


def _kernel_inputs(config, dtype, with_bias):
    """``x`` in ``dtype``, float64 weights and a bias (``None`` without one)
    for a row of :data:`BLOCKED_CONFIGS`, 1D when it is one row high."""
    n, c, h, w, fh, fw, planes, _ = config
    rng = np.random.default_rng(sum(config[:-1]))
    signal = h == fh == 1
    x = rng.normal(size=(n, c, w) if signal else (n, c, h, w)).astype(dtype)
    weights = rng.normal(size=(planes, c, fw) if signal else (planes, c, fh, fw))
    return x, weights, rng.normal(size=planes) if with_bias else None


def _spied_dense_index(monkeypatch):
    """The arguments of every ``_dense_index`` call from here on."""
    calls, real = [], layers._dense_index
    monkeypatch.setattr(layers, "_dense_index", lambda *args: calls.append(args) or real(*args))
    return calls


def _gathered_dense_conv(x, weights, bias, dy, input_grad):
    """``(y, dx, dW[, db])`` of a spanning convolution by the dense kernel's
    general formula: ``T`` gathered from the weights by each entry's flat
    weight index, ``y = x @ T.T + bias``, ``dx = dy @ T`` and ``dy.T @ x``
    binned by that index into ``dW`` with ``bincount``, whose bins start at
    0.0."""
    n, c, *size = x.shape
    planes = len(weights)
    to_last, to_first = (0, *range(2, x.ndim), 1), (0, x.ndim - 1, *range(1, x.ndim - 1))
    idx = np.arange(weights.size).reshape(weights.shape).transpose(to_last).reshape(planes, -1)
    t = weights.ravel()[idx]
    x_m = x.transpose(to_last).reshape(n, -1)
    y = x_m @ t.T
    if bias is not None:
        y += bias
    dy_m = dy.reshape(n, planes)
    dx = ((dy_m @ t).reshape(n, *size, c).transpose(to_first).astype(x.dtype, copy=False)
          if input_grad else None)
    dw = np.bincount(idx.ravel(), (dy_m.T @ x_m).ravel(), weights.size).reshape(weights.shape)
    db = () if bias is None else (np.ones(n) @ dy_m,)
    return y.reshape(n, planes, *(1,) * len(size)), dx, dw, *db


@pytest.mark.parametrize("input_grad", [True, False])
@pytest.mark.parametrize("with_bias", [True, False])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("config", SPANNING_CONFIGS)
def test_a_spanning_convolution_multiplies_its_weights_directly(monkeypatch, config, dtype,
                                                                with_bias, input_grad):
    """A valid convolution whose filter covers its input builds no dense index
    and returns the gathered and binned formula's ``y``, ``dx``, ``dW`` and
    ``db`` byte for byte, in float64 and float32, with and without a bias and
    an input gradient. ``dy`` takes ``x``'s dtype, and ``dW`` is float64 as
    ``bincount`` makes it. One plane of ``dy`` is -0.0: its ``dW`` rows read
    +0.0 on either path, as ``bincount``'s bins make them."""
    x, weights, bias = _kernel_inputs(config, dtype, with_bias)
    calls = _spied_dense_index(monkeypatch)
    y, bwd = layers._dense_conv(x, weights, bias, config[-1], input_grad)
    dy = np.random.default_rng(len(x)).normal(size=y.shape).astype(dtype)
    dy[:, 0] = -0.0
    got = (y, *bwd(dy))
    assert calls == []
    expected = _gathered_dense_conv(x, weights, bias, dy, input_grad)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        if b is None:
            assert a is None
        else:
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("config", ONE_POSITION_SAME_CONFIGS)
def test_a_same_convolution_on_one_position_keeps_the_gather(monkeypatch, config):
    """A same filter larger than its 1×1 map (length-1 signal) also has one
    output position, but only its centre taps meet the input: its ``T`` is
    gathered through the dense index."""
    x, weights, bias = _kernel_inputs(config, np.float64, True)
    calls = _spied_dense_index(monkeypatch)
    y, bwd = layers._dense_conv(x, weights, bias, config[-1])
    bwd(np.ones(y.shape))
    assert len(calls) == 1


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), c=st.integers(1, 3),
       h=st.integers(1, 5), w=st.integers(1, 5), fh=st.integers(1, 4), fw=st.integers(1, 4),
       planes=st.integers(1, 3), same=st.booleans(), shape=st.sampled_from(["free", "spanning",
                                                                             "signal"]),
       budget=st.floats(0.0, 1.0), kernel=st.sampled_from(["_conv2d", "_dense_conv"]))
# each side of the one-plane selection, for a 2D filter and for a signal
@example(seed=1, n=3, c=1, h=5, w=5, fh=3, fw=2, planes=2, same=False, shape="free", budget=0.4,
         kernel="_conv2d")
@example(seed=2, n=3, c=2, h=5, w=5, fh=3, fw=2, planes=2, same=True, shape="free", budget=0.4,
         kernel="_conv2d")
@example(seed=3, n=3, c=1, h=1, w=5, fh=1, fw=3, planes=2, same=True, shape="signal", budget=0.4,
         kernel="_conv2d")
@example(seed=4, n=3, c=3, h=1, w=5, fh=1, fw=3, planes=2, same=False, shape="signal",
         budget=0.4, kernel="_conv2d")
# several planes: an output narrower than its filter, and filters of two taps
@example(seed=5, n=3, c=2, h=5, w=5, fh=2, fw=4, planes=3, same=False, shape="free", budget=0.4,
         kernel="_conv2d")
@example(seed=6, n=3, c=3, h=4, w=5, fh=1, fw=2, planes=2, same=True, shape="free", budget=0.4,
         kernel="_conv2d")
@example(seed=7, n=3, c=2, h=1, w=5, fh=1, fw=2, planes=2, same=False, shape="signal",
         budget=0.4, kernel="_conv2d")
# one plane, whole filter windows under same padding: odd and even filter heights
@example(seed=8, n=3, c=1, h=5, w=5, fh=3, fw=3, planes=2, same=True, shape="free", budget=0.4,
         kernel="_conv2d")
@example(seed=9, n=3, c=1, h=4, w=5, fh=4, fw=2, planes=3, same=True, shape="free", budget=0.4,
         kernel="_conv2d")
def test_conv2d_matches_direct_sum(seed, n, c, h, w, fh, fw, planes, same, shape, budget, kernel):
    """Either kernel, the row-window one or the dense matrix, against the
    tap-by-tap sum and its adjoint at 1e-12, and its gradients against finite
    differences; the row-window kernel under any block budget from 1 byte to
    the whole batch of either pass's row windows."""
    conv = getattr(layers, kernel)
    if shape == "signal":
        h = fh = 1
    elif shape == "spanning":      # one output position per sample
        h, w = (1, 1) if same else (fh, fw)
    padding = "same" if same else "valid"
    if not same:
        fh, fw = min(fh, h), min(fw, w)
    hp, wp = (h + fh - 1, w + fw - 1) if same else (h, w)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c, h, w))
    weights = rng.normal(size=(planes, c, fh, fw))
    bias = rng.normal(size=planes)
    # the forward's windows of x (whole filter windows on one plane) or the
    # backward's of the padded dy
    height = fh if c == 1 else 1
    whole_batch = 8 * n * fw * max((hp - height + 1) * (wp - fw + 1) * height * c,
                                   (hp - fh + 1) * wp * planes)
    expected = _direct_conv2d(x, weights, bias, padding)
    proj = rng.normal(size=expected.shape)
    adjoint = _direct_conv2d_adjoint(x, weights, proj, padding)
    if shape == "signal":
        x, weights, expected, proj = x[:, :, 0], weights[:, :, 0], expected[:, :, 0], proj[:, :, 0]
        adjoint = adjoint[0][:, :, 0], adjoint[1][:, :, 0], adjoint[2]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(layers, "_IM2COL_BLOCK_BYTES", max(1, round(budget * whole_batch)))
        y, bwd = conv(x, weights, bias, padding)
        np.testing.assert_allclose(y, expected, rtol=1e-12, atol=1e-12)
        grads = bwd(proj)
        assert [g.shape for g in grads] == [x.shape, weights.shape, bias.shape]

        def loss(_):
            return float(np.sum(conv(x, weights, bias, padding)[0] * proj))

        for arg, g, exact in zip((x, weights, bias), grads, adjoint):
            np.testing.assert_allclose(g, exact, rtol=1e-12, atol=1e-12)
            assert relative_error(g, numeric_gradient(loss, arg, step=STEP)) < TOL


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), c=st.integers(1, 3),
       h=st.integers(1, 6), w=st.integers(1, 6), fh=st.integers(1, 4),
       fw=st.integers(1, 4), same=st.booleans(), one_row=st.booleans(), whole=st.booleans())
def test_window_view_equals_sliding_window_view(seed, n, c, h, w, fh, fw, same, one_row, whole):
    """Row windows (height 1) and whole filter windows (height fh)."""
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
    height = fh if whole else 1
    expected = sliding_window_view(xp, (height, fw), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)
    view = layers._windows(xp, height, fw)
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


@pytest.mark.parametrize("make, taken", [
    # every iris convolution has a dense matrix of at most 1,600 entries
    (lambda: load_model_spec(SPECS / "iris.spec"), ["_dense_conv"] * 4),
    # only mnist's last convolution, which spans its 8x8 map, is small
    (lambda: load_model_spec(SPECS / "mnist.spec"), ["_conv2d"] * 4 + ["_dense_conv"]),
    # a grown signal model: 245,760 and 3,440,640 entries, then a spanning one
    (lambda: FeatureExtractor([Conv1D(9, 16), ReLU(), Conv1D(9, 16), ReLU(), Conv1D(112, 8),
                               Flatten()], (1, 128), 8), ["_conv2d"] * 2 + ["_dense_conv"]),
], ids=["iris", "mnist", "signal"])
def test_convolutions_take_the_kernel_their_dense_matrix_size_picks(monkeypatch, make, taken):
    model = make().initialize(0)
    calls = []
    for name in ("_conv2d", "_dense_conv"):
        kernel = getattr(layers, name)
        monkeypatch.setattr(layers, name,
                            lambda *args, name=name, kernel=kernel, **kwargs:
                            calls.append(name) or kernel(*args, **kwargs))
    model.forward(np.zeros((2,) + model.input_shape))
    assert calls == taken


# ---------------------------------------------------------------- batchnorm

def test_batchnorm_normalizes_batch_in_training():
    rng = np.random.default_rng(13)
    layer = BatchNorm()
    layer.wire((3, 5))
    layer.init_params(rng)
    x = rng.normal(2.0, 3.0, size=(16, 3, 5))
    y = train_forward(layer, x)
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
    train_forward(layer, x)
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
    with pytest.raises(ContractError, match="batch size >= 2"):
        train_forward(layer, np.zeros((1, 2, 3)))


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
        _check_all_grads(layer, x, rng)


def _plane_max(v):
    """Per-plane max |v| of an (N, C, ...) array, or |v| of a (C,) vector."""
    v = np.abs(v)
    return v if v.ndim == 1 else v.max(axis=(0, *range(2, v.ndim)))


def _batchnorm_oracle_errors(seed, n, c, spatial, ratio, channels_last):
    """Per-plane errors of BatchNorm against the textbook per-axis formulas
    (Ioffe & Szegedy 2015), each relative to the magnitude of the terms the
    textbook formula adds up, so that cancellation in the exact result does
    not count against the layer. Returns {"mode.quantity": worst error}."""
    rng = np.random.default_rng(seed)
    shape = (n, c, *spatial)
    axes = (0, *range(2, len(shape)))
    ps = (1, c) + (1,) * len(spatial)
    m = int(np.prod(shape)) // c
    # per-plane sample mean = offset and sample std = std exactly, so that the
    # offset is up to `ratio` sample standard deviations
    z = rng.normal(size=shape)
    z = (z - z.mean(axis=axes, keepdims=True)) / z.std(axis=axes, keepdims=True)
    std = 10.0 ** rng.uniform(-3, 3, size=c)
    offset = rng.uniform(-ratio, ratio, size=c) * std
    x = offset.reshape(ps) + std.reshape(ps) * z
    dy = rng.normal(size=shape)
    if channels_last:
        to_last = (0, *range(2, len(shape)), 1)
        back = tuple(np.argsort(to_last))
        x = np.ascontiguousarray(x.transpose(to_last)).transpose(back)
        dy = np.ascontiguousarray(dy.transpose(to_last)).transpose(back)
    errors = {}
    for mode in ("train", "infer"):
        layer = BatchNorm()
        layer.wire(shape[1:])
        layer.init_params(rng)
        layer.scale[:] = rng.normal(1.0, 0.5, size=c)
        layer.shift[:] = rng.normal(size=c)
        layer.running_mean[:] = offset + std * rng.normal(size=c)
        layer.running_var[:] = std ** 2 * rng.uniform(0.5, 2.0, size=c)
        scale, shift = layer.scale.copy(), layer.shift.copy()
        rm, rv = layer.running_mean.copy(), layer.running_var.copy()

        # the textbook formulas
        if mode == "train":
            mu = x.mean(axis=axes)
            var = ((x - mu.reshape(ps)) ** 2).mean(axis=axes)
            new_rm = BN_MOMENTUM * rm + (1 - BN_MOMENTUM) * mu
            new_rv = BN_MOMENTUM * rv + (1 - BN_MOMENTUM) * var
            rm_terms = BN_MOMENTUM * np.abs(rm) + (1 - BN_MOMENTUM) * np.abs(mu)
        else:
            mu, var, new_rm, new_rv, rm_terms = rm, rv, rm, rv, np.abs(rm)
        inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
        xhat = (x - mu.reshape(ps)) * inv_std.reshape(ps)
        y_ref = scale.reshape(ps) * xhat + shift.reshape(ps)

        tape = input_tape(x) if mode == "train" else None   # an inference has no backward
        y = layer.forward(x, mode=mode, tape=tape)
        checks = {
            "y": (y, y_ref, np.abs(scale.reshape(ps) * xhat) + np.abs(shift.reshape(ps))),
            "running_mean": (layer.running_mean, new_rm, rm_terms),
            "running_var": (layer.running_var, new_rv, new_rv),
        }
        if mode == "train":
            loss = np.asarray(np.sum(y * dy))
            tape.record(loss, (y,), lambda g: (g * dy,), "proj")
            dx, ((_, dgamma), (_, dbeta)) = backward(tape, loss)
            a = (scale * inv_std).reshape(ps)
            dbeta_ref = dy.sum(axis=axes)
            dgamma_ref = (dy * xhat).sum(axis=axes)
            dx_ref = a / m * (m * dy - dbeta_ref.reshape(ps) - xhat * dgamma_ref.reshape(ps))
            dx_terms = np.abs(a) * (np.abs(dy) + np.abs(dbeta_ref).reshape(ps) / m
                                    + np.abs(xhat * dgamma_ref.reshape(ps)) / m)
            checks["dx"] = (dx, dx_ref, dx_terms)
            checks["dgamma"] = (dgamma, dgamma_ref, np.abs(dy * xhat).sum(axis=axes))
            checks["dbeta"] = (dbeta, dbeta_ref, np.abs(dy).sum(axis=axes))
        for name, (got, ref, terms) in checks.items():
            assert got.shape == ref.shape, name
            errors[f"{mode}.{name}"] = float(np.max(_plane_max(got - ref)
                                                    / _plane_max(terms)))
    return errors


# The worst error measured over 50,000 random draws of the inputs below (mean
# offsets up to 1e3 sample standard deviations) was 3.2e-12, and 5e-16 to
# 5e-15 at unit offset; the error grows in proportion to the offset. Set once
# from that measurement: do not loosen.
BN_ORACLE_TOL = 1e-11


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), c=st.integers(1, 4),
       spatial=st.lists(st.integers(1, 5), max_size=2), ratio=st.floats(0.0, 1e3),
       channels_last=st.booleans())
def test_batchnorm_matches_textbook_formulas(seed, n, c, spatial, ratio, channels_last):
    errors = _batchnorm_oracle_errors(seed, n, c, tuple(spatial), ratio, channels_last)
    assert max(errors.values()) < BN_ORACLE_TOL, errors


@pytest.mark.parametrize("mode", ["train", "infer"])
def test_batchnorm_and_relu_keep_convolution_memory_channels_last(mode):
    # the module docstring's no-copy claim: after a Conv2D, BatchNorm and ReLU
    # outputs, and in training input gradients, are (N, C, H, W) views of
    # channels-last memory, the order the convolutions' own transposes read
    # without a copy; the stack is no FeatureExtractor, so nothing is folded
    rng = np.random.default_rng(21)
    stack = [Conv2D(3, 3, 4), BatchNorm(), ReLU(), Conv2D(3, 3, 2, padding="same")]
    shape = (2, 7, 6)
    for layer in stack:
        shape = layer.wire(shape)
        layer.init_params(rng)
    tape = GradientTape() if mode == "train" else None
    out = rng.normal(size=(3, 2, 7, 6))
    for layer in stack:
        out = layer.forward(out, mode=mode, tape=tape)
        if layer.kind in ("batchnorm", "relu"):
            assert out.transpose(0, 2, 3, 1).flags.c_contiguous, layer.kind
    if tape is None:
        return
    grad = rng.normal(size=out.shape)
    for _, _, bwd, kind in reversed(tape.entries):
        grad = bwd(grad)[0]
        if kind in ("batchnorm", "relu"):
            assert grad.transpose(0, 2, 3, 1).flags.c_contiguous, kind


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


def test_mse_loss_returns_the_gradient_in_the_output_dtype():
    # a float32 model output: the loss is float64, its gradient float32
    out = np.array([[1.0, 2.0]], dtype=np.float32)
    tape = GradientTape()
    loss = mse_loss(out, np.zeros((1, 2)), tape=tape)
    dout, _ = backward(tape, loss)
    assert loss.dtype == np.float64 and dout.dtype == np.float32
    np.testing.assert_array_equal(dout, [[2.0, 4.0]])


def test_mse_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        mse_loss(np.zeros((2, 3)), np.zeros((2, 4)))


# ---------------------------------------------------------------- model stack

def _small_model():
    layers = [Conv1D(3, 4), BatchNorm(), ReLU(), Flatten(), Dense(8)]
    return FeatureExtractor(layers, (1, 10), 8)


def test_layer_forward_is_the_only_record_site():
    # each layer computes (y, bwd) in _apply; Layer.forward records its entry
    kinds = [obj for obj in vars(layers).values()
             if isinstance(obj, type) and issubclass(obj, layers.Layer) and obj is not layers.Layer]
    assert len(kinds) == 6
    for cls in kinds:
        assert cls.forward is layers.Layer.forward, cls
        assert "_apply" in vars(cls) and ".record(" not in inspect.getsource(cls), cls
        assert cls.kind == cls.__name__.lower()


@pytest.mark.parametrize("mode, taped", [("eval", False), ("infer", True), ("train", False)])
def test_a_pass_trains_exactly_when_it_is_taped(mode, taped):
    # an unknown mode once ran an unfolded inference, and a taped inference or
    # an untaped training pass ran too
    model = load_model_spec(SPECS / "mnist.spec").initialize(0)
    with pytest.raises(ContractError, match=f"mode '{mode}'"):
        model.forward(np.zeros((2,) + model.input_shape), mode=mode,
                      tape=GradientTape() if taped else None)


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
            return float(mse_loss(train_forward(model, x), target))
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
    # conv: 4*1*3 = 12; dense: 8 * (4 planes * 8 positions) = 256; bn and biases excluded
    assert model.weight_count() == 12 + 256


@pytest.mark.parametrize("make, sample_shape", [
    (_small_model, (10,)),
    (lambda: FeatureExtractor([Conv2D(3, 3, 2), Flatten(), Dense(8)], (1, 5, 6), 8), (5, 6)),
    (lambda: FeatureExtractor([Conv2D(3, 3, 2), Flatten(), Dense(8)], (3, 5, 6), 8), (3, 5, 6)),
], ids=["1xL", "1xHxW", "CxHxW"])
def test_model_accepts_channelless_input(make, sample_shape):
    # a batch of samples shaped as the data holds them: no plane axis on one plane
    rng = np.random.default_rng(23)
    model = make().initialize(rng)
    assert model.sample_shape == sample_shape
    x = rng.normal(size=(2,) + model.input_shape)
    with_channel = model.forward(x)
    assert with_channel.shape == (2, 8)
    np.testing.assert_array_equal(model.forward(x.reshape((2,) + sample_shape)), with_channel)
    with pytest.raises(ShapeError):
        model.forward(np.zeros((2, 2) + model.input_shape[1:]))


@pytest.mark.parametrize("spec, sample_shape", [("mnist.spec", (28, 28)), ("iris.spec", (4,))])
@pytest.mark.parametrize("mode", ["infer", "train"])
def test_model_refuses_an_empty_batch(spec, sample_shape, mode):
    # as evaluate and fit refuse an empty dataset
    model = load_model_spec(SPECS / spec).initialize(0)
    tape = GradientTape() if mode == "train" else None
    with pytest.raises(ContractError, match="empty batch"):
        model.forward(np.zeros((0, *sample_shape)), mode=mode, tape=tape)


def test_he_initialization_statistics():
    rng = np.random.default_rng(24)
    layer = Dense(400)
    layer.wire((200,))
    layer.init_params(rng)
    assert abs(layer.weights.std() - np.sqrt(2.0 / 200)) < 0.005
    np.testing.assert_array_equal(layer.bias, 0.0)


# ---------------------------------------------------------------- flat parameter vector

SPECS = Path(__file__).resolve().parent.parent / "specs"
# mnist.spec computes in float32; its text without that line is the float64 model
MNIST_FLOAT64 = (SPECS / "mnist.spec").read_text().replace("compute float32\n", "")


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


def _randomize_batchnorms(model, rng):
    for layer in model.layers:
        if isinstance(layer, BatchNorm):
            layer.scale[:] = rng.normal(1.0, 0.5, size=layer.planes)
            layer.shift[:] = rng.normal(size=layer.planes)
            layer.running_mean[:] = rng.normal(size=layer.planes)
            layer.running_var[:] = rng.uniform(0.5, 2.0, size=layer.planes)


@pytest.mark.parametrize("name", ["iris", "mnist"])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
def test_model_batched_inference_matches_per_sample(name, seed, n):
    rng = np.random.default_rng(seed)
    model = load_model_spec(SPECS / f"{name}.spec").initialize(rng)
    _randomize_batchnorms(model, rng)
    x = rng.normal(size=(n,) + model.input_shape)
    batched = model.forward(x, mode="infer")
    per_sample = np.concatenate([model.forward(x[i:i + 1], mode="infer") for i in range(n)])
    np.testing.assert_allclose(batched, per_sample, rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------- folded BatchNorm

def test_folded_inference_equals_the_unfolded_chain():
    # an inference runs each BatchNorm after a convolution in its kernel; the
    # reference runs every layer as it is
    rng = np.random.default_rng(40)
    model = parse_model_spec(MNIST_FLOAT64).initialize(rng)
    _randomize_batchnorms(model, rng)
    x = rng.normal(size=(8,) + model.input_shape)
    folded = model.forward(x)
    unfolded = unfolded_inference(model, x)
    assert np.max(np.abs(folded - unfolded)) <= 1e-12 * np.max(np.abs(unfolded))
    assert model.layers[0].norm is model.layers[1] and model.layers[1].folded   # restored


def test_folded_float32_inference_equals_the_unfolded_chain():
    # in float32 the folded weights W*a are rounded once where the unfolded
    # chain rounds the convolution's output and BatchNorm's map; over seeds
    # 40-49 the largest difference read 2.9e-7 to 5.6e-7 of the largest output
    rng = np.random.default_rng(40)
    model = load_model_spec(SPECS / "mnist.spec").initialize(rng)
    assert model.compute == np.float32
    _randomize_batchnorms(model, rng)
    x = rng.normal(size=(8,) + model.input_shape)
    folded = model.forward(x)
    unfolded = unfolded_inference(model, x)
    assert np.max(np.abs(folded - unfolded)) <= 2e-6 * np.max(np.abs(unfolded))


def test_rewiring_clears_the_fold_links():
    rng = np.random.default_rng(42)
    conv, norm = Conv2D(3, 3, 2), BatchNorm()
    first = FeatureExtractor([conv, norm, ReLU(), Flatten()], (1, 4, 4), 8).initialize(rng)
    _randomize_batchnorms(first, rng)
    assert conv.norm is norm and norm.folded and norm.relu
    # no BatchNorm after the convolution, and the BatchNorm after a ReLU
    second = FeatureExtractor([conv, ReLU(), norm, Flatten()], (1, 4, 4), 8)
    assert conv.norm is None and not norm.folded and not norm.relu
    x = rng.normal(size=(3, 1, 4, 4))
    np.testing.assert_array_equal(second.forward(x), unfolded_inference(second, x))


def _links(model):
    return [(layer.kind, layer.norm is not None, layer.folded, layer.relu, layer.linked)
            for layer in model.layers]


@pytest.mark.parametrize("stack, links", [
    # a ReLU after a bare convolution stays its own layer
    ([Conv2D(3, 3, 2), ReLU(), Flatten()],
     [("conv2d", False, False, False, False), ("relu", False, False, False, False),
      ("flatten", False, False, False, False)]),
    ([Conv2D(3, 3, 2), BatchNorm(), ReLU(), Flatten()],
     [("conv2d", True, False, False, False), ("batchnorm", False, True, True, False),
      ("relu", False, False, False, True), ("flatten", False, False, False, False)]),
    # a BatchNorm after a ReLU is not folded, but it applies the ReLU after it
    ([Conv2D(3, 3, 2), ReLU(), BatchNorm(), ReLU(), Flatten()],
     [("conv2d", False, False, False, False), ("relu", False, False, False, False),
      ("batchnorm", False, False, True, False), ("relu", False, False, False, True),
      ("flatten", False, False, False, False)]),
], ids=["conv-relu", "conv-batchnorm-relu", "relu-batchnorm-relu"])
def test_only_a_relu_right_after_a_batchnorm_is_linked(stack, links):
    model = FeatureExtractor(stack, (1, 4, 4), 8).initialize(np.random.default_rng(43))
    assert _links(model) == links
    conv = model.layers[0]
    assert conv.param_names == (("weights",) if links[0][1] else ("weights", "bias"))
    assert (conv.bias is None) == links[0][1]


def test_mnist_spec_trains_no_bias_ahead_of_its_batchnorms():
    # 82,916 values less the 80 biases of its four 20-plane convolutions; the
    # spanning head, which no BatchNorm follows, keeps its 16
    model = load_model_spec(SPECS / "mnist.spec").initialize(0)
    assert model.params.size == 82_836 and model.weight_count() == 82_660
    assert [len(layer.param_names) for layer in model.layers if layer.kind == "conv2d"] \
        == [1, 1, 1, 1, 2]


@pytest.mark.parametrize("blocks", [1, 3])
def test_a_batchnorm_that_no_convolution_folds_rectifies_its_inference(monkeypatch, blocks):
    # its map walks the blocks of training's forward: 3 of 2, 2 and 1 samples
    # when a block holds 2 of the batch of 5
    if blocks > 1:
        monkeypatch.setattr(layers, "_NORM_BLOCK_BYTES", 2 * 2 * 2 * 2 * 8)   # 2 samples
    rng = np.random.default_rng(44)
    model = FeatureExtractor([Conv2D(3, 3, 2), ReLU(), BatchNorm(), ReLU(), Flatten()],
                             (1, 4, 4), 8).initialize(rng)
    _randomize_batchnorms(model, rng)
    x = rng.normal(size=(5, 1, 4, 4))
    assert len(layers._norm_blocks(np.empty((5, 2 * 2 * 2)))) == blocks
    out = model.forward(x)
    assert out.min() == 0.0
    np.testing.assert_array_equal(out, unfolded_inference(model, x))
    conv, relu, norm = model.layers[:3]
    before = relu.forward(conv.forward(x))
    a = norm.scale * (1.0 / np.sqrt(norm.running_var + BN_EPSILON))
    b = norm.shift - norm.running_mean * a
    expected = np.maximum(before * a.reshape(-1, 1, 1) + b.reshape(-1, 1, 1), 0)
    np.testing.assert_array_equal(norm.forward(before), expected)


@pytest.mark.parametrize("make, fused", [
    (lambda: load_model_spec(SPECS / "iris.spec"), [False] * 4),
    (lambda: load_model_spec(SPECS / "mnist.spec"), [True] * 4 + [False]),
    (lambda: FeatureExtractor([Conv1D(9, 16), ReLU(), Conv1D(9, 16), ReLU(), Conv1D(112, 8),
                               Flatten()], (1, 128), 8), [False] * 3),
], ids=["iris", "mnist", "signal"])
def test_an_inference_rectifies_in_the_kernel_only_after_a_folded_batchnorm(monkeypatch, make,
                                                                             fused):
    # a ReLU after a bare convolution runs as its own layer: fusing it there
    # moved glibc's heap thresholds under the benchmark's calibration kernel
    model = make().initialize(0)
    calls = []
    for name in ("_conv2d", "_dense_conv"):
        kernel = getattr(layers, name)
        monkeypatch.setattr(layers, name, lambda *args, kernel=kernel, relu=False, **kwargs:
                            calls.append(relu) or kernel(*args, relu=relu, **kwargs))
    model.forward(np.random.default_rng(45).normal(size=(3,) + model.input_shape))
    assert calls == fused


def test_a_linked_batchnorm_relu_trains_as_the_two_layers_run_unlinked():
    """The BatchNorm's passes rectify ``y`` and gate ``dy`` by ``y > 0`` in
    place of the ReLU's own maximum and gate. In float64, with the first
    BatchNorm's passes over 4 blocks, the loss and every gradient read the same
    bits linked as unlinked (measured: no difference at all), so the bound is
    equality."""
    rng = np.random.default_rng(46)
    model = parse_model_spec(MNIST_FLOAT64).initialize(rng)
    assert [layer.linked for layer in model.layers if isinstance(layer, ReLU)] == [True] * 4
    x, target = rng.random((8,) + model.input_shape), rng.normal(size=(8, 16))
    start = model.snapshot()

    def step():
        model.restore(start)
        tape = GradientTape()
        loss = mse_loss(model.forward(x, mode="train", tape=tape), target, tape=tape)
        return [loss] + [g for _, g in backward(tape, loss)[1]]

    linked = step()
    with unlinked(model.layers, "relu", "linked"):
        separate = step()
    assert len(linked) == len(separate) == 1 + len(model.trainable_params)
    for i, (a, b) in enumerate(zip(linked, separate)):
        np.testing.assert_array_equal(a, b, err_msg=str(i))


# ---------------------------------------------------------------- float32 compute

@pytest.mark.parametrize("c, f, size", [(1, 3, 28), (20, 5, 26), (20, 7, 22), (20, 9, 16)],
                         ids=["3x3-one-plane", "5x5", "7x7", "9x9"])
def test_conv2d_float32_rows_do_not_depend_on_the_batch(c, f, size):
    # mnist-infer checks batched against per-sample inference at 1e-9, below
    # float32's rounding; it holds because the row-window kernel's stacked
    # GEMMs give each sample the same bits at batch 256 as at batch 1 (the
    # four row-window geometries of mnist.spec)
    rng = np.random.default_rng(c + f)
    x = rng.normal(size=(256, c, size, size)).astype(np.float32)
    weights, bias = rng.normal(size=(20, c, f, f)), rng.normal(size=20)
    y, _ = layers._conv2d(x, weights, bias, "valid")
    assert y.dtype == np.float32
    for i in range(len(x)):
        single, _ = layers._conv2d(x[i:i + 1], weights, bias, "valid")
        assert single.tobytes() == y[i:i + 1].tobytes(), i


def test_float32_windows_count_their_itemsize_against_the_block_budget():
    # mnist.spec's 3x3 one-plane layer at training's batch of 32: its whole
    # filter windows take 1.56 MB in float64, two blocks that the weight
    # gradient copies again, and 779 KB in float32, one block that it reuses
    rng = np.random.default_rng(54)
    weights, bias = rng.normal(size=(20, 1, 3, 3)), rng.normal(size=20)
    for dtype, copies in ((np.float64, 4), (np.float32, 1)):
        x = rng.random((32, 1, 28, 28)).astype(dtype)

        def step():
            y, bwd = layers._conv2d(x, weights, bias, "valid", input_grad=False)
            bwd(np.ones_like(y))

        blocks = _copied_blocks(step)
        assert len(blocks) == copies and {b.dtype for b in blocks} == {np.dtype(dtype)}
        assert all(b.nbytes <= layers._IM2COL_BLOCK_BYTES for b in blocks)


def _mnist_gradients(text, x, target):
    model = parse_model_spec(text).initialize(np.random.default_rng(0))
    tape = GradientTape()
    loss = mse_loss(model.forward(x, mode="train", tape=tape), target, tape=tape)
    return [g for _, g in backward(tape, loss)[1]]


def test_float32_gradients_match_float64():
    # mnist.spec's step in float32 against its float64 copy, on the same
    # weights and batch. Each array's largest error relative to the model's
    # largest gradient read 0.9e-6 to 1.7e-6 over seeds 0-4 (1.7e-6 here)
    rng = np.random.default_rng(0)
    x, target = rng.random((8, 1, 28, 28)), rng.normal(size=(8, 16))
    low = _mnist_gradients((SPECS / "mnist.spec").read_text(), x, target)
    high = _mnist_gradients(MNIST_FLOAT64, x, target)
    top = max(np.max(np.abs(g)) for g in high)
    assert {g.dtype for g in low} == {np.dtype(np.float32), np.dtype(np.float64)}
    for i, (g32, g64) in enumerate(zip(low, high, strict=True)):
        assert np.max(np.abs(g32 - g64)) <= 1e-5 * top, i


def test_float32_step_returns_each_dx_in_its_input_dtype():
    # every layer ahead of mnist.spec's float64 head takes float32 input; each
    # backward, the head's included, returns dx in its input's dtype
    rng = np.random.default_rng(53)
    model = load_model_spec(SPECS / "mnist.spec").initialize(rng)
    x = rng.random((4,) + model.input_shape).astype(np.float32)
    tape = input_tape(x)
    mse_loss(model.forward(x, mode="train", tape=tape), rng.normal(size=(4, 16)), tape=tape)
    pairs = input_gradients(tape)
    assert [inp.dtype for inp, _ in pairs] == [np.float64] * 2 + [np.float32] * 14
    for inp, dx in pairs:
        assert dx.dtype == inp.dtype and dx.shape == inp.shape
