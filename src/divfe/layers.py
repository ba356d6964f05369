"""Feature-extractor building blocks with forward passes and gradients.

All layers operate on batched channels-first arrays: ``(N, C, L)`` for 1D
signals, ``(N, C, H, W)`` for images, ``(N, D)`` after flattening. Each
layer computes ``(y, bwd)`` in :meth:`Layer._apply`, where ``bwd(dy)``
returns ``(dx, *parameter gradients)``.
:meth:`Layer.forward` is the one place that records on a
:class:`~divfe.numerics.GradientTape`: one entry per layer, named by its spec
keyword (the lowercased class name), whose inputs are the layer's input
followed by its trainable arrays in ``param_names`` order;
:func:`divfe.numerics.backward` walks these entries as one chain. A tape's
first layer is not asked for ``dx``, which both convolution kernels skip.

Convolution is implemented as cross-correlation (the usual CNN convention),
stride 1. Padding is ``valid`` by default; ``same`` zero-padding is available
for architectures whose filters would otherwise outgrow the map.

Conv1D is Conv2D's code on one filter extent. Both run one of two
channels-last kernels, each taking a length-L signal as a 1×L image. A layer
whose dense (doubly Toeplitz) matrix ``T``, ``Ho·Wo·P`` by ``H·W·C``, has at
most ``_DENSE_MAX`` entries, or that has one output position per sample,
runs :func:`_dense_conv`: each pass is one GEMM against ``T``, gathered from
the weights through an index built once per geometry. On a spanning
convolution, ``valid`` with a filter as large as its input, ``T`` is the
weights in channels-last order: no index is built, and the weight gradient
is one GEMM in that order, not binned. Every other layer runs
:func:`_conv2d`, so no spanning filter reaches it. It copies only the
fw-wide windows of each padded row (MEC, Cho & Brand 2017): a ``(Hp·Wo,
fw·C)`` matrix per sample, so each input element is copied fw times, not
fh·fw. One walk, :func:`_window_blocks`, copies them in blocks
of whole samples of at most about 1 MiB, each a stack of these per-sample
matrices. Filter row u meets the window rows from ``u·Wo`` on (with one
filter row, every Conv1D, all of them), and the output is the sum over u of
their stacked GEMMs with its ``(fw·C, P)`` weight slab. On one input plane,
where those GEMMs would have K = fw, it copies whole fh×fw windows, a
``(Ho·Wo, fh·fw)`` matrix per sample, for one GEMM per block; it copies them
plane-major, ``(fh, fw, 1, Ho, Wo)``, so that the copy runs along output rows
rather than in runs of fw values, and the GEMMs read the transpose. The backward
walks the same windows again for the weight gradient, or reuses the
forward's when one block held the batch. Its input gradient, a full
correlation of ``dy`` with the flipped filter, walks row windows too, on any
number of input planes: ``dy`` padded by fw-1 columns each side has Wp
windows per row, a ``(Ho·Wp, fw·P)`` matrix per sample, and filter row u,
reversed, adds one GEMM into padded input rows u..u+Ho, which are
contiguous. Each block pads only its own samples of ``dy``, so no padded
copy of the whole batch is made. The walk shares a pass's blocks over the
cores the process may run on, as Cho & Brand partition the lowered matrix:
its workers claim blocks as they free up (self-scheduling, Polychronopoulos
& Kuck 1987), and it hands back each block's result in block order. A block
writes only its own samples of the output and of ``dx`` and returns its own
partial ``dW``, and the partials are summed first block first, so every
result is the same, bit for bit, on any number of cores, whichever worker
ran which block. The window blocks of a walk of several blocks and the
padded ``dy`` are kept between calls in the calling thread's workspace
(buffers whose lifetimes do not overlap share memory, as in Chen et al.
2016, §3), so a training step does not fault the same pages in again. A
one-block forward allocates its windows, which the backward reuses. Either
kernel's result is a ``(N, P, H, W)`` view of a channels-last array.
BatchNorm, which works on that memory as one row per sample, in blocks on
the calling thread, and ReLU keep its order both ways, so a following
convolution reads its input without a copy.

:class:`FeatureExtractor` links a BatchNorm right after a convolution, which
then has no bias (the mean subtraction cancels it; Ioffe & Szegedy 2015,
§3.2), and a ReLU right after a BatchNorm, which the BatchNorm applies. A
ReLU after a bare convolution stays a layer of its own: fused there, it ran
faster, but it moved the allocator's thresholds under the benchmark's
calibration kernel, whose scaling then read it 22% slower.

A pass trains exactly when it is taped: :meth:`Layer.forward` takes mode
"train" with a tape and "infer" without one, and refuses any other pairing.
An inference folds a BatchNorm linked to the convolution before it into
that convolution (Jacob et al. 2018): the kernel runs with weights ``W·a``
and bias ``b``, where ``x·a + b`` is the BatchNorm's map on its running
statistics, from the current arrays on every call, then the linked ReLU in
place on each block's rows of ``y`` while they are in cache; the BatchNorm
and the ReLU return their input. No backward runs in inference.

A model computes in the dtype its spec's ``compute`` line names, float64 by
default or float32, to which :class:`FeatureExtractor` casts each batch once;
the parameters stay float64. ``_conv2d``, BatchNorm and ReLU compute in their
input's dtype, casting the float64 weights, bias and affine coefficients to
it (in float32 the row-window kernel reads half the bytes, and its stacked
per-sample GEMMs keep each sample's rows independent of the batch).
``_dense_conv`` and Dense compute in float64: a plain GEMM's float32 rows
depend on the batch. Every backward returns ``dx`` in its input's dtype; a
parameter gradient may be float32, and ``fit`` casts it to float64 for the
update (mixed precision, Micikevicius et al. 2018).

Each layer names its trainable arrays in ``param_names``. After
initialisation :class:`FeatureExtractor` holds them all in one flat vector,
``params``, and every layer attribute is a reshaped view of its slice, so an
SGD step is three whole-vector operations.
"""

import functools
import itertools
import math
import os
import threading

import numpy as np

from .numerics import ContractError, GradientTape, ShapeError, allocate

BN_EPSILON = 1e-5
BN_MOMENTUM = 0.9
# the dtypes a model may compute in (its spec's `compute` line)
COMPUTE_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))
# The row-window kernel copies its row windows in blocks of whole samples of
# at most this many bytes, so a block's windows and its output stay in a 2 MiB
# per-core L2 cache (4 MiB blocks ran the mnist.spec convolutions about 1.4x
# slower at batch 256).
_IM2COL_BLOCK_BYTES = 1 << 20
# BatchNorm's passes walk blocks of whole samples of at most this many bytes,
# so that each block and its scratch stay in cache across a pass's few
# operations (whole-batch passes read mnist-train about 6% slower).
_NORM_BLOCK_BYTES = 1 << 18
# The cores this process may run on, over which the row-window kernel shares
# its blocks (``taskset`` restricts them).
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_POOL = None   # the worker threads, built by the first shared walk
_WORKSPACE = threading.local()   # each calling thread's walk scratch (see _scratch)
# The largest dense matrix a non-spanning convolution runs on. On 1D and 2D
# convolutions of 2-8 planes (forward and backward, batch 8 and 32, one BLAS
# thread, 2-core Xeon) the dense kernel took 0.5-0.8 of the row-window one's
# time below 6,400 entries, 1.01-1.08 at 6,400-12,800 (geometric means) and
# 1.5-3.4x at 12,800-51,200, where its GEMMs do many times the arithmetic.
_DENSE_MAX = 1 << 13
_ZERO = np.zeros(1)   # appended to the weights: the dense matrix's structural zero


class Layer:
    """Base layer: configuration at construction, parameters at wiring."""

    param_names = ()   # attributes holding the trainable arrays, in order
    norm = None        # a convolution's BatchNorm, applied by its kernel in inference
    folded = False     # a BatchNorm that its convolution applies there
    relu = False       # a BatchNorm that applies the ReLU after it, in either mode
    linked = False     # a ReLU that the layer before it applies

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.kind = cls.__name__.lower()   # the spec keyword that names its tape entry

    def wire(self, in_shape: tuple) -> tuple:
        """Validate and return the per-sample output shape."""
        raise NotImplementedError

    def init_params(self, rng: np.random.Generator) -> None:
        pass

    def forward(self, x: np.ndarray, mode: str = "infer",
                tape: GradientTape | None = None) -> np.ndarray:
        """The output of a training pass, recorded on ``tape``, with ``mode``
        "train" and a tape, or of an inference with "infer" and no tape. Any
        other mode or pairing raises :class:`ContractError`."""
        if tape is None:
            if mode != "infer":
                raise ContractError(f"mode {mode!r} without a tape: an untaped pass is 'infer'")
            return self._apply(x, False)[0]
        if mode != "train":
            raise ContractError(f"mode {mode!r} with a tape: a taped pass is 'train'")
        y, bwd = self._apply(x, True, bool(tape.entries))
        tape.record(y, (x, *[getattr(self, name) for name in self.param_names]), bwd, self.kind)
        return y

    def _apply(self, x, train, input_grad=True):
        """``(y, bwd)``: the output and, in training, ``bwd(dy) -> (dx, *parameter
        grads)``, ``dx`` ``None`` if not ``input_grad``. In inference ``bwd`` may
        be ``None``, and a convolution runs its ``norm`` in its kernel."""
        raise NotImplementedError

    @property
    def trainable_params(self) -> list:
        return [getattr(self, name) for name in self.param_names]

    @property
    def state_arrays(self) -> list:
        """Trainable parameters plus persistent buffers (running stats)."""
        return list(self.trainable_params)

    def weight_count(self) -> int:
        """Multiplicative connection weights (biases and norm params excluded)."""
        return 0

    def spec_line(self) -> str:
        return self.kind


def _he_init(rng, shape, fan_in):
    return allocate(rng.normal, 0.0, np.sqrt(2.0 / fan_in), size=shape)


def _windows(xp, fh, fw):
    """The ``(N, H - fh + 1, Wo, fh, fw, C)`` view of every fh×fw window of a
    C-contiguous ``xp (N, H, W, C)``, built on its buffer.

    Window (i, j) is xp[:, i:i+fh, j:j+fw, :]: fh runs of fw*C contiguous
    doubles, or one with fh = 1, a row window.
    """
    n, h, w, c = xp.shape
    s0, s1, s2, s3 = xp.strides
    return np.ndarray((n, h - fh + 1, w - fw + 1, fh, fw, c), xp.dtype, buffer=xp,
                      strides=(s0, s1, s2, s1, s2, s3))


def _block_starts(n, sample_bytes, budget):
    """The first sample of each block of n samples of ``sample_bytes`` each: as
    many whole samples as fit ``budget`` bytes, one if a sample is larger."""
    return range(0, n, max(1, min(n, budget // sample_bytes)))


def _share(blocks, k, work):
    """``[work(i, j) for j < blocks]`` in block order, each called on the
    worker i < k that claims block j: the one place where work is shared over
    the cores, for :func:`_window_blocks` alone.

    Each worker claims the next unclaimed block from a counter the walk
    shares until none is left, so a worker that runs faster or wakes earlier
    runs more blocks; which worker runs which block varies from run to run,
    so ``work`` may use i only to pick its part of a scratch buffer.
    The calling thread runs worker 0 and the pool the others; with k = 1 it
    runs every block, and no pool is built. ``work`` writes only into arrays
    its caller holds, with k parts for any scratch (buffers the workers
    allocated themselves were trimmed and re-faulted by glibc on every walk).
    """
    results, claim = [None] * blocks, itertools.count().__next__   # atomic under the GIL

    def run(i):
        for j in iter(claim, None):
            if j >= blocks:
                return
            results[j] = work(i, j)

    futures = [_pool().submit(run, i) for i in range(1, k)]
    try:
        run(0)
    finally:
        for future in futures:
            future.result()
    return results


def _sum_in_order(parts):
    """The sum of ``parts``, a sequence of per-block partials, accumulated into
    ``parts[0]`` first block first, so that it is the same bits on any number
    of cores."""
    total = parts[0]
    for part in parts[1:]:
        total += part
    return total


def _scratch(slot, shape, dtype):
    """An uninitialized ``shape`` array of ``dtype`` in ``slot`` of the calling
    thread's workspace, which keeps it between calls: a slot grows to its
    largest request and never shrinks, so a training step does not fault the
    same pages in again. The thread's next walk overwrites it, so nothing
    returned or kept past a call may come from there."""
    size = math.prod(shape) * dtype.itemsize
    held = getattr(_WORKSPACE, slot, None)
    if held is None or held.nbytes < size:
        held = np.empty(size, np.uint8)
        setattr(_WORKSPACE, slot, held)
    return held[:size].view(dtype).reshape(shape)


def _window_blocks(source, work, scratch=None, fw=None):
    """``work(s, rows, product)`` on each block of :func:`_block_starts`
    (``_IM2COL_BLOCK_BYTES`` each) of the windows of ``source``, shared over
    the cores by :func:`_share`, and its results in block order: s is the
    block's first sample, ``rows`` its m samples' windows as a C-contiguous
    ``(m, *sample)`` array and ``product``, given a ``scratch`` shape, an
    ``(m, *scratch)`` buffer (else ``None``), both parts of arrays of k parts
    that the calling thread holds, reused by the worker's next block.

    The windows are ``source (N, *sample)`` itself, any view of them (the
    forward's on one input plane are plane-major, ``(N, fh, fw, 1, Ho, Wo)``,
    so that the copy runs along each output row), or, given ``fw``, the fw-wide
    row windows of ``source (N, H, W, C)`` padded by fw-1 zero columns each
    side: each block's worker pads only its own samples, into its part of the
    workspace's ``padded`` slot, then copies their windows. A walk of several
    blocks takes its window buffer from the workspace's ``blocks`` slot
    (:func:`_scratch`), so ``rows`` must not outlive it; a walk of one block
    allocates its own, which its caller may keep.
    """
    n, dtype = len(source), source.dtype
    if fw is None:
        sample = source.shape[1:]
    else:
        _, h, w, c = source.shape
        pad, sample = fw - 1, (h, w + fw - 1, 1, fw, c)
    starts = _block_starts(n, math.prod(sample) * dtype.itemsize, _IM2COL_BLOCK_BYTES)
    # two blocks a worker on average repay its hand-off (a walk of two blocks
    # split over two cores ran slower than inline)
    step, k = starts.step, min(_CORES, -(-len(starts) // 2))
    shape = (k * step, *sample)
    buf = np.empty(shape, dtype) if len(starts) == 1 else _scratch("blocks", shape, dtype)
    product = None if scratch is None else np.empty((k * step, *scratch), dtype)
    padded = None if fw is None else _scratch("padded", (k * step, h, w + 2 * pad, c), dtype)

    def copy(i, j):
        s, lo = starts[j], i * step
        m = min(step, n - s)
        rows = buf[lo:lo + m]
        if padded is None:
            np.copyto(rows, source[s:s + m])
        else:   # the slot may hold another walk's data: zero the pad columns every time
            part = padded[lo:lo + m]
            part[:, :, :pad] = 0
            part[:, :, pad + w:] = 0
            part[:, :, pad:pad + w] = source[s:s + m]
            np.copyto(rows, _windows(part, 1, fw))
        return work(s, rows, None if product is None else product[lo:lo + m])

    return _share(len(starts), k, copy)


def _pool():
    """The threads that run a walk's workers 1..k-1, built by the first
    shared walk: ``concurrent.futures`` imports ``logging``, which
    ``import divfe`` would otherwise pay for."""
    global _POOL
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor
        _POOL = ThreadPoolExecutor(max(1, _CORES - 1), thread_name_prefix="divfe-conv")
    return _POOL


def _forget_pool():
    global _POOL
    _POOL = None   # a forked child has none of its parent's threads


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _conv2d(x, weights, bias, padding, input_grad=True, relu=False):
    """Stride-1 cross-correlation of ``x (N, C, H, W)`` with ``weights
    (P, C, fh, fw)``, or of a signal ``x (N, C, L)`` with ``weights (P, C, f)``
    as a 1×L image, plus ``bias (P,)`` (none if ``None``) under ``valid`` or
    ``same`` padding, then, given ``relu``, max(0, ·) in place on each block's
    rows while they are in cache (an inference's).

    Returns ``(y, bwd)``: ``y (N, P, Ho, Wo)`` and ``bwd(dy) -> (dx, dW, db)``,
    without ``db`` if there is no bias, each in its argument's rank. ``y`` and
    ``dW`` come from one :func:`_window_blocks` walk each over the padded
    input's windows: row windows on several input planes, whole filter windows
    on one, copied plane-major. ``dx`` (``None`` without ``input_grad``)
    walks the row windows of ``dy`` padded by fw-1 columns each side, on any
    number of input planes, each block padding its own samples. Each block
    writes its own samples of ``y`` and ``dx`` and returns its own partial
    ``dW``, summed in block order. It computes in ``x``'s dtype: the weights
    and bias are cast to it, and every buffer, the gradients included, is
    allocated in it.
    """
    signal, shapes = x.ndim == 3, (x.shape, weights.shape)
    if signal:
        x, weights = x[:, :, None], weights[:, :, None]
    n, c, h, w = x.shape
    planes, _, fh, fw = weights.shape
    dtype = x.dtype
    xt = x.transpose(0, 2, 3, 1)                                   # (N, H, W, C)
    if padding == "same":
        top, left = (fh - 1) // 2, (fw - 1) // 2
        xp = np.zeros((n, h + fh - 1, w + fw - 1, c), dtype)
        xp[:, top:top + h, left:left + w] = xt
    else:
        top = left = 0
        xp = np.ascontiguousarray(xt)
    _, hp, wp, _ = xp.shape
    ho, wo = hp - fh + 1, wp - fw + 1
    # one plane: whole filter windows and one weight slab (a GEMM of K = fh*fw);
    # several: row windows and one slab per filter row u, which meets the
    # windows from row u*Wo on, Ho*Wo of them per sample
    height = fh if c == 1 else 1
    width = height * fw * c
    windows = _windows(xp, height, fw)          # (N, Hp - height + 1, Wo, height, fw, C)
    if c == 1:   # plane-major (N, fh, fw, 1, Ho, Wo): the copy runs along Wo, not in runs of fw
        windows = windows.transpose(0, 3, 4, 5, 1, 2)

    def lowered(block):
        """A block's windows as ``(m, -1, width)`` matrices, one per sample: on
        one plane the transpose of its plane-major copy, which BLAS reads as
        transA (or transB)."""
        if c == 1:
            return block.reshape(len(block), width, -1).swapaxes(1, 2)
        return block.reshape(len(block), -1, width)

    slabs = np.ascontiguousarray(weights.transpose(2, 3, 1, 0), dtype).reshape(-1, width, planes)
    bias = None if bias is None else bias.astype(dtype, copy=False)
    y_nhwc = np.empty((n, ho, wo, planes), dtype)

    def forward(s, block, product):
        rows = lowered(block)
        yb = y_nhwc[s:s + len(rows)].reshape(-1, ho * wo, planes)
        np.matmul(rows[:, :ho * wo], slabs[0], out=yb)
        for u in range(1, len(slabs)):
            yb += np.matmul(rows[:, u * wo:(u + ho) * wo], slabs[u], out=product)
        if bias is not None:
            yb += bias
        if relu:
            np.maximum(yb, 0, out=yb)
        return block

    # several filter rows add their GEMMs through one product buffer
    blocks = _window_blocks(windows, forward, (ho * wo, planes) if len(slabs) > 1 else None)
    whole = blocks[0] if len(blocks) == 1 else None    # one block held the batch: kept for dW

    def bwd(dy):
        dy_n = np.ascontiguousarray(dy.reshape(n, planes, ho, wo).transpose(0, 2, 3, 1), dtype)
        dy_m = dy_n.reshape(-1, planes)
        db = () if bias is None else (np.ones(len(dy_m), dtype) @ dy_m,)
        taps = len(slabs) * width                                    # fh*fw*C

        def weight_grad(s, block, g):
            rows = lowered(block)
            dyb = dy_n[s:s + len(rows)].reshape(-1, ho * wo, planes).swapaxes(-1, -2)
            for u in range(len(slabs)):
                np.matmul(dyb, rows[:, u * wo:(u + ho) * wo], out=g[..., u * width:(u + 1) * width])
            return g.sum(axis=0)                     # stacked per sample: summed over the block

        if whole is None:
            parts = _window_blocks(windows, weight_grad, (planes, taps))
        else:
            parts = [weight_grad(0, whole, np.empty((n, planes, taps), dtype))]
        dw = _sum_in_order(parts).reshape(planes, fh, fw, c).transpose(0, 3, 1, 2).reshape(shapes[1])
        if not input_grad:
            return None, dw, *db
        # filter row u, reversed, meets the windows in padded input rows u..u+Ho
        dxp = np.zeros(xp.shape, dtype)
        flipped = weights[:, :, :, ::-1].transpose(2, 3, 0, 1)    # (fh, fw, P, C)
        back = np.ascontiguousarray(flipped, dtype).reshape(fh, fw * planes, c)

        def input_grad_block(s, block, product):
            rows = block.reshape(len(block), -1, fw * planes)
            dxb = dxp[s:s + len(rows)].reshape(len(rows), hp * wp, c)
            for u in range(fh):
                dxb[:, u * wp:(u + ho) * wp] += np.matmul(rows, back[u], out=product)

        _window_blocks(dy_n, input_grad_block, (ho * wp, c), fw)
        return dxp[:, top:top + h, left:left + w].transpose(0, 3, 1, 2).reshape(shapes[0]), dw, *db

    y = y_nhwc.transpose(0, 3, 1, 2)
    return (y[:, :, 0] if signal else y), bwd


@functools.lru_cache(maxsize=64)
def _dense_index(c, size, planes, extents, padding):
    """``(idx, out)`` for C planes of spatial ``size`` and ``(P, C, *extents)``
    weights: the output's spatial size ``out``, and the dense matrix ``T =
    append(weights, 0)[idx]``, rows (output position, plane) and columns
    (input position, plane), the zero where no tap joins the two."""
    (h, w), (fh, fw) = (1, *size)[-2:], (1, *extents)[-2:]
    top, left = ((fh - 1) // 2, (fw - 1) // 2) if padding == "same" else (0, 0)
    ho, wo = (h, w) if padding == "same" else (h - fh + 1, w - fw + 1)
    i, j, p, r, s, k = np.ix_(range(ho), range(wo), range(planes), range(h), range(w), range(c))
    u, v = r - i + top, s - j + left
    inside = (u >= 0) & (u < fh) & (v >= 0) & (v < fw)
    idx = np.where(inside, ((p * c + k) * fh + u) * fw + v, planes * c * fh * fw)
    idx = idx.reshape(ho * wo * planes, h * w * c)
    idx.flags.writeable = False
    return idx, (ho, wo)[-len(size):]


@functools.lru_cache(maxsize=64)
def _ones(length):
    """A read-only float64 vector of ``length`` ones: the left operand of a
    bias gradient's GEMM, built once per length."""
    ones = np.ones(length)
    ones.flags.writeable = False
    return ones


def _dense_conv(x, weights, bias, padding, input_grad=True, relu=False):
    """:func:`_conv2d`'s ``(y, bwd)`` by GEMMs against the dense matrix ``T``:
    ``x @ T.T + bias``, then max(0, ·) in place given ``relu``, ``dy @ T`` (if
    ``input_grad``), and ``dy.T @ x`` binned into ``dW``. It computes in
    float64 whatever ``x``'s dtype, since ``T`` is float64 (a plain GEMM's
    float32 rows would depend on the batch); ``dx`` takes ``x``'s dtype.

    A spanning convolution, ``valid`` with a filter as large as its input, has
    one output position, and every tap meets one input element: ``T`` is the
    weights in channels-last order, ``(P, positions·C)``, and ``dy.T @ x`` is
    ``dW`` in that order, so neither is gathered or binned. ``dW`` is added
    into zeros, as ``bincount`` adds into its bins, so that a -0.0 reads +0.0
    on either path."""
    n, c, *size = x.shape
    planes = len(weights)
    to_last, to_first = ((0, 2, 1), (0, 2, 1)) if x.ndim == 3 else ((0, 2, 3, 1), (0, 3, 1, 2))
    spanning = padding == "valid" and tuple(size) == weights.shape[2:]
    if spanning:
        out = (1,) * len(size)
        t = weights.transpose(to_last).reshape(planes, -1)
    else:
        idx, out = _dense_index(c, tuple(size), planes, weights.shape[2:], padding)
        t = np.concatenate((weights.ravel(), _ZERO))[idx]
    x_m = x.transpose(to_last).reshape(n, -1)
    y = (x_m @ t.T).reshape(n, -1, planes)
    if bias is not None:
        y += bias
    if relu:
        np.maximum(y, 0, out=y)

    def bwd(dy):
        dy_m = dy.transpose(to_last).reshape(n, -1)
        dx = ((dy_m @ t).reshape(n, *size, c).transpose(to_first).astype(x.dtype, copy=False)
              if input_grad else None)
        if spanning:
            dw = np.zeros(weights.shape)
            dw += (dy_m.T @ x_m).reshape(planes, *size, c).transpose(to_first)
        else:
            dw = np.bincount(idx.ravel(), (dy_m.T @ x_m).ravel(), weights.size + 1)[:-1]
        dy_p = dy_m.reshape(-1, planes)
        db = () if bias is None else (_ones(len(dy_p)) @ dy_p,)
        return dx, dw.reshape(weights.shape), *db

    return y.reshape(n, *out, planes).transpose(to_first), bwd


class Conv2D(Layer):
    """Cross-correlation over ``ndim`` spatial axes, stride 1, summed over input
    planes, plus bias: ``Conv2D(fh, fw, planes)`` has ``(planes, C, fh, fw)``
    weights. A convolution linked to the BatchNorm after it has no bias: the
    BatchNorm's mean subtraction cancels it (Ioffe & Szegedy 2015, §3.2)."""

    ndim = 2

    @property
    def param_names(self):
        return ("weights",) if self.norm else ("weights", "bias")

    def __init__(self, *sizes: int, padding: str = "valid"):
        *extents, planes = sizes
        if len(extents) != self.ndim:
            raise ContractError(f"{self.kind} takes {self.ndim} extent(s), got {extents}")
        if min(*extents, planes) < 1:
            raise ContractError("filter extents and planes must be >= 1")
        if padding not in ("valid", "same"):
            raise ContractError(f"unknown padding {padding!r}")
        self.extents = tuple(extents)
        self.planes = planes
        self.padding = padding
        self.in_planes = self.dense_entries = None
        self.weights = None  # (planes, in_planes, *extents)
        self.bias = None     # (planes,)

    def wire(self, in_shape):
        if len(in_shape) != self.ndim + 1:
            raise ShapeError(f"{self.kind} expects input of rank {self.ndim + 1}, got {in_shape}")
        c, *size = in_shape
        if self.padding == "valid" and any(f > n for f, n in zip(self.extents, size)):
            raise ShapeError(f"filter {self.extents} exceeds input {tuple(size)}")
        self.in_planes = c
        if self.padding == "valid":
            size = [n - f + 1 for f, n in zip(self.extents, size)]
        # the dense matrix's entries; 0 with one output position (it is the weights)
        positions = math.prod(size)
        self.dense_entries = positions * self.planes * math.prod(in_shape) if positions > 1 else 0
        return (self.planes, *size)

    def init_params(self, rng):
        shape = (self.planes, self.in_planes, *self.extents)
        self.weights = _he_init(rng, shape, math.prod(shape[1:]))
        self.bias = None if self.norm else np.zeros(self.planes)

    def weight_count(self):
        return self.planes * self.in_planes * math.prod(self.extents)

    def spec_line(self):
        pad = " same" if self.padding == "same" else ""
        return f"{self.kind} {'x'.join(map(str, self.extents))} {self.planes}{pad}"

    def _apply(self, x, train, input_grad=True):
        kernel = _dense_conv if self.dense_entries <= _DENSE_MAX else _conv2d
        norm = self.norm
        if norm is None or train:
            return kernel(x, self.weights, self.bias, self.padding, input_grad)
        a, b, _ = norm._affine(norm.running_mean, norm.running_var, np.float64)
        return kernel(x, self.weights * a.reshape(-1, *(1,) * (self.weights.ndim - 1)), b,
                      self.padding, relu=norm.relu)


class Conv1D(Layer):
    """:class:`Conv2D`'s code on one filter extent: ``Conv1D(f, planes)`` has
    ``(planes, C, f)`` weights, and a length-L signal runs through
    :func:`_conv2d` as a 1×L image."""

    param_names = Conv2D.param_names
    ndim = 1
    __init__, wire, init_params = Conv2D.__init__, Conv2D.wire, Conv2D.init_params
    weight_count, spec_line, _apply = Conv2D.weight_count, Conv2D.spec_line, Conv2D._apply


def _norm_blocks(xs):
    """The row slices of BatchNorm's blocks of ``xs``, one sample per row: as
    many whole samples as fit ``_NORM_BLOCK_BYTES``."""
    starts = _block_starts(len(xs), xs.itemsize * xs.shape[1], _NORM_BLOCK_BYTES)
    return [slice(s, s + starts.step) for s in starts]


def _tiled(xs, *per_plane):
    """Each per-plane vector repeated over a sample's positions, in ``xs``'s
    dtype: a row of ``xs``, one sample, is its positions' planes in turn."""
    planes = len(per_plane[0])
    out = np.empty((len(per_plane), xs.shape[1] // planes, planes), xs.dtype)
    out[...] = np.reshape(per_plane, (len(per_plane), 1, planes))
    return out.reshape(len(per_plane), -1)


class BatchNorm(Layer):
    """Per-plane batch normalization with learnable scale and shift.

    Training normalizes by batch statistics, which also update the running
    statistics by an exponential moving average; inference uses the running
    ones. Either way forward is one affine map ``y = x*a + b`` on the ``(M, C)``
    channels-last matrix, ``a = scale/sqrt(var + eps)``, ``b = shift - mean*a``,
    then max(0, y) if it is linked to the ReLU after it (``relu``); backward,
    in training only, returns ``dy*a`` plus per-plane ``x*c - d``, ``dy`` first
    gated by ``y > 0`` if linked. Both compute in ``x``'s dtype, to which ``a``
    and ``b`` are cast (so ``c`` and ``d``, from training's batch statistics,
    are in it too); the running statistics stay float64.

    Every pass walks blocks of whole samples (:func:`_norm_blocks`) on the
    calling thread. The map and the ReLU fill ``y`` in one pass, in either
    mode; training's forward first makes two more: per-block sums give the
    mean, centred squares the variance (two-pass). The backward makes two: the
    gated ``dy`` into ``dx`` with per-block sums of it and of ``dy*x``
    (``dbeta``, ``dgamma``), then ``dx*a + x*c - d`` in place. Partial sums
    are added in block order. A per-plane map runs against its coefficients
    tiled over a sample's positions: numpy broadcasts a ``(C,)`` vector over
    ``(M, C)`` rows about 3x slower.
    """

    param_names = ("scale", "shift")

    def __init__(self):
        self.planes = None
        self.scale = None
        self.shift = None
        self.running_mean = None
        self.running_var = None

    def wire(self, in_shape):
        self.planes = in_shape[0]
        return tuple(in_shape)

    def init_params(self, rng):
        self.scale = np.ones(self.planes)
        self.shift = np.zeros(self.planes)
        self.running_mean = np.zeros(self.planes)
        self.running_var = np.ones(self.planes)

    @property
    def state_arrays(self):
        return self.trainable_params + [self.running_mean, self.running_var]

    def _apply(self, x, train, input_grad=True):
        if not train and self.folded:
            return x, None
        to_last = (0, *range(2, x.ndim), 1)
        to_first = (0, x.ndim - 1, *range(1, x.ndim - 1))
        xt = x.transpose(to_last)
        # one row per sample, channels-last: a view of a convolution's output,
        # a copy otherwise
        xs = np.ascontiguousarray(xt).reshape(len(x), -1)
        if not train:
            a, b, _ = self._affine(self.running_mean, self.running_var, x.dtype)
            return self._map(xs, *_tiled(xs, a, b)).reshape(xt.shape).transpose(to_first), None
        if len(x) < 2:
            raise ContractError("batch normalization needs batch size >= 2 in training")
        ys, bwd = self._train(xs)

        def unflatten(dy):
            dx, dgamma, dbeta = bwd(dy.transpose(to_last).reshape(xs.shape))
            return dx.reshape(xt.shape).transpose(to_first), dgamma, dbeta

        return ys.reshape(xt.shape).transpose(to_first), unflatten

    def _affine(self, mean, var, dtype):
        """``(a, b, inv_std)`` of the map ``x*a + b``, ``a`` and ``b`` in ``dtype``."""
        inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
        a = (self.scale * inv_std).astype(dtype, copy=False)
        return a, (self.shift - mean * a).astype(dtype, copy=False), inv_std

    def _map(self, xs, a_t, b_t):
        """``xs*a_t + b_t``, then max(0, ·) if linked, into a new array, one
        block of :func:`_norm_blocks` at a time."""
        ys = np.empty_like(xs)
        for rows in _norm_blocks(xs):
            yb = ys[rows]
            np.multiply(xs[rows], a_t, out=yb)
            yb += b_t
            if self.relu:
                np.maximum(yb, 0, out=yb)
        return ys

    def _train(self, xs):
        """``(ys, bwd)``: a training pass on ``xs``, one channels-last sample
        per row, and ``bwd(dyt) -> (dxs, dgamma, dbeta)`` for the output
        gradient ``dyt`` in ``xs``'s shape."""
        planes, dtype = self.planes, xs.dtype
        m, positions = xs.size // planes, xs.shape[1] // planes
        blocks = _norm_blocks(xs)
        step = blocks[0].stop                                # samples per block
        ones = np.ones(step * positions, dtype)
        sums = np.empty((2, len(blocks), planes), dtype)    # each block's, summed in block order

        def plane_sums(array, out):
            """A block's per-plane sums of ``array``, into ``out``."""
            rows = array.reshape(-1, planes)
            np.matmul(ones[:len(rows)], rows, out=out)

        for j, rows in enumerate(blocks):
            plane_sums(xs[rows], sums[0, j])
        mean = _sum_in_order(sums[0]) / m
        (centre,), squares = _tiled(xs, mean), np.empty((step, xs.shape[1]), dtype)
        for j, rows in enumerate(blocks):
            xb = xs[rows]
            sq = squares[:len(xb)]
            np.subtract(xb, centre, out=sq)
            sq *= sq
            plane_sums(sq, sums[1, j])
        var = _sum_in_order(sums[1]) / m
        self.running_mean *= BN_MOMENTUM
        self.running_mean += (1.0 - BN_MOMENTUM) * mean
        self.running_var *= BN_MOMENTUM
        self.running_var += (1.0 - BN_MOMENTUM) * var
        a, b, inv_std = self._affine(mean, var, dtype)
        a_t, b_t = _tiled(xs, a, b)
        ys, relu = self._map(xs, a_t, b_t), self.relu

        def bwd(dyt):
            dxs = np.empty_like(xs)
            products, parts = np.empty((step, xs.shape[1]), dtype), np.empty_like(sums)
            for j, rows in enumerate(blocks):
                g, dyb = dxs[rows], dyt[rows]
                if relu:   # a float gate: a bool*float multiply costs about 4x as much
                    np.greater(ys[rows], 0, out=g, casting="unsafe")
                    g *= dyb
                else:
                    np.copyto(g, dyb)
                plane_sums(g, parts[0, j])
                p = products[:len(g)]
                np.multiply(g, xs[rows], out=p)
                plane_sums(p, parts[1, j])
            dbeta = _sum_in_order(parts[0])
            dgamma = (_sum_in_order(parts[1]) - mean * dbeta) * inv_std
            # dx = dy*a + x*c - d, per plane: c and d are the batch statistics' share
            c = a * inv_std * dgamma / -m
            c_t, d_t = _tiled(xs, c, a * dbeta / m + c * mean)
            for rows in blocks:
                g = dxs[rows]
                p = products[:len(g)]
                np.multiply(xs[rows], c_t, out=p)
                p -= d_t
                g *= a_t
                g += p
            return dxs, dgamma, dbeta

        return ys, bwd


class ReLU(Layer):
    """Elementwise max(0, x); gradient is 1 where x > 0, else 0. A linked ReLU
    returns its input, already rectified, and passes its gradient through to
    the BatchNorm's backward, which gates it; it still records its tape entry."""

    def wire(self, in_shape):
        return tuple(in_shape)

    def _apply(self, x, train, input_grad=True):
        if self.linked:
            return x, lambda g: (g,)
        # a float gate: a bool*float multiply costs about 4x as much
        return np.maximum(x, 0.0), lambda g: (g * (x > 0).astype(x.dtype),)


class Flatten(Layer):
    """Row-major linearization of each sample."""

    def wire(self, in_shape):
        return (math.prod(in_shape),)

    def _apply(self, x, train, input_grad=True):
        return x.reshape(x.shape[0], -1), lambda g: (g.reshape(x.shape),)


class Dense(Layer):
    """Fully connected layer: weights @ input + bias."""

    param_names = ("weights", "bias")

    def __init__(self, out_dim: int):
        if out_dim < 1:
            raise ContractError("out_dim must be >= 1")
        self.out_dim = out_dim
        self.in_dim = None
        self.weights = None  # (out_dim, in_dim)
        self.bias = None

    def wire(self, in_shape):
        if len(in_shape) != 1:
            raise ShapeError(f"Dense expects flat input, got {in_shape}")
        self.in_dim = in_shape[0]
        return (self.out_dim,)

    def init_params(self, rng):
        self.weights = _he_init(rng, (self.out_dim, self.in_dim), self.in_dim)
        self.bias = np.zeros(self.out_dim)

    def weight_count(self):
        return self.out_dim * self.in_dim

    def spec_line(self):
        return f"dense {self.out_dim}"

    def _apply(self, x, train, input_grad=True):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"Dense expects (N, {self.in_dim}), got {x.shape}")
        weights = self.weights
        return x @ weights.T + self.bias, lambda dy: ((dy @ weights).astype(x.dtype, copy=False),
                                                      dy.T @ x, dy.sum(axis=0))


def mse_loss(output: np.ndarray, target: np.ndarray,
             tape: GradientTape | None = None) -> np.ndarray:
    """Sum of squared differences per sample, averaged over the batch.

    For a single rank-1 output this is the plain unnormalized sum of squares
    with gradient 2*(output - target), computed in float64 and returned in the
    output's dtype. Returns a 0-d float64 array.
    """
    output = np.asarray(output)
    target = np.asarray(target, dtype=np.float64)
    if output.shape != target.shape:
        raise ShapeError(f"output {output.shape} vs target {target.shape}")
    n = output.shape[0] if output.ndim > 1 else 1
    diff = output - target
    loss = np.asarray(np.sum(diff * diff) / n)
    if tape is not None:
        tape.record(loss, (output,),
                    lambda g: ((g * 2.0 * diff / n).astype(output.dtype, copy=False),), "mse")
    return loss


class FeatureExtractor:
    """Ordered layer stack mapping inputs to length-M output vectors.

    Wiring validates every shape at build time; the final per-sample output
    must be a flat vector of length ``rank`` (the Walsh codebook rank).
    :meth:`initialize` gathers every trainable array into the flat vector
    ``params`` (``None`` until then) and rebinds each as a view of its slice.
    A forward casts its batch to the ``compute`` dtype, float64 or float32;
    the parameters stay float64 either way.
    """

    def __init__(self, layers: list, input_shape: tuple, rank: int, compute="float64"):
        self.layers = list(layers)
        self.input_shape = tuple(int(d) for d in input_shape)
        self.rank = int(rank)
        self.compute = np.dtype(compute)
        if self.compute not in COMPUTE_DTYPES:
            raise ContractError(f"compute dtype must be float32 or float64, got {self.compute}")
        self._wire()
        self.params = None

    def _wire(self):
        shape = self.input_shape
        for before, layer in zip([None, *self.layers], self.layers):
            shape = layer.wire(shape)
            layer.norm, layer.relu = None, False   # the next iteration's links
            # a BatchNorm after a convolution, and a ReLU after a BatchNorm
            layer.folded = isinstance(layer, BatchNorm) and isinstance(before, (Conv1D, Conv2D))
            layer.linked = isinstance(layer, ReLU) and isinstance(before, BatchNorm)
            if layer.folded:
                before.norm = layer
            if layer.linked:
                before.relu = True
        if shape != (self.rank,):
            raise ShapeError(
                f"model output shape {shape} must be ({self.rank},) to match the codebook rank"
            )

    def initialize(self, seed: int | np.random.Generator = 0):
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        for layer in self.layers:
            layer.init_params(rng)
        arrays = self.trainable_params
        self.params = np.concatenate([p.ravel() for p in arrays]) if arrays else np.zeros(0)
        views = iter(self.flat_views(self.params))
        for layer in self.layers:
            for name in layer.param_names:
                setattr(layer, name, next(views))
        return self

    def flat_views(self, flat):
        """Views of the flat vector ``flat`` shaped like the trainable arrays,
        in parameter order: the layout of ``params``."""
        views, offset = [], 0
        for p in self.trainable_params:
            views.append(flat[offset:offset + p.size].reshape(p.shape))
            offset += p.size
        return views

    @property
    def trainable_params(self):
        return [p for layer in self.layers for p in layer.trainable_params]

    @property
    def state_arrays(self):
        return [a for layer in self.layers for a in layer.state_arrays]

    def snapshot(self):
        return [a.copy() for a in self.state_arrays]

    def restore(self, snapshot):
        for dst, src in zip(self.state_arrays, snapshot, strict=True):
            np.copyto(dst, src)

    def weight_count(self) -> int:
        """Connection weights only: filter and dense-matrix coefficients."""
        return sum(layer.weight_count() for layer in self.layers)

    @property
    def sample_shape(self):
        """One sample as datasets and specs give it: no plane axis on a single plane."""
        shape = self.input_shape
        if len(shape) not in (2, 3) or len(shape) == 2 and shape[0] != 1:
            raise ContractError(f"input {shape} has no sample form (not 1xL, 1xHxW or CxHxW)")
        return self.input_shape[1:] if self.input_shape[0] == 1 else self.input_shape

    def check_sample_shape(self, shape):
        """Raise ``ShapeError`` unless ``shape`` is the model's input or sample shape."""
        if shape != self.input_shape and shape != self.sample_shape:
            raise ShapeError(f"input batch shape {shape} does not match model "
                             f"input {self.input_shape}")

    def _with_channel(self, x):
        x = np.asarray(x, dtype=self.compute)
        self.check_sample_shape(x.shape[1:])
        return x if x.shape[1:] == self.input_shape else x.reshape((x.shape[0],) + self.input_shape)

    def forward(self, x, mode: str = "infer", tape: GradientTape | None = None):
        out = self._with_channel(x)
        if not len(out):
            raise ContractError("a forward pass needs at least one sample, got an empty batch")
        for layer in self.layers:
            out = layer.forward(out, mode=mode, tape=tape)
        return out

    def spec_lines(self):
        return [layer.spec_line() for layer in self.layers]
