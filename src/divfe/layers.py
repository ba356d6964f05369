"""Feature-extractor building blocks with forward passes and gradients.

All layers operate on batched channels-first arrays: ``(N, C, L)`` for 1D
signals, ``(N, C, H, W)`` for images, ``(N, D)`` after flattening. Each
layer computes ``(y, bwd)`` in :meth:`Layer._apply`, where ``bwd(dy)``
returns ``(dx, *parameter gradients)``.
:meth:`Layer.forward` is the one place that records on a
:class:`~divfe.numerics.GradientTape`: one entry per layer, named by its spec
keyword (the lowercased class name), whose inputs are the layer's input
followed by its trainable arrays in ``param_names`` order;
:func:`divfe.numerics.backward` walks these entries as one chain.

Convolution is implemented as cross-correlation (the usual CNN convention),
stride 1. Padding is ``valid`` by default; ``same`` zero-padding is available
for architectures whose filters would otherwise outgrow the map.

Conv1D is Conv2D's code on one filter extent. Both run one of two
channels-last kernels, each taking a length-L signal as a 1×L image. A layer
whose dense (doubly Toeplitz) matrix ``T``, ``Ho·Wo·P`` by ``H·W·C``, has at
most ``_DENSE_MAX`` entries, or that has one output position per sample (``T``
is then the weights), runs :func:`_dense_conv`: each pass is one GEMM against
``T``, gathered from the weights through an index built once per geometry.
Every other one runs :func:`_conv2d`, so no spanning filter reaches it. In
blocks of whole samples of at most about 1 MiB it copies only the fw-wide
windows of each padded row (MEC, Cho & Brand 2017): a ``(Hp·Wo, fw·C)``
matrix per sample, so each input element is copied fw times, not fh·fw.
Every block is a stack of these per-sample matrices. Filter row u meets the
window rows from ``u·Wo`` on (with one filter row, every Conv1D, all of
them), and the output is the sum over u of their stacked GEMMs with its
``(fw·C, P)`` weight slab. The weight gradient comes from the same windows,
still in the buffer when a batch fits in one block. The input gradient, a
full correlation of ``dy`` with the flipped filter, takes the same scheme
transposed on several input planes: ``dy`` padded by fw-1 columns each side
has Wp windows per row, a ``(Ho·Wp, fw·P)`` matrix per sample, and filter
row u, reversed, adds one GEMM into padded input rows u..u+Ho, which are
contiguous. On one input plane the windows would copy fw·P doubles per input
element, so there it is one GEMV per filter tap. Either kernel's result is a
``(N, P, H, W)`` view of a channels-last array. BatchNorm, which works on
that memory as an ``(M, C)`` matrix, and ReLU keep its order both ways, so a
following convolution reads its input without a copy.

Each layer names its trainable arrays in ``param_names``. After
initialisation :class:`FeatureExtractor` holds them all in one flat vector,
``params``, and every layer attribute is a reshaped view of its slice, so an
SGD step is three whole-vector operations.
"""

import functools
import math

import numpy as np

from .numerics import ContractError, GradientTape, ShapeError

BN_EPSILON = 1e-5
BN_MOMENTUM = 0.9
# The row-window kernel copies its row windows in blocks of whole samples of
# at most this many bytes, so a block's windows and its output stay in a 2 MiB
# per-core L2 cache (4 MiB blocks ran the mnist.spec convolutions about 1.4x
# slower at batch 256).
_IM2COL_BLOCK_BYTES = 1 << 20
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
        y, bwd = self._apply(x, mode)
        if tape is not None:
            tape.record(y, (x, *self.trainable_params), bwd, self.kind)
        return y

    def _apply(self, x, mode):
        """``(y, bwd)``: the output and ``bwd(dy) -> (dx, *parameter grads)``."""
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
    try:
        return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
    except ValueError as exc:   # numpy's refusal of a size beyond any address space
        raise MemoryError(str(exc)) from exc


def _windows(xp, fw):
    """The ``(N, H, Wo, fw, C)`` view of every fw-wide window of every row of a
    C-contiguous ``xp (N, H, W, C)``, built on its buffer.

    Window j of row i is xp[:, i, j:j+fw, :], one run of fw*C contiguous
    doubles.
    """
    n, h, w, c = xp.shape
    s0, s1, s2, s3 = xp.strides
    return np.ndarray((n, h, w - fw + 1, fw, c), xp.dtype, buffer=xp,
                      strides=(s0, s1, s2, s2, s3))


def _transposed_rows(dy_n, weights, xp_shape):
    """The input gradient ``dxp`` of shape ``xp_shape (N, Hp, Wp, C)`` for
    ``dy_n (N, Ho, Wo, P)``: a full correlation of dy with the flipped filter,
    by row windows.

    dy padded by fw-1 columns each side has Wp fw-wide windows per row; filter
    row u, reversed, meets them in output rows u..u+Ho, contiguous per sample.
    """
    n, ho, wo, planes = dy_n.shape
    _, hp, wp, c = xp_shape
    fh, fw = weights.shape[2:]
    width = fw * planes
    dyp = np.zeros((n, ho, wp + fw - 1, planes))
    dyp[:, :, fw - 1:fw - 1 + wo] = dy_n
    windows = _windows(dyp, fw)                            # (N, Ho, Wp, fw, P)
    flipped = weights[:, :, :, ::-1].transpose(2, 3, 0, 1)    # (fh, fw, P, C)
    slabs = np.ascontiguousarray(flipped).reshape(fh, width, c)
    step = max(1, min(n, _IM2COL_BLOCK_BYTES // (8 * ho * wp * width)))
    buf = np.empty((step,) + windows.shape[1:])
    dxp = np.zeros(xp_shape)
    for s in range(0, n, step):
        m = min(step, n - s)
        np.copyto(buf[:m], windows[s:s + m])
        rows = buf[:m].reshape(m, -1, width)
        dxb = dxp[s:s + m].reshape(m, hp * wp, c)
        for u in range(fh):
            dxb[:, u * wp:(u + ho) * wp] += rows @ slabs[u]
    return dxp


def _conv2d(x, weights, bias, padding):
    """Stride-1 cross-correlation of ``x (N, C, H, W)`` with ``weights
    (P, C, fh, fw)``, or of a signal ``x (N, C, L)`` with ``weights (P, C, f)``
    as a 1×L image, plus ``bias (P,)`` under ``valid`` or ``same`` padding.

    Returns ``(y, bwd)``: ``y (N, P, Ho, Wo)`` and ``bwd(dy) -> (dx, dW, db)``,
    each in its argument's rank. ``dx`` comes from :func:`_transposed_rows`
    on several input planes, and from one GEMV per filter tap on one.
    """
    signal = x.ndim == 3
    if signal:
        x, weights = x[:, :, None], weights[:, :, None]
    n, c, h, w = x.shape
    planes, _, fh, fw = weights.shape
    xt = x.transpose(0, 2, 3, 1)                                   # (N, H, W, C)
    if padding == "same":
        top, left = (fh - 1) // 2, (fw - 1) // 2
        xp = np.zeros((n, h + fh - 1, w + fw - 1, c))
        xp[:, top:top + h, left:left + w] = xt
    else:
        top = left = 0
        xp = np.ascontiguousarray(xt)
    ho, wo = xp.shape[1] - fh + 1, xp.shape[2] - fw + 1
    width = fw * c
    windows = _windows(xp, fw)                             # (N, Hp, Wo, fw, C)
    step = max(1, min(n, _IM2COL_BLOCK_BYTES // (8 * xp.shape[1] * wo * width)))
    starts = range(0, n, step)
    buf = np.empty((step,) + windows.shape[1:])

    def fill(s):
        """Copy the row windows of the block from sample s into buf and return,
        per filter row u, the windows it meets: rows u*Wo onwards, Ho*Wo of them
        for each sample."""
        m = min(step, n - s)
        np.copyto(buf[:m], windows[s:s + m])
        rows = buf[:m].reshape(m, -1, width)
        return [rows[:, u * wo:(u + ho) * wo] for u in range(fh)]

    slabs = np.ascontiguousarray(weights.transpose(2, 3, 1, 0)).reshape(fh, width, planes)
    y_nhwc = np.empty((n, ho, wo, planes))
    for s in starts:
        taps = fill(s)
        yb = y_nhwc[s:s + step].reshape(-1, ho * wo, planes)
        np.matmul(taps[0], slabs[0], out=yb)
        for u in range(1, fh):
            yb += taps[u] @ slabs[u]
        yb += bias

    def bwd(dy):
        if signal:
            dy = dy[:, :, None]
        dy_n = np.ascontiguousarray(dy.transpose(0, 2, 3, 1))        # (N, Ho, Wo, P)
        dy_m = dy_n.reshape(-1, planes)
        db = np.ones(len(dy_m)) @ dy_m
        dw = None
        for s in starts:
            # with one block, buf still holds the forward's row windows
            block_taps = taps if len(starts) == 1 else fill(s)
            dyb = dy_n[s:s + step].reshape(-1, ho * wo, planes).swapaxes(-1, -2)
            # stacked per sample: summed over the block's samples
            g = np.concatenate([dyb @ a for a in block_taps], axis=-1).sum(axis=0)
            dw = g if dw is None else dw + g                     # (P, fh*width)
        dw = dw.reshape(planes, fh, fw, c).transpose(0, 3, 1, 2)
        if c > 1:
            dxp = _transposed_rows(dy_n, weights, xp.shape)
        else:   # one input plane: row windows would copy fw*P doubles per element
            dxp = np.zeros(xp.shape)
            for u, v in np.ndindex(fh, fw):
                dxp[:, u:u + ho, v:v + wo, 0] += (dy_m @ weights[:, 0, u, v]).reshape(n, ho, wo)
        dx = dxp[:, top:top + h, left:left + w].transpose(0, 3, 1, 2)
        return (dx[:, :, 0], dw[:, :, 0], db) if signal else (dx, dw, db)

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


def _dense_conv(x, weights, bias, padding):
    """:func:`_conv2d`'s ``(y, bwd)`` by GEMMs against the dense matrix ``T``:
    ``x @ T.T + bias``, ``dy @ T``, and ``dy.T @ x`` binned into ``dW``."""
    n, c, *size = x.shape
    planes = len(weights)
    idx, out = _dense_index(c, tuple(size), planes, weights.shape[2:], padding)
    to_last, to_first = ((0, 2, 1), (0, 2, 1)) if x.ndim == 3 else ((0, 2, 3, 1), (0, 3, 1, 2))
    x_m = x.transpose(to_last).reshape(n, -1)
    t = np.concatenate((weights.ravel(), _ZERO))[idx]
    y = (x_m @ t.T).reshape(n, -1, planes)
    y += bias

    def bwd(dy):
        dy_m = dy.transpose(to_last).reshape(n, -1)
        dx = (dy_m @ t).reshape(n, *size, c).transpose(to_first)
        dw = np.bincount(idx.ravel(), (dy_m.T @ x_m).ravel(), weights.size + 1)[:-1]
        dy_p = dy_m.reshape(-1, planes)
        return dx, dw.reshape(weights.shape), np.ones(len(dy_p)) @ dy_p

    return y.reshape(n, *out, planes).transpose(to_first), bwd


class Conv2D(Layer):
    """Cross-correlation over ``ndim`` spatial axes, stride 1, summed over input
    planes, plus bias: ``Conv2D(fh, fw, planes)`` has ``(planes, C, fh, fw)``
    weights."""

    param_names = ("weights", "bias")
    ndim = 2

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
        self.bias = np.zeros(self.planes)

    def weight_count(self):
        return self.planes * self.in_planes * math.prod(self.extents)

    def spec_line(self):
        pad = " same" if self.padding == "same" else ""
        return f"{self.kind} {'x'.join(map(str, self.extents))} {self.planes}{pad}"

    def _apply(self, x, mode):
        kernel = _dense_conv if self.dense_entries <= _DENSE_MAX else _conv2d
        return kernel(x, self.weights, self.bias, self.padding)


class Conv1D(Layer):
    """:class:`Conv2D`'s code on one filter extent: ``Conv1D(f, planes)`` has
    ``(planes, C, f)`` weights, and a length-L signal runs through
    :func:`_conv2d` as a 1×L image."""

    param_names = Conv2D.param_names
    ndim = 1
    __init__, wire, init_params = Conv2D.__init__, Conv2D.wire, Conv2D.init_params
    weight_count, spec_line, _apply = Conv2D.weight_count, Conv2D.spec_line, Conv2D._apply


class BatchNorm(Layer):
    """Per-plane batch normalization with learnable scale and shift.

    Training normalizes by batch statistics, which also update the running
    statistics by an exponential moving average; inference uses the running
    ones. Either way forward is one affine map ``y = x*a + b`` on the ``(M, C)``
    channels-last matrix, ``a = scale/sqrt(var + eps)``, ``b = shift - mean*a``,
    and backward returns ``dy*a``, plus per-plane ``x*c + d`` in training.
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

    def _apply(self, x, mode):
        to_last = (0, *range(2, x.ndim), 1)
        to_first = (0, x.ndim - 1, *range(1, x.ndim - 1))
        xt = x.transpose(to_last)
        # (M, C): a view of a convolution's output, a copy otherwise
        xm = xt.reshape(-1, self.planes)
        m = len(xm)
        train = mode == "train"
        if train:
            if x.shape[0] < 2:
                raise ContractError("batch normalization needs batch size >= 2 in training")
            ones = np.ones(m)
            mean = (ones @ xm) / m
            sq = xm - mean
            sq *= sq
            var = (ones @ sq) / m
            self.running_mean *= BN_MOMENTUM
            self.running_mean += (1.0 - BN_MOMENTUM) * mean
            self.running_var *= BN_MOMENTUM
            self.running_var += (1.0 - BN_MOMENTUM) * var
        else:
            mean, var = self.running_mean.copy(), self.running_var   # bwd reads mean later
        inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
        a = self.scale * inv_std
        ym = xm * a
        ym += self.shift - mean * a

        def bwd(dy):
            dym = dy.transpose(to_last).reshape(xm.shape)
            ones = np.ones(m)
            dbeta = ones @ dym
            prod = dym * xm
            dgamma = (ones @ prod - mean * dbeta) * inv_std
            dxm = dym * a
            if train:
                # the batch statistics' share: dx += x*c + d, per plane
                c = a * inv_std * dgamma / -m
                np.multiply(xm, c, out=prod)
                prod -= a * dbeta / m + c * mean
                dxm += prod
            return dxm.reshape(xt.shape).transpose(to_first), dgamma, dbeta

        return ym.reshape(xt.shape).transpose(to_first), bwd


class ReLU(Layer):
    """Elementwise max(0, x); gradient is 1 where x > 0, else 0."""

    def wire(self, in_shape):
        return tuple(in_shape)

    def _apply(self, x, mode):
        # a float gate: a bool*float multiply costs about 4x as much
        return np.maximum(x, 0.0), lambda g: (g * (x > 0).astype(np.float64),)


class Flatten(Layer):
    """Row-major linearization of each sample."""

    def wire(self, in_shape):
        return (math.prod(in_shape),)

    def _apply(self, x, mode):
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

    def _apply(self, x, mode):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"Dense expects (N, {self.in_dim}), got {x.shape}")
        weights = self.weights
        return x @ weights.T + self.bias, lambda dy: (dy @ weights, dy.T @ x, dy.sum(axis=0))


def mse_loss(output: np.ndarray, target: np.ndarray,
             tape: GradientTape | None = None) -> np.ndarray:
    """Sum of squared differences per sample, averaged over the batch.

    For a single rank-1 output this is the plain unnormalized sum of squares
    with gradient 2*(output - target). Returns a 0-d float64 array.
    """
    output = np.asarray(output, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if output.shape != target.shape:
        raise ShapeError(f"output {output.shape} vs target {target.shape}")
    n = output.shape[0] if output.ndim > 1 else 1
    diff = output - target
    loss = np.asarray(np.sum(diff * diff) / n)
    if tape is not None:
        tape.record(loss, (output,), lambda g: (g * 2.0 * diff / n,), "mse")
    return loss


class FeatureExtractor:
    """Ordered layer stack mapping inputs to length-M output vectors.

    Wiring validates every shape at build time; the final per-sample output
    must be a flat vector of length ``rank`` (the Walsh codebook rank).
    :meth:`initialize` gathers every trainable array into the flat vector
    ``params`` (``None`` until then) and rebinds each as a view of its slice.
    """

    def __init__(self, layers: list, input_shape: tuple, rank: int):
        self.layers = list(layers)
        self.input_shape = tuple(int(d) for d in input_shape)
        self.rank = int(rank)
        self.output_shape = self._wire()
        self.params = None

    def _wire(self):
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.wire(shape)
        if shape != (self.rank,):
            raise ShapeError(
                f"model output shape {shape} must be ({self.rank},) to match the codebook rank"
            )
        return shape

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

    def check_sample_shape(self, shape):
        """Raise ``ShapeError`` unless ``shape`` is the model's input shape or,
        for a single-plane input, that shape without its plane axis."""
        if shape != self.input_shape and not (self.input_shape[0] == 1
                                              and shape == self.input_shape[1:]):
            raise ShapeError(f"input batch shape {shape} does not match model "
                             f"input {self.input_shape}")

    def _with_channel(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1:] == self.input_shape:
            return x
        self.check_sample_shape(x.shape[1:])
        return x.reshape((x.shape[0],) + self.input_shape)

    def forward(self, x, mode: str = "infer", tape: GradientTape | None = None):
        out = self._with_channel(x)
        for layer in self.layers:
            out = layer.forward(out, mode=mode, tape=tape)
        return out

    def spec_lines(self):
        return [layer.spec_line() for layer in self.layers]
