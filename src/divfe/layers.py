"""Feature-extractor building blocks with forward passes and gradients.

All layers operate on batched channels-first arrays: ``(N, C, L)`` for 1D
signals, ``(N, C, H, W)`` for images, ``(N, D)`` after flattening. In
training, a layer that computes something records one entry on a
:class:`~divfe.numerics.GradientTape`, named by its spec keyword, whose
inputs are the layer's input followed by its trainable arrays in
``param_names`` order; :func:`divfe.numerics.backward` walks these entries
as one chain.

Convolution is implemented as cross-correlation (the usual CNN convention),
stride 1. Padding is ``valid`` by default; ``same`` zero-padding is available
for architectures whose filters would otherwise outgrow the map.

Conv1D and Conv2D share one kernel, :func:`_conv2d`; a length-L signal is
a 1×L image. The kernel computes channels-last: it transposes its input to
``(N, H, W, C)``, builds im2col columns in ``(fh, fw, C)`` order in blocks of
whole samples of at most about 4 MiB, and returns a ``(N, P, H, W)`` view of
a channels-last result, so a following convolution (through BatchNorm and
ReLU, which keep the memory order) reads its input without a copy. The
windows are one strided view of the padded input, built directly from its
strides. When a batch fits in one block, backward computes the weight
gradient from the forward's columns, which are still in the buffer; with
more blocks it rebuilds each block's columns. MaxPool likewise pools 1D and
2D maps through one window reshape.

Each layer names its trainable arrays in ``param_names``. After
initialisation :class:`FeatureExtractor` holds them all in one flat vector,
``params``, and every layer attribute is a reshaped view of its slice, so an
SGD step is three whole-vector operations.
"""

import numpy as np

from .numerics import ContractError, GradientTape, ShapeError

BN_EPSILON = 1e-5
BN_MOMENTUM = 0.9
# The convolution kernel streams its im2col columns in blocks of whole samples
# of at most this many bytes, so the full column matrix is never materialised.
_IM2COL_BLOCK_BYTES = 4 << 20


class Layer:
    """Base layer: configuration at construction, parameters at wiring."""

    param_names = ()   # attributes holding the trainable arrays, in order

    def wire(self, in_shape: tuple) -> tuple:
        """Validate and return the per-sample output shape."""
        raise NotImplementedError

    def init_params(self, rng: np.random.Generator) -> None:
        pass

    def forward(self, x: np.ndarray, mode: str = "infer",
                tape: GradientTape | None = None) -> np.ndarray:
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
        raise NotImplementedError


def _he_init(rng, shape, fan_in):
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def _windows(xp, fh, fw):
    """The ``(N, Ho, Wo, fh, fw, C)`` view of every fh×fw window of a
    C-contiguous ``xp (N, H, W, C)``, built on its buffer.

    Column (u, v, :) of window (i, j) is xp[:, i+u, j+v, :], so each copied
    run xp[:, i+u, j:j+fw, :] is fw*C contiguous doubles.
    """
    n, h, w, c = xp.shape
    s0, s1, s2, s3 = xp.strides
    return np.ndarray((n, h - fh + 1, w - fw + 1, fh, fw, c), xp.dtype, buffer=xp,
                      strides=(s0, s1, s2, s1, s2, s3))


def _conv2d(x, weights, bias, padding):
    """Stride-1 cross-correlation of ``x (N, C, H, W)`` with ``weights
    (P, C, fh, fw)`` plus ``bias (P,)`` under ``valid`` or ``same`` padding.

    Returns ``(y, bwd)``: ``y (N, P, Ho, Wo)`` and ``bwd(dy) -> (dx, dW, db)``.
    """
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
    ho = xp.shape[1] - fh + 1
    wo = xp.shape[2] - fw + 1
    k = fh * fw * c
    windows = _windows(xp, fh, fw)
    step = max(1, min(n, _IM2COL_BLOCK_BYTES // (8 * ho * wo * k)))
    blocks = [(s, min(n, s + step)) for s in range(0, n, step)]
    buf = np.empty((step, ho, wo, fh, fw, c))

    def cols(s, e):
        np.copyto(buf[:e - s], windows[s:e])
        return buf[:e - s].reshape((e - s) * ho * wo, k)

    w_mat = weights.transpose(0, 2, 3, 1).reshape(planes, k)
    y_nhwc = np.empty((n, ho, wo, planes))
    for s, e in blocks:
        yb = y_nhwc[s:e].reshape((e - s) * ho * wo, planes)
        np.matmul(cols(s, e), w_mat.T, out=yb)
        yb += bias

    def bwd(dy):
        dy_m = np.ascontiguousarray(dy.transpose(0, 2, 3, 1)).reshape(-1, planes)
        db = dy_m.sum(axis=0)
        if len(blocks) == 1:
            # buf still holds the forward's columns
            dw = dy_m.T @ buf.reshape(n * ho * wo, k)
        else:
            dw = np.zeros((planes, k))
            for s, e in blocks:
                dw += dy_m[s * ho * wo:e * ho * wo].T @ cols(s, e)
        dw = dw.reshape(planes, fh, fw, c).transpose(0, 3, 1, 2).copy()
        if ho * wo == 1:
            # the filter spans the padded map: one window per sample
            dxp = (dy_m @ w_mat).reshape(xp.shape)
        else:
            taps = weights.transpose(2, 3, 0, 1).copy()            # (fh, fw, P, C)
            dxp = np.zeros(xp.shape)
            dtap = np.empty((n * ho * wo, c))
            for u in range(fh):
                for v in range(fw):
                    np.matmul(dy_m, taps[u, v], out=dtap)
                    dxp[:, u:u + ho, v:v + wo] += dtap.reshape(n, ho, wo, c)
        dx = dxp[:, top:top + h, left:left + w].transpose(0, 3, 1, 2)
        return dx, dw, db

    return y_nhwc.transpose(0, 3, 1, 2), bwd


class Conv1D(Layer):
    """1D cross-correlation, stride 1, summed over input planes, plus bias.

    A length-L signal runs through :func:`_conv2d` as a 1×L image.
    """

    param_names = ("weights", "bias")

    def __init__(self, filter_len: int, planes: int, padding: str = "valid"):
        if filter_len < 1 or planes < 1:
            raise ContractError("filter_len and planes must be >= 1")
        if padding not in ("valid", "same"):
            raise ContractError(f"unknown padding {padding!r}")
        self.filter_len = filter_len
        self.planes = planes
        self.padding = padding
        self.in_planes = None
        self.weights = None  # (planes, in_planes, filter_len)
        self.bias = None     # (planes,)

    def wire(self, in_shape):
        if len(in_shape) != 2:
            raise ShapeError(f"Conv1D expects (planes, length) input, got {in_shape}")
        c, length = in_shape
        if self.padding == "valid" and self.filter_len > length:
            raise ShapeError(f"filter length {self.filter_len} exceeds input length {length}")
        self.in_planes = c
        out_len = length if self.padding == "same" else length - self.filter_len + 1
        return (self.planes, out_len)

    def init_params(self, rng):
        fan_in = self.in_planes * self.filter_len
        self.weights = _he_init(rng, (self.planes, self.in_planes, self.filter_len), fan_in)
        self.bias = np.zeros(self.planes)

    def weight_count(self):
        return self.planes * self.in_planes * self.filter_len

    def spec_line(self):
        pad = " same" if self.padding == "same" else ""
        return f"conv1d {self.filter_len} {self.planes}{pad}"

    def forward(self, x, mode="infer", tape=None):
        weights, bias = self.weights, self.bias
        y, bwd = _conv2d(x[:, :, None], weights[:, :, None], bias, self.padding)
        y = y[:, :, 0]
        if tape is not None:

            def bwd_1d(dy):
                dx, dw, db = bwd(dy[:, :, None])
                return dx[:, :, 0], dw[:, :, 0], db

            tape.record(y, (x, weights, bias), bwd_1d, "conv1d")
        return y


class Conv2D(Layer):
    """2D cross-correlation, stride 1, summed over input planes, plus bias."""

    param_names = ("weights", "bias")

    def __init__(self, filter_h: int, filter_w: int, planes: int, padding: str = "valid"):
        if filter_h < 1 or filter_w < 1 or planes < 1:
            raise ContractError("filter extents and planes must be >= 1")
        if padding not in ("valid", "same"):
            raise ContractError(f"unknown padding {padding!r}")
        self.filter_h = filter_h
        self.filter_w = filter_w
        self.planes = planes
        self.padding = padding
        self.in_planes = None
        self.weights = None  # (planes, in_planes, fh, fw)
        self.bias = None

    def wire(self, in_shape):
        if len(in_shape) != 3:
            raise ShapeError(f"Conv2D expects (planes, height, width) input, got {in_shape}")
        c, h, w = in_shape
        if self.padding == "valid" and (self.filter_h > h or self.filter_w > w):
            raise ShapeError(f"filter {self.filter_h}x{self.filter_w} exceeds input {h}x{w}")
        self.in_planes = c
        if self.padding == "same":
            return (self.planes, h, w)
        return (self.planes, h - self.filter_h + 1, w - self.filter_w + 1)

    def init_params(self, rng):
        fan_in = self.in_planes * self.filter_h * self.filter_w
        shape = (self.planes, self.in_planes, self.filter_h, self.filter_w)
        self.weights = _he_init(rng, shape, fan_in)
        self.bias = np.zeros(self.planes)

    def weight_count(self):
        return self.planes * self.in_planes * self.filter_h * self.filter_w

    def spec_line(self):
        pad = " same" if self.padding == "same" else ""
        return f"conv2d {self.filter_h}x{self.filter_w} {self.planes}{pad}"

    def forward(self, x, mode="infer", tape=None):
        y, bwd = _conv2d(x, self.weights, self.bias, self.padding)
        if tape is not None:
            tape.record(y, (x, self.weights, self.bias), bwd, "conv2d")
        return y


class MaxPool(Layer):
    """Non-overlapping max pooling over every spatial dimension.

    Spatial extents must be divisible by the window. Gradient flows to the
    first maximal position of each window in row-major order.
    """

    def __init__(self, window: int):
        if window < 1:
            raise ContractError("window must be >= 1")
        self.window = window

    def wire(self, in_shape):
        if len(in_shape) not in (2, 3):
            raise ShapeError(f"MaxPool expects spatial input, got {in_shape}")
        spatial = in_shape[1:]
        for ext in spatial:
            if ext % self.window != 0:
                raise ShapeError(f"extent {ext} not divisible by window {self.window}")
        return (in_shape[0],) + tuple(ext // self.window for ext in spatial)

    def spec_line(self):
        return f"maxpool {self.window}"

    def forward(self, x, mode="infer", tape=None):
        k = self.window
        outer = x.shape[:2] + tuple(ext // k for ext in x.shape[2:])
        d = x.ndim - 2
        # split every spatial axis into (blocks, k) and move the window axes
        # last in row-major order, so argmax ties resolve row-major
        split = x.reshape(outer[:2] + tuple(v for o in outer[2:] for v in (o, k)))
        order = (0, 1) + tuple(range(2, 2 + 2 * d, 2)) + tuple(range(3, 3 + 2 * d, 2))
        moved = split.transpose(order)
        win = moved.reshape(outer + (k ** d,))
        idx = win.argmax(axis=-1)
        y = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
        if tape is not None:

            def bwd(dy):
                dwin = np.zeros_like(win)
                np.put_along_axis(dwin, idx[..., None], dy[..., None], axis=-1)
                dx = dwin.reshape(moved.shape).transpose(np.argsort(order)).reshape(x.shape)
                return (dx,)

            tape.record(y, (x,), bwd, "maxpool")
        return y


class BatchNorm(Layer):
    """Per-plane batch normalization with learnable scale and shift.

    Training normalizes by batch statistics and updates running statistics by
    an exponential moving average; inference uses the running statistics.
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

    def spec_line(self):
        return "batchnorm"

    def _param_shape(self, ndim):
        return (1, self.planes) + (1,) * (ndim - 2)

    def forward(self, x, mode="infer", tape=None):
        axes = (0,) + tuple(range(2, x.ndim))
        pshape = self._param_shape(x.ndim)
        gamma = self.scale.reshape(pshape)
        beta = self.shift.reshape(pshape)

        if mode == "train":
            if x.shape[0] < 2:
                raise ContractError("batch normalization needs batch size >= 2 in training")
            mu = x.mean(axis=axes, keepdims=True)
            var = x.var(axis=axes, keepdims=True)
            inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
            xhat = (x - mu) * inv_std
            y = gamma * xhat + beta
            self.running_mean *= BN_MOMENTUM
            self.running_mean += (1.0 - BN_MOMENTUM) * mu.reshape(-1)
            self.running_var *= BN_MOMENTUM
            self.running_var += (1.0 - BN_MOMENTUM) * var.reshape(-1)

            if tape is not None:
                m = x.size // self.planes
                scale, shift = self.scale, self.shift

                def bwd(dy):
                    dgamma = (dy * xhat).sum(axis=axes).reshape(-1)
                    dbeta = dy.sum(axis=axes).reshape(-1)
                    dxhat = dy * gamma
                    dx = (inv_std / m) * (
                        m * dxhat
                        - dxhat.sum(axis=axes, keepdims=True)
                        - xhat * (dxhat * xhat).sum(axis=axes, keepdims=True)
                    )
                    return dx, dgamma, dbeta

                tape.record(y, (x, scale, shift), bwd, "batchnorm")
            return y

        # the running statistics fold into one per-plane affine map y = x*a + b
        inv_std = (1.0 / np.sqrt(self.running_var + BN_EPSILON)).reshape(pshape)
        a = gamma * inv_std
        mean = self.running_mean.reshape(pshape).copy()
        y = x * a
        y += beta - mean * a
        if tape is not None:

            def bwd(dy):
                xhat = (x - mean) * inv_std
                dgamma = (dy * xhat).sum(axis=axes).reshape(-1)
                dbeta = dy.sum(axis=axes).reshape(-1)
                return dy * a, dgamma, dbeta

            tape.record(y, (x, self.scale, self.shift), bwd, "batchnorm")
        return y


class Dropout(Layer):
    """Inverted dropout: zero with probability ``rate`` in training, scale
    survivors by 1/(1-rate); identity at inference. Masks come from seed 0
    until :meth:`reseed`; ``fit`` reseeds every Dropout from the run seed."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = np.random.default_rng(0)

    def reseed(self, seed):
        self.rng = np.random.default_rng(seed)

    def wire(self, in_shape):
        return tuple(in_shape)

    def spec_line(self):
        return f"dropout {self.rate}"

    def forward(self, x, mode="infer", tape=None):
        if mode != "train" or self.rate == 0.0:
            # identity: the next entry is called on x itself, so the chain
            # needs no record here
            return x
        keep = 1.0 - self.rate
        mask = (self.rng.random(x.shape) >= self.rate) / keep
        y = x * mask
        if tape is not None:
            tape.record(y, (x,), lambda g: (g * mask,), "dropout")
        return y


class ReLU(Layer):
    """Elementwise max(0, x); gradient is 1 where x > 0, else 0."""

    def wire(self, in_shape):
        return tuple(in_shape)

    def spec_line(self):
        return "relu"

    def forward(self, x, mode="infer", tape=None):
        y = np.maximum(x, 0.0)
        if tape is not None:
            gate = (x > 0).astype(np.float64)
            tape.record(y, (x,), lambda g: (g * gate,), "relu")
        return y


class Flatten(Layer):
    """Row-major linearization of each sample."""

    def wire(self, in_shape):
        return (int(np.prod(in_shape)),)

    def spec_line(self):
        return "flatten"

    def forward(self, x, mode="infer", tape=None):
        y = x.reshape(x.shape[0], -1)
        if tape is not None:
            tape.record(y, (x,), lambda g: (g.reshape(x.shape),), "flatten")
        return y


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

    def forward(self, x, mode="infer", tape=None):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"Dense expects (N, {self.in_dim}), got {x.shape}")
        weights, bias = self.weights, self.bias
        y = x @ weights.T + bias
        if tape is not None:
            def bwd(dy):
                return dy @ weights, dy.T @ x, dy.sum(axis=0)

            tape.record(y, (x, weights, bias), bwd, "dense")
        return y


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

    def reseed_dropout(self, seed: int):
        for i, layer in enumerate(self.layers):
            if isinstance(layer, Dropout):
                layer.reseed((seed, i))

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
