"""Machine-speed calibration for the gated times.

The machine this benchmark was tuned on (a 2-core Xeon VM) switches between a
fast mode and one up to 60% slower, for seconds to many minutes at a time;
process CPU time slows down with it, so timing CPU instead of wall time does
not help. A run therefore interleaves a fixed *calibration kernel* with the
workload. The kernel is the benchmark's own code, independent of the package:
a miniature of the workload's hot path (the same numpy calls on arrays of a
similar size, the same kind of Python loop), so that the two slow down
together. Every gated time is scaled by ``reference_ms / kernel time nearby``:
it reads as the time on a machine where the kernel takes ``reference_ms``.

A change to the package moves the workload's times but not the kernel's.
"""

import bisect
import time
from statistics import median

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SHARE = 0.05     # calibration time as a share of the measured time
NEAREST = 7      # kernel samples that scale one measured interval


def _conv(x, w, backward):
    """Valid 2D im2col convolution, optionally with its backward scatter."""
    n, c, h, wd = x.shape
    planes, _, fh, fw = w.shape
    ho, wo = h - fh + 1, wd - fw + 1
    cols = (sliding_window_view(x, (fh, fw), axis=(2, 3))
            .transpose(0, 2, 3, 1, 4, 5).reshape(n * ho * wo, c * fh * fw))
    w_mat = w.reshape(planes, -1)
    y = (cols @ w_mat.T).reshape(n, ho, wo, planes).transpose(0, 3, 1, 2)
    if backward:
        dy_m = y.transpose(0, 2, 3, 1).reshape(n * ho * wo, planes)
        dy_m.T @ cols
        dcols = (dy_m @ w_mat).reshape(n, ho, wo, c, fh, fw)
        dx = np.zeros_like(x)
        for u in range(fh):
            for v in range(fw):
                dx[:, :, u:u + ho, v:v + wo] += dcols[:, :, :, :, u, v].transpose(0, 3, 1, 2)
    return y


def _tiny_steps(rng, steps):
    """Many tiny conv1d-like training steps: numpy call overhead and a Python SGD loop."""
    x = rng.random((8, 1, 1, 4))
    ws = [rng.random((10, 1, 1, 2)), rng.random((10, 10, 1, 2)), rng.random((10, 10, 1, 2))]
    velocity = [np.zeros_like(w) for w in ws]

    def kernel():
        for _ in range(steps):
            h = x
            for w in ws:
                h = np.maximum(_conv(np.pad(h, ((0, 0), (0, 0), (0, 0), (0, 1))), w, True), 0.0)
            loss = float(np.mean((h.reshape(8, -1)[:, :8] - 0.5) ** 2))
            for w, v in zip(ws, velocity):
                v *= 0.9
                v += loss * 1e-6
                w -= 1e-6 * v
    return kernel


def _conv2d(rng, n, backward):
    """One mnist.spec-sized conv2d layer (7x7, 20 planes) plus batch statistics."""
    x = rng.random((n, 20, 22, 22))
    w = rng.random((20, 20, 7, 7))

    def kernel():
        y = _conv(x, w, backward)
        mean = y.mean(axis=(0, 2, 3), keepdims=True)
        ((y - mean) ** 2).mean(axis=(0, 2, 3))
    return kernel


def _signals(rng):
    """A mid-size conv1d step plus writing and parsing a few CSV rows of floats."""
    x = rng.random((16, 16, 1, 128))
    w = rng.random((16, 16, 1, 9))
    rows = rng.random((12, 128))
    tiny = _tiny_steps(rng, 4)

    def kernel():
        _conv(x, w, True)
        tiny()
        text = "\n".join(",".join(f"{v:.6f}" for v in row) for row in rows)
        np.array([[float(v) for v in line.split(",")] for line in text.splitlines()])
    return kernel


# workload -> (kernel factory, reference_ms). reference_ms is a fixed scale:
# about the kernel's median time on the machine the benchmark was tuned on
# (2-core Intel Xeon VM, numpy 2.4.6, OpenBLAS 0.3.31 on one thread).
KERNELS = {
    "iris-trials": (lambda rng: _tiny_steps(rng, 12), 5.0),
    "mnist-train": (lambda rng: _conv2d(rng, 4, True), 13.0),
    "mnist-infer": (lambda rng: _conv2d(rng, 8, False), 8.5),
    "signal-cli": (_signals, 8.0),
}


class Calibrator:
    """Runs the workload's kernel between operations and scales measured times."""

    def __init__(self, workload, enabled=True):
        factory, self.reference_ms = KERNELS[workload]
        self.kernel = factory(np.random.default_rng(0))   # the same inputs in every run
        self.enabled = enabled
        self.times = []     # midpoints of kernel runs (perf_counter seconds)
        self.ms = []        # their durations
        self.spent_s = 0.0
        self._last = time.perf_counter()

    def run(self, count=1):
        """Run the kernel ``count`` times; return the seconds it took."""
        start = time.perf_counter()
        for _ in range(count):
            t0 = time.perf_counter()
            self.kernel()
            t1 = time.perf_counter()
            self.times.append((t0 + t1) / 2)
            self.ms.append((t1 - t0) * 1e3)
        self._last = time.perf_counter()
        self.spent_s += self._last - start
        return self._last - start

    def tick(self):
        """Between operations: run the kernel for ``SHARE`` of the time since the last run."""
        if not self.enabled:
            return 0.0
        now = time.perf_counter()
        typical = self.ms[-1] / 1e3 if self.ms else 0.0
        if (now - self._last) * SHARE < typical:
            return 0.0
        return self.run(max(1, round((now - self._last) * SHARE / typical)) if typical else 1)

    def scale(self, t0, t1):
        """``reference_ms`` / the median kernel time over ``[t0, t1]``.

        The samples are those run inside the interval, or the ``NEAREST`` to
        its midpoint when fewer ran inside it.
        """
        lo, hi = bisect.bisect(self.times, t0), bisect.bisect(self.times, t1)
        if hi - lo < NEAREST:
            mid = bisect.bisect(self.times, (t0 + t1) / 2)
            lo = max(0, min(mid - NEAREST // 2, len(self.times) - NEAREST))
            hi = lo + NEAREST
        return self.reference_ms / median(self.ms[lo:hi])
