"""Outside-in tracing of the divfe layers.

The tracer wraps the package's public functions and layer methods from the
benchmark's side and changes nothing under ``src/``. Several modules import
functions by name (``trainer`` imports ``backward``; ``cli`` imports ``fit``,
``evaluate``, ``load_checkpoint`` and ``grow_layers``), so every wrapper is
bound at each name through which the program looks the function up.

Each wrapped call records a span ``[name, start_ns, end_ns, parent, run, pos]``
where ``parent`` is the index of the enclosing span, ``run`` identifies the
set-up or round being traced and ``pos`` is the layer's position in its model
(``None`` outside a layer). Spans stay in memory and are written out once, at
exit. Counts (tape entries, convolution FLOPs, im2col bytes, ...) are taken
at the same boundaries.
"""

import gzip
import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import divfe
from divfe import augment, checkpoint, cli, data_io, divergence, layers, mdn, modelspec, numerics, trainer

from stats import union_length

LAYER_CLASSES = tuple(layers.Layer.__subclasses__())

# (span name, original function, namespaces that bind it by name)
_FUNCTIONS = (
    ("numerics.backward", numerics.backward, (numerics, trainer)),
    ("trainer.fit", trainer.fit, (trainer, cli, divfe)),
    ("trainer.evaluate", trainer.evaluate, (trainer, cli, divfe)),
    ("trainer.run_trials", trainer.run_trials, (trainer, divfe)),
    ("trainer.grow_layers", trainer.grow_layers, (trainer, cli, divfe)),
    ("layers.mse.fwd", layers.mse_loss, (layers, trainer, divfe)),
    ("mdn.classify_batch", mdn.classify_batch, (mdn, divfe)),
    ("divergence.analyze", divergence.analyze, (divergence, divfe)),
    ("checkpoint.save", checkpoint.save_checkpoint, (checkpoint, cli)),
    ("checkpoint.load", checkpoint.load_checkpoint, (checkpoint, cli)),
    ("modelspec.load", modelspec.load_model_spec, (modelspec, cli)),
    ("data_io.load", data_io.load_iris, (data_io, cli)),
    ("data_io.load", data_io.load_signals_csv, (data_io, cli)),
    ("data_io.split", data_io.split, (data_io, trainer, cli, divfe)),
    ("data_io.save_csv", data_io.save_signals_csv, (data_io, cli)),
    ("augment.expand", augment.expand_training_set, (augment, trainer, cli, divfe)),
    ("cli.main", cli.main, (cli,)),
)


def _conv_geometry(layer, y):
    """(forward FLOPs, im2col bytes) of one convolution call, computed."""
    taps = layer.weights[0].size                     # in_planes * filter extent
    rows = y.shape[0] * math.prod(y.shape[2:])       # batch * output positions
    return 2 * rows * taps * layer.planes, rows * taps * 8


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.run = 0
        self._open = []          # indices of spans not yet closed
        self._layer_pos = []     # positions of the layers now in forward
        self._positions = {}     # id(layer) -> position in its model
        self._registered = {}    # id(model) -> the layer list whose positions are known
        self._saved = []         # (namespace, attribute, original) while installed
        self.geometry = {}       # (position, weight shape, padding) ->
        #                          (spec line, FLOPs, im2col bytes) per sample
        self.fits = []           # (run, epochs_run, best_epoch) of every traced fit

    # -- spans ---------------------------------------------------------------

    def open(self, name, pos=None):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.run, pos])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index):
        self.spans[index][2] = time.perf_counter_ns()
        self._open.pop()

    def _timed(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            i = self.open(name, self._layer_pos[-1] if self._layer_pos else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if after is not None:
                after(out, args, kwargs)
            return out
        return wrapper

    # -- installation --------------------------------------------------------

    def _set(self, namespace, attr, value):
        self._saved.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    @contextmanager
    def installed(self, run):
        """Wrap every traced entry point for the duration of one set-up or round."""
        self.run = run
        hooks = {
            "trainer.fit": self._after_fit,
            "trainer.grow_layers": self._after_grow,
            "mdn.classify_batch": self._after_classify,
            "checkpoint.save": self._after_save,
            "augment.expand": self._after_expand,
        }
        try:
            for name, fn, namespaces in _FUNCTIONS:
                wrapped = (self._cli_main(fn) if name == "cli.main"
                           else self._timed(name, fn, hooks.get(name)))
                for ns in namespaces:
                    self._set(ns, fn.__name__, wrapped)
            for cls in LAYER_CLASSES:
                self._set(cls, "forward", self._layer_forward(cls))
            self._set(layers.FeatureExtractor, "forward", self._model_forward())
            self._set(numerics.GradientTape, "record", self._tape_record())
            yield self
        finally:
            while self._saved:
                namespace, attr, original = self._saved.pop()
                setattr(namespace, attr, original)

    # -- wrappers with bookkeeping -------------------------------------------

    def _cli_main(self, fn):
        def main(argv=None):
            i = self.open(f"cli.{argv[0]}" if argv else "cli.main")
            try:
                return fn(argv)
            finally:
                self.close(i)
        return main

    def _model_forward(self):
        original = layers.FeatureExtractor.forward
        positions, registered, counts = self._positions, self._registered, self.counts

        def forward(model, x, mode="infer", tape=None):
            if registered.get(id(model)) is not model.layers:
                registered[id(model)] = model.layers
                for i, layer in enumerate(model.layers):
                    positions[id(layer)] = i
            if tape is None:
                counts["model.infer_batches"] += 1
            return original(model, x, mode=mode, tape=tape)
        return forward

    def _layer_forward(self, cls):
        original = cls.forward
        kind = cls.__name__.lower()
        name = f"layers.{kind}.fwd"
        is_conv = cls in (layers.Conv1D, layers.Conv2D)
        train_key, infer_key = f"layers.{kind}.train_flops", f"layers.{kind}.infer_flops"
        peak_key = f"layers.{kind}.im2col_bytes_peak"
        counts, positions, layer_pos, geometry = (self.counts, self._positions,
                                                  self._layer_pos, self.geometry)

        def forward(layer, x, mode="infer", tape=None):
            pos = positions.get(id(layer))
            i = self.open(name, pos)
            layer_pos.append(pos)
            try:
                y = original(layer, x, mode=mode, tape=tape)
            finally:
                layer_pos.pop()
                self.close(i)
            if is_conv:
                flops, cols = _conv_geometry(layer, y)
                if tape is None:
                    counts[infer_key] += flops
                else:   # backward does two GEMMs of the forward's size: dW and dcols
                    counts[train_key] += 3 * flops
                if cols > counts[peak_key]:
                    counts[peak_key] = cols
                key = (pos, layer.weights.shape, layer.padding)
                if key not in geometry:
                    geometry[key] = (layer.spec_line(), flops / len(x), cols / len(x))
            return y
        return forward

    def _tape_record(self):
        original = numerics.GradientTape.record

        layer_pos, counts = self._layer_pos, self.counts

        def record(tape, output, inputs, backward_fn, name=""):
            span = "layers." + name + ".bwd"
            pos = layer_pos[-1] if layer_pos else None

            def timed_backward(upstream):
                i = self.open(span, pos)
                try:
                    return backward_fn(upstream)
                finally:
                    self.close(i)

            counts["numerics.tape_entries"] += 1
            return original(tape, output, inputs, timed_backward, name)
        return record

    def _after_fit(self, report, args, kwargs):
        self.fits.append((self.run, report.epochs_run, report.best_epoch))
        self.counts["trainer.epochs"] += report.epochs_run
        self.counts["trainer.best_epochs"] += report.best_epoch

    def _after_grow(self, result, args, kwargs):
        self.counts["trainer.grow.calls"] += 1
        self.counts["trainer.grow.depths"] += len(result[1].growth_history)

    def _after_classify(self, pred, args, kwargs):
        outputs, codebook = args[0], args[1]
        diff = np.asarray(outputs)[:, None, :] - codebook.targets()[None, :, :]
        d = np.einsum("nkj,nkj->nk", diff, diff)
        self.counts["mdn.ties"] += int(np.sum(np.sum(d == d.min(axis=1, keepdims=True), axis=1) > 1))

    def _after_save(self, out, args, kwargs):
        path = args[2] if len(args) > 2 else kwargs["path"]
        self.counts["checkpoint.bytes"] = os.path.getsize(path)

    def _after_expand(self, out, args, kwargs):
        self.counts["augment.variants"] += len(out) - len(args[0])

    # -- reduction -----------------------------------------------------------

    def write(self, path):
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\trun\tpos\n")
            fh.writelines(f"{n}\t{s}\t{e}\t{'' if p is None else p}\t{r}\t{'' if q is None else q}\n"
                          for n, s, e, p, r, q in self.spans)


def span_totals(spans, weights):
    """Per-name and per-(name, position) total and self time in ms, and calls.

    ``weights`` maps a run id to the factor its spans count with, so that a
    set-up counts once and each of n rounds counts 1/n. A span's self time is
    its duration minus the part of its interval that its child spans cover.
    """
    children = defaultdict(list)
    for name, start, end, parent, run, pos in spans:
        if parent is not None:
            children[parent].append((start, end))
    total, self_time, calls = defaultdict(float), defaultdict(float), defaultdict(float)
    for i, (name, start, end, parent, run, pos) in enumerate(spans):
        w = weights.get(run, 0.0)
        duration = (end - start) / 1e6
        own = duration - union_length(children.get(i, ()), start, end) / 1e6
        for key in (name, (name, pos)):
            total[key] += w * duration
            self_time[key] += w * own
            calls[key] += w
    return total, self_time, calls


def layer_metrics(tracer, weights, rounds):
    """Every per-layer metric the spans and counts support, as name -> (value, unit).

    Times and calls are per set-up plus per round (see :func:`span_totals`);
    counts taken inside rounds are divided by ``rounds``.
    """
    total, self_time, calls = span_totals(tracer.spans, weights)
    c = tracer.counts
    m = {}
    for kind in ("conv1d", "conv2d", "batchnorm", "relu", "dense", "flatten", "mse"):
        m[f"layers.{kind}.fwd_ms"] = (total[f"layers.{kind}.fwd"], "ms")
        m[f"layers.{kind}.bwd_ms"] = (total[f"layers.{kind}.bwd"], "ms")
        m[f"layers.{kind}.calls"] = (calls[f"layers.{kind}.fwd"], "count")
    for key, value in total.items():
        if isinstance(key, tuple) and key[1] is not None and key[0].startswith("layers."):
            _, kind, direction = key[0].split(".")
            m[f"layers.{key[1]}.{kind}.{direction}_ms"] = (value, "ms")

    steps = calls["numerics.backward"]
    for kind in ("conv1d", "conv2d"):
        train, infer = c[f"layers.{kind}.train_flops"], c[f"layers.{kind}.infer_flops"]
        per_step = (train / steps / rounds if steps
                    else infer / c["model.infer_batches"] if c["model.infer_batches"] else 0.0)
        busy_ms = total[f"layers.{kind}.fwd"] + total[f"layers.{kind}.bwd"]
        m[f"layers.{kind}.gflop_per_step"] = (per_step / 1e9, "GFLOP")
        m[f"layers.{kind}.gflops"] = ((train + infer) / rounds / 1e6 / busy_ms if busy_ms else 0.0,
                                      "GFLOP/s")
        m[f"layers.{kind}.im2col_mb_peak"] = (c[f"layers.{kind}.im2col_bytes_peak"] / 2 ** 20, "MiB")

    m["numerics.backward_ms"] = (total["numerics.backward"], "ms")
    m["numerics.backward.self_ms"] = (self_time["numerics.backward"], "ms")
    m["numerics.tape_entries_per_step"] = (
        c["numerics.tape_entries"] / rounds / steps if steps else 0.0, "count")

    m["trainer.fit_ms"] = (total["trainer.fit"], "ms")
    m["trainer.fit.self_ms"] = (self_time["trainer.fit"], "ms")
    m["trainer.evaluate_ms"] = (total["trainer.evaluate"], "ms")
    m["trainer.steps"] = (steps, "count")
    m["trainer.epochs"] = (c["trainer.epochs"] / rounds, "count")
    m["trainer.useful_epoch_ratio"] = (
        c["trainer.best_epochs"] / c["trainer.epochs"] if c["trainer.epochs"] else 0.0, "ratio")
    m["trainer.grow.useful_fit_ratio"] = (
        c["trainer.grow.calls"] / c["trainer.grow.depths"] if c["trainer.grow.depths"] else 0.0,
        "ratio")

    m["mdn.classify_batch_ms"] = (total["mdn.classify_batch"], "ms")
    m["mdn.ties"] = (c["mdn.ties"] / rounds, "count")
    m["divergence.analyze_ms"] = (total["divergence.analyze"], "ms")
    m["checkpoint.save_ms"] = (total["checkpoint.save"], "ms")
    m["checkpoint.load_ms"] = (total["checkpoint.load"], "ms")
    m["checkpoint.bytes"] = (c["checkpoint.bytes"], "bytes")
    m["modelspec.load_ms"] = (total["modelspec.load"], "ms")
    m["data_io.load_ms"] = (total["data_io.load"], "ms")
    m["data_io.split_ms"] = (total["data_io.split"], "ms")
    m["data_io.save_csv_ms"] = (total["data_io.save_csv"], "ms")
    m["augment.expand_ms"] = (total["augment.expand"], "ms")
    m["augment.variants"] = (c["augment.variants"] / rounds, "count")
    for cmd in ("augment", "grow", "eval", "divergence"):
        m[f"cli.{cmd}_ms"] = (total[f"cli.{cmd}"], "ms")
    return m, calls
