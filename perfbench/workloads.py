"""The four benchmark workloads.

Every workload makes its inputs from the workload seed in ``setup`` and then
runs *rounds*: fixed units of work that end in a checkable result. Each
round repeats the same work on the same inputs, so its results must be
bit-identical to the first round's. A round is timed per *operation* (a
training epoch, one 256-image ``evaluate`` call, one CLI chain); between
operations the calibration kernel may run (``cal.tick()``), outside every
timed operation. ``check`` then verifies the round's outputs outside the
timed region.

The package is driven only through its public functions, always looked up
as module attributes at call time so that the tracer's wrappers apply.
"""

import csv
import hashlib
import io
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from divfe import checkpoint, cli, data_io, divergence, mdn, modelspec, trainer, walsh

CRITERION5_SEED = 1          # the iris reproduction's seed (acceptance criterion 5)
CRITERION5_GATE = 29 / 30    # its required median test accuracy
BATCH_ROUNDING = dict(rtol=1e-9, atol=1e-9)   # batched vs per-sample inference


@dataclass
class Round:
    op_spans: list = field(default_factory=list)   # (start, end) of operations that finished
    ops: int = 0                                   # unit operations attempted
    ops_failed: int = 0
    samples: int = 0        # sample-epochs trained, or images inferred
    busy_s: float = 0.0     # time inside fit (training) or evaluate (inference)
    accuracy: float | None = None
    digest: str = ""
    span: tuple = (0.0, 0.0)   # (start, end) of the round
    wall_s: float = 0.0        # the round's time, less the calibration run inside it
    traced: bool = False
    checks: list = field(default_factory=list)   # (name, ok, detail)
    extra: dict = field(default_factory=dict)

    @property
    def op_ms(self):
        return [(end - start) * 1e3 for start, end in self.op_spans]


def state_digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


class EpochClock:
    """Epoch spans taken from the gaps between calls of fit's ``log`` callback.

    The calibration kernel runs inside the callback, after an epoch's end is
    taken and before the next epoch's start; ``cal_s`` is the time it took.
    """

    def __init__(self, cal):
        self.cal = cal
        self.epoch_spans = []
        self.losses = []
        self.fit_s = 0.0
        self.cal_s = 0.0

    def log(self):
        last = [time.perf_counter()]

        def log(epoch, train_loss, val_loss, val_accuracy):
            self.epoch_spans.append((last[0], time.perf_counter()))
            self.losses.append((train_loss, val_loss))
            self.cal_s += self.cal.tick()
            last[0] = time.perf_counter()
        return log

    @contextmanager
    def rebinding_fit(self):
        """``run_trials`` takes no ``log``: rebind ``trainer.fit`` to a shim adding one."""
        original = trainer.fit

        def fit(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, log=self.log(), **kwargs)
            finally:
                self.fit_s += time.perf_counter() - start
        trainer.fit = fit
        try:
            yield self
        finally:
            trainer.fit = original


class Workload:
    name = ""
    op = ""
    training = False
    expected_spans = ()
    setup_checks = ()

    def __init__(self, seed, root, workdir, cal, tiny=False):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.cal = cal
        self.tiny = tiny
        self.first_digest = None

    def checks(self, r):
        """Workload checks, then the determinism check against the first round."""
        out = list(self._checks(r))
        if self.first_digest is None:
            self.first_digest = r.digest
        else:
            out.append(("same-seed round is bit-identical", r.digest == self.first_digest,
                        f"{r.digest} vs {self.first_digest}"))
        return out

    def _checks(self, r):
        return ()


def _finite_losses(losses):
    return bool(losses) and all(np.isfinite(a) and np.isfinite(b) for a, b in losses)


class IrisTrials(Workload):
    """Criterion 5: five seeded iris trials of ``specs/iris.spec``."""

    name = "iris-trials"
    op = "epoch"
    training = True
    expected_spans = ("trainer.run_trials", "trainer.fit", "trainer.evaluate", "numerics.backward",
                      "layers.conv1d.fwd", "layers.conv1d.bwd", "layers.relu.fwd",
                      "layers.relu.bwd", "layers.flatten.fwd", "layers.dense.fwd",
                      "layers.dense.bwd", "layers.mse.fwd", "layers.mse.bwd",
                      "mdn.classify_batch", "modelspec.load", "data_io.split", "data_io.load")

    def setup(self):
        self.dataset = data_io.load_iris(self.root / "data" / "iris.csv")
        self.spec_path = self.root / "specs" / "iris.spec"
        rank = modelspec.load_model_spec(self.spec_path).rank
        self.codebook = walsh.make_codebook(self.dataset.class_count, rank)
        self.trials = 2 if self.tiny else 5
        self.config = trainer.TrainConfig(learning_rate=0.015, momentum=0.9, batch_size=8,
                                          max_epochs=3 if self.tiny else 600, patience=80,
                                          seed=self.seed)
        self.split = data_io.SplitSpec(0.8, 0.1, seed=self.seed)
        self.train_size = len(data_io.split(self.dataset, self.split)[0])

    def run_round(self):
        models = []

        def factory():
            models.append(modelspec.load_model_spec(self.spec_path))
            return models[-1]

        clock = EpochClock(self.cal)
        with clock.rebinding_fit():
            result = trainer.run_trials(factory, self.dataset, self.split, self.codebook,
                                        self.config, n_trials=self.trials,
                                        normalizer_factory=data_io.Standardizer.fit)
        epochs = sum(rep.epochs_run for rep in result.reports)
        return Round(op_spans=clock.epoch_spans, ops=epochs, samples=epochs * self.train_size,
                     busy_s=clock.fit_s - clock.cal_s, accuracy=float(np.median(result.accuracies)),
                     digest=state_digest(a for m in models for a in m.state_arrays),
                     extra={"losses": clock.losses})

    def _checks(self, r):
        yield "losses finite", _finite_losses(r.extra["losses"]), f"{len(r.extra['losses'])} epochs"
        if self.seed == CRITERION5_SEED and not self.tiny:
            yield ("criterion-5 median accuracy >= 29/30", r.accuracy >= CRITERION5_GATE,
                   f"median {r.accuracy:.4f}")


def synthetic_digits(rng, prototypes, n):
    """28x28 images in [0, 1]: the class prototype plus uniform noise, classes cycling."""
    labels = np.arange(n) % len(prototypes)
    images = np.clip(0.6 * prototypes[labels] + 0.4 * rng.random((n, 28, 28)), 0.0, 1.0)
    return data_io.LabeledDataset(samples=images, labels=labels, class_count=len(prototypes))


def _digit_prototypes(rng):
    return rng.random((10, 28, 28))


class MnistTrain(Workload):
    """``specs/mnist.spec`` trained for a fixed number of epochs on synthetic digits."""

    name = "mnist-train"
    op = "epoch"
    training = True
    expected_spans = ("trainer.fit", "trainer.evaluate", "numerics.backward",
                      "layers.conv2d.fwd", "layers.conv2d.bwd", "layers.batchnorm.fwd",
                      "layers.batchnorm.bwd", "layers.relu.fwd", "layers.relu.bwd",
                      "layers.flatten.fwd", "layers.mse.fwd", "layers.mse.bwd",
                      "mdn.classify_batch", "modelspec.load")

    def setup(self):
        rng = np.random.default_rng([self.seed, 0])
        prototypes = _digit_prototypes(rng)
        n_train, n_val, epochs = (64, 8, 3) if self.tiny else (96, 32, 4)
        self.train_set = synthetic_digits(rng, prototypes, n_train)
        self.val_set = synthetic_digits(rng, prototypes, n_val)
        self.model = modelspec.load_model_spec(self.root / "specs" / "mnist.spec")
        self.codebook = walsh.make_codebook(10, self.model.rank)
        # patience == max_epochs: early stopping never shortens a round
        self.config = trainer.TrainConfig(learning_rate=0.005, momentum=0.9, batch_size=32,
                                          max_epochs=epochs, patience=epochs, seed=self.seed)

    def run_round(self):
        self.model.initialize(trainer.derive_rng(self.seed, 0, trainer.STREAM_INIT))
        clock = EpochClock(self.cal)
        start = time.perf_counter()
        report = trainer.fit(self.model, self.train_set, self.val_set, self.codebook,
                             self.config, log=clock.log())
        fit_s = time.perf_counter() - start - clock.cal_s
        return Round(op_spans=clock.epoch_spans, ops=report.epochs_run,
                     samples=report.epochs_run * len(self.train_set), busy_s=fit_s,
                     accuracy=report.val_accuracy[report.best_epoch - 1],
                     digest=state_digest(self.model.state_arrays),
                     extra={"losses": clock.losses, "train_loss": report.train_loss})

    def _checks(self, r):
        loss = r.extra["train_loss"]
        yield "losses finite", _finite_losses(r.extra["losses"]), f"{len(loss)} epochs"
        yield "last epoch's loss below first", loss[-1] < loss[0], f"{loss[0]:.4g} -> {loss[-1]:.4g}"


class MnistInfer(Workload):
    """Batched inference of a checkpointed ``specs/mnist.spec``, then MDN and divergence."""

    name = "mnist-infer"
    op = "batch"
    expected_spans = ("trainer.evaluate", "layers.conv2d.fwd", "layers.batchnorm.fwd",
                      "layers.relu.fwd", "layers.flatten.fwd", "mdn.classify_batch",
                      "divergence.analyze", "checkpoint.save", "checkpoint.load",
                      "modelspec.load")

    def setup(self):
        rng = np.random.default_rng([self.seed, 1])
        prototypes = _digit_prototypes(rng)
        batches, batch = (2, 16) if self.tiny else (4, 256)
        self.images = synthetic_digits(rng, prototypes, batches * batch)
        self.batches = [self.images.subset(np.arange(i, i + batch))
                        for i in range(0, len(self.images), batch)]
        model = modelspec.load_model_spec(self.root / "specs" / "mnist.spec")
        model.initialize(trainer.derive_rng(self.seed, 0, trainer.STREAM_INIT))
        self.codebook = walsh.make_codebook(10, model.rank)
        path = self.workdir / "infer.divf"
        checkpoint.save_checkpoint(model, self.codebook, path)
        self.model, codebook, _ = checkpoint.load_checkpoint(path)
        again = self.workdir / "infer-again.divf"
        checkpoint.save_checkpoint(self.model, codebook, again)
        self.setup_checks = [(
            "checkpoint round trip is bit-exact",
            state_digest(model.state_arrays) == state_digest(self.model.state_arrays)
            and model.spec_lines() == self.model.spec_lines()
            and codebook.class_rows == self.codebook.class_rows
            and path.read_bytes() == again.read_bytes(),
            str(path.stat().st_size) + " bytes")]
        self.outputs = []
        self.model.forward = self._capturing_forward

    def _capturing_forward(self, x, mode="infer", tape=None):
        out = type(self.model).forward(self.model, x, mode=mode, tape=tape)
        self.outputs.append(out)
        return out

    def run_round(self):
        self.outputs.clear()
        r = Round()
        correct = 0
        for batch in self.batches:
            r.ops += 1
            start = time.perf_counter()
            result = trainer.evaluate(self.model, batch, self.codebook)
            r.op_spans.append((start, time.perf_counter()))
            correct += int(round(result.accuracy * len(batch)))
            self.cal.tick()
        r.busy_s = sum(r.op_ms) / 1e3
        r.samples = len(self.images)
        outputs = np.concatenate(self.outputs)
        labels = self.images.labels
        pred = mdn.classify_batch(outputs, self.codebook)
        paper = divergence.analyze(outputs, labels, self.codebook, mode="paper")
        empirical = divergence.analyze(outputs, labels, self.codebook, mode="empirical")
        r.digest = state_digest([outputs, pred])
        r.extra = {"outputs": outputs, "pred": pred, "evaluate_correct": correct,
                   "divergence": (paper.divergence, empirical.divergence)}
        return r

    def _checks(self, r):
        outputs, pred = r.extra["outputs"], r.extra["pred"]
        # independent oracle: squared distances class by class; argmin keeps the lowest index
        d = np.stack([np.sum((outputs - t) ** 2, axis=1) for t in self.codebook.targets()], axis=1)
        oracle = np.argmin(d, axis=1)
        yield "MDN predictions equal the argmin oracle", bool(np.array_equal(pred, oracle)), \
            f"{int(np.sum(pred != oracle))} differ"
        hits = int(np.sum(pred == self.images.labels))
        yield "evaluate agrees with classify_batch", hits == r.extra["evaluate_correct"], \
            f"{r.extra['evaluate_correct']} vs {hits}"
        picks = np.random.default_rng([self.seed, 2]).choice(len(outputs), 2, replace=False)
        single = np.concatenate([type(self.model).forward(self.model, self.images.samples[i:i + 1])
                                 for i in picks])
        yield "batched inference equals per-sample", \
            bool(np.allclose(single, outputs[picks], **BATCH_ROUNDING)), \
            f"max |diff| {np.max(np.abs(single - outputs[picks])):.3g}"
        yield "divergence finite and positive", all(np.isfinite(v) and v > 0 for v in r.extra["divergence"]), \
            str(r.extra["divergence"])


def _write_signals(path, rng, classes, per_class, length):
    """Sinusoid classes (class k: k + 2 cycles per window), random phase, plus noise."""
    t = np.arange(length) / length
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for i in range(classes * per_class):
            k = i % classes
            signal = (np.sin(2 * np.pi * (k + 2) * t + rng.uniform(0, 2 * np.pi))
                      + 0.3 * rng.normal(size=length))
            writer.writerow([k] + [f"{v:.6f}" for v in signal])


def _key_values(text):
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


class SignalCli(Workload):
    """The ``divfe`` command line on 1D signals: augment, grow, eval, divergence."""

    name = "signal-cli"
    op = "chain"
    expected_spans = ("cli.augment", "cli.grow", "cli.eval", "cli.divergence", "augment.expand",
                      "data_io.load", "data_io.save_csv", "data_io.split", "trainer.grow_layers",
                      "trainer.fit", "trainer.evaluate", "numerics.backward",
                      "layers.conv1d.fwd", "layers.conv1d.bwd", "layers.relu.fwd",
                      "layers.flatten.fwd", "layers.mse.fwd", "checkpoint.save",
                      "checkpoint.load", "divergence.analyze", "mdn.classify_batch")

    def setup(self):
        rng = np.random.default_rng([self.seed, 3])
        classes, per_class, held_out, length, epochs = (
            (4, 6, 3, 32, 1) if self.tiny else (4, 24, 12, 128, 8))
        w = self.workdir
        self.paths = {k: str(w / f"signal-{k}") for k in
                      ("train.csv", "held-out.csv", "augmented.csv", "template.txt",
                       "config.txt", "grown.divf")}
        _write_signals(self.paths["train.csv"], rng, classes, per_class, length)
        _write_signals(self.paths["held-out.csv"], rng, classes, held_out, length)
        with open(self.paths["template.txt"], "w", encoding="utf-8") as fh:
            fh.write(f"input {length}\nwalsh_rank 8\nfilters 9\nplanes 16\n")
        with open(self.paths["config.txt"], "w", encoding="utf-8") as fh:
            # patience == epochs: every fit runs the same number of epochs
            fh.write(f"seed = {self.seed}\nlr = 0.002\nbatch = 16\nepochs = {epochs}\n"
                     f"patience = {epochs}\ntrain_fraction = 0.8\nval_fraction = 0.1\n")
        self.rows = classes * per_class
        self.held_out_rows = classes * held_out
        p = self.paths
        # threshold 1.0 is never exceeded, so grow trains both depths every time
        self.commands = [
            ["augment", "--data", p["train.csv"], "--out", p["augmented.csv"], "--factor", "3",
             "--seed", str(self.seed)],
            ["grow", "--template", p["template.txt"], "--data", p["augmented.csv"],
             "--config", p["config.txt"], "--threshold", "1.0", "--max-depth", "2",
             "--out", p["grown.divf"]],
            ["eval", "--checkpoint", p["grown.divf"], "--data", p["held-out.csv"]],
            ["divergence", "--checkpoint", p["grown.divf"], "--data", p["held-out.csv"],
             "--mode", "both"],
        ]

    def run_round(self):
        r = Round()
        outputs = {}
        start = time.perf_counter()
        for argv in self.commands:
            r.ops += 1
            out, err = io.StringIO(), io.StringIO()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main(list(argv))
            except SystemExit as exc:   # argparse rejects its arguments by exiting
                code = exc.code
            if code != 0:
                r.ops_failed += 1
            outputs[argv[0]] = (code, out.getvalue(), err.getvalue())
        r.op_spans.append((start, time.perf_counter()))
        grow = _key_values(outputs["grow"][1])
        r.accuracy = float(grow.get("test_accuracy", "nan"))
        with open(self.paths["grown.divf"], "rb") as fh:
            r.digest = hashlib.sha256(fh.read()).hexdigest()[:16]
        r.extra = {"outputs": outputs}
        return r

    def _checks(self, r):
        outs = r.extra["outputs"]
        for cmd, (code, _, err) in outs.items():
            yield f"divfe {cmd} exits 0", code == 0, err.strip()[:200]
        aug = _key_values(outs["augment"][1])
        yield "augment writes 3x the rows", aug.get("output_samples") == str(3 * self.rows), \
            str(aug.get("output_samples"))
        grow = outs["grow"][1]
        depths = [line for line in grow.splitlines() if line.startswith("depth=")]
        yield "grow trains depths 1 and 2", [d.split()[0] for d in depths] == ["depth=1", "depth=2"], \
            "; ".join(depths)
        ev = _key_values(outs["eval"][1])
        confusion = [int(v) for row in ev.get("confusion", "").split(";") if row for v in row.split(",")]
        yield "eval scores every held-out row", sum(confusion) == self.held_out_rows, str(sum(confusion))
        values = [float(v) for k, v in (line.split("=", 1) for line in outs["divergence"][1].splitlines()
                                        if line.startswith("divergence="))]
        yield "divergence (both modes) finite and positive", \
            len(values) == 2 and all(np.isfinite(v) and v > 0 for v in values), str(values)


WORKLOADS = {w.name: w for w in (IrisTrials, MnistTrain, MnistInfer, SignalCli)}
