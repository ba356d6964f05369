"""Command-line front end: train, eval, divergence, grow, augment.

Configuration is a flat ``key=value`` text file naming each key at most once.
All randomness flows from the single ``seed`` key; consumers draw sub-seeds
through the counter scheme in :mod:`divfe.trainer` (SeedSequence(seed,
spawn_key=(trial, stream))), so adding a consumer does not perturb the others.

Failures exit nonzero with one machine-readable line on stderr:
``error=<category>: <message>``, one exception type per category. Every text
file is read by :func:`divfe.data_io.read_text`, so an undecodable one is a
``parse-error`` naming it; an allocation that cannot be met (a spec, template
or augmentation factor too large for memory) is ``out-of-memory``.
"""

import argparse
import io
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import divergence as div
from .augment import AugmentConfig, expand_training_set
from .checkpoint import load_checkpoint, save_checkpoint
from .data_io import (FormatError, LabeledDataset, ParseError, SplitSpec, Standardizer, load_iris,
                      load_mnist_idx, load_signals_csv, read_text, save_signals_csv, split)
from .modelspec import load_model_spec, parse_growth_template
from .numerics import ContractError, ShapeError
from .trainer import (STREAM_INIT, TrainConfig, TrainingDivergedError, check_growth_limits,
                      derive_rng, evaluate, fit, grow_layers)
from .walsh import make_codebook

_ERROR_CATEGORIES = [
    (TrainingDivergedError, "training-diverged", 8),
    (div.InsufficientDataError, "insufficient-data", 7),
    (ContractError, "contract-error", 7),
    (ShapeError, "wiring-error", 6),
    (FormatError, "format-error", 5),
    (ParseError, "parse-error", 4),
    (OSError, "io-error", 3),
    (MemoryError, "out-of-memory", 9),
]


def _fail(exc) -> int:
    for types, category, code in _ERROR_CATEGORIES:
        if isinstance(exc, types):
            print(f"error={category}: {exc}", file=sys.stderr)
            return code
    print(f"error=internal: {exc}", file=sys.stderr)
    return 1


@dataclass
class RunConfig:
    seed: int = TrainConfig.seed
    lr: float = TrainConfig.learning_rate
    batch: int = TrainConfig.batch_size
    epochs: int = TrainConfig.max_epochs
    patience: int = TrainConfig.patience
    train_fraction: float = SplitSpec.train_fraction
    val_fraction: float = SplitSpec.validation_fraction
    augment_factor: int = 1    # no expansion unless asked, unlike `divfe augment`


def _load_run_config(path) -> tuple[TrainConfig, SplitSpec]:
    """The run's training and split settings (the defaults without a file); building
    them checks every value, so a bad one is refused before any data is read."""
    cfg = RunConfig()
    casts = {f.name: type(getattr(cfg, f.name)) for f in cfg.__dataclass_fields__.values()}
    text = read_text(path)[1] if path is not None else ""
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        cast = casts.pop(key, None)
        if cast is None:
            problem = "duplicate" if key in cfg.__dataclass_fields__ else "unknown"
            raise ParseError(f"{path}:{lineno}: {problem} config key {key!r}")
        try:
            setattr(cfg, key, cast(value))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    augment = AugmentConfig(factor=cfg.augment_factor, seed=cfg.seed)
    return (TrainConfig(learning_rate=cfg.lr, batch_size=cfg.batch, max_epochs=cfg.epochs,
                        patience=cfg.patience, seed=cfg.seed, augment=augment),
            SplitSpec(cfg.train_fraction, cfg.val_fraction, cfg.seed))


def _load_dataset(path, fmt, labels_path=None) -> LabeledDataset:
    if labels_path is not None and fmt != "mnist":
        raise ParseError(f"--labels is for the mnist format only, not {fmt!r}")
    if fmt == "iris":
        return load_iris(path)
    if fmt == "csv":
        return load_signals_csv(path)
    if labels_path is None:   # the images file's name, not its directories, names the labels
        name = Path(path).name
        if "images-idx3" not in name:
            raise ParseError("mnist format needs --labels (cannot derive the "
                             "labels path from the images path)")
        labels_path = Path(path).with_name(name.replace("images-idx3", "labels-idx1"))
    return load_mnist_idx(path, labels_path)


def _load_split(args, rank, split_spec: SplitSpec):
    """The codebook for ``--data`` at ``rank``, its seeded ``(train, validation, test)``
    split and, for iris data only, the standardiser fitted on the training pool and
    applied to all three (else ``None``)."""
    dataset = _load_dataset(args.data, args.format, args.labels)
    codebook = make_codebook(dataset.class_count, rank)
    parts = split(dataset, split_spec)
    if args.format != "iris":
        return codebook, parts, None
    normalizer = Standardizer.fit(np.concatenate([parts[0].samples, parts[1].samples]))
    return codebook, tuple(normalizer.apply(part) for part in parts), normalizer


def cmd_train(args) -> int:
    train_config, split_spec = _load_run_config(args.config)
    model = load_model_spec(args.model)
    codebook, (train_set, val_set, test_set), normalizer = _load_split(args, model.rank,
                                                                       split_spec)
    model.initialize(derive_rng(train_config.seed, 0, STREAM_INIT))
    metrics_path = args.metrics or (str(args.out) + ".metrics.csv")
    with open(metrics_path, "w", encoding="utf-8") as metrics:
        metrics.write("epoch,train_loss,val_loss,val_acc\n")

        def log(epoch, train_loss, val_loss, val_acc):
            line = f"{epoch},{train_loss:.9g},{val_loss:.9g},{val_acc:.9g}"
            metrics.write(line + "\n")
            print(line)

        report = fit(model, train_set, val_set, codebook, train_config, log=log)

    result = evaluate(model, test_set, codebook)
    save_checkpoint(model, codebook, args.out, normalizer=normalizer)
    print(f"epochs_run={report.epochs_run}")
    print(f"best_epoch={report.best_epoch}")
    print(f"test_accuracy={result.accuracy:.9g}")
    print(f"test_loss={result.mean_loss:.9g}")
    print(f"weight_count={model.weight_count()}")
    print(f"checkpoint={args.out}")
    print(f"metrics={metrics_path}")
    return 0


def _score_checkpoint(args):
    """The checkpoint's codebook, ``--data``'s labels and its ``evaluate`` result on that
    data, normalised as in training. Samples the model does not take, and stored values
    that pass ``load_checkpoint``'s checks but overflow once applied (a tiny standardizer
    std, huge weights) are rejected; ``evaluate`` rejects labels with no codebook row."""
    model, codebook, normalizer = load_checkpoint(args.checkpoint)
    dataset = _load_dataset(args.data, args.format, args.labels)
    model.check_sample_shape(dataset.samples.shape[1:])
    if normalizer is not None:
        dataset = normalizer.apply(dataset)
        if not np.isfinite(dataset.samples).all():
            raise FormatError(f"{args.checkpoint}: the standardized samples overflow on this data")
    result = evaluate(model, dataset, codebook)
    # the loss sums squares of the outputs, as the scatter matrices sum their products
    if not np.isfinite(result.mean_loss):
        raise FormatError(f"{args.checkpoint}: the model's outputs overflow on this data")
    return codebook, dataset.labels, result


def cmd_eval(args) -> int:
    _, _, result = _score_checkpoint(args)
    print(f"accuracy={result.accuracy:.9g}")
    print(f"loss={result.mean_loss:.9g}")
    print("confusion=" + ";".join(",".join(str(v) for v in row) for row in result.confusion))
    return 0


def _print_matrix(name, matrix):
    for row in matrix:
        print(f"{name}," + ",".join(f"{v:.9g}" for v in row))


def cmd_divergence(args) -> int:
    codebook, labels, result = _score_checkpoint(args)
    modes = ["paper", "empirical"] if args.mode == "both" else [args.mode]
    for mode in modes:
        report = div.analyze(result.outputs, labels, codebook, mode=mode)
        _print_matrix("S", report.within)
        _print_matrix("B", report.between)
        print(f"mode={mode}")
        print(f"ridge={report.ridge:.9g}")
        print(f"divergence={report.divergence:.9g}")
    return 0


def cmd_grow(args) -> int:
    train_config, split_spec = _load_run_config(args.config)
    check_growth_limits(args.threshold, args.max_depth)
    template, rank = parse_growth_template(read_text(args.template)[1], args.template)
    codebook, (train_set, val_set, test_set), normalizer = _load_split(args, rank, split_spec)
    model, report = grow_layers(template, train_set, val_set, codebook,
                                train_config, threshold=args.threshold,
                                max_depth=args.max_depth)
    for depth, acc in report.growth_history:
        print(f"depth={depth} train_accuracy={acc:.9g}")
    print(f"cap_reached={int(report.cap_reached)}")
    print(f"final_depth={report.depth}")
    result = evaluate(model, test_set, codebook)
    print(f"test_accuracy={result.accuracy:.9g}")
    if args.out:
        save_checkpoint(model, codebook, args.out, normalizer=normalizer)
        print(f"checkpoint={args.out}")
    return 0


def cmd_augment(args) -> int:
    config = AugmentConfig(factor=args.factor, seed=args.seed)
    dataset = load_signals_csv(args.data)
    expanded = expand_training_set(dataset, config)
    save_signals_csv(args.out, expanded)
    print(f"input_samples={len(dataset)}")
    print(f"output_samples={len(expanded)}")
    print(f"out={args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="divfe")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_args(p):
        p.add_argument("--data", required=True, type=Path)
        p.add_argument("--format", choices=["iris", "mnist", "csv"], default="csv")
        p.add_argument("--labels", type=Path, default=None,
                       help="labels IDX file (mnist format only; default: the --data "
                            "file with images-idx3 in its name replaced by labels-idx1)")

    p = sub.add_parser("train", help="train a model spec and write a checkpoint")
    p.add_argument("--model", required=True, type=Path)
    add_data_args(p)
    p.add_argument("--config", type=Path, default=None)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--metrics", type=Path, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True, type=Path)
    add_data_args(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("divergence", help="scatter matrices and divergence value")
    p.add_argument("--checkpoint", required=True, type=Path)
    add_data_args(p)
    p.add_argument("--mode", choices=["paper", "empirical", "both"], default="paper")
    p.set_defaults(func=cmd_divergence)

    p = sub.add_parser("grow", help="grow convolution layers until the training "
                                    "accuracy threshold is cleared")
    p.add_argument("--template", required=True, type=Path)
    add_data_args(p)
    p.add_argument("--threshold", type=float, default=0.95)
    p.add_argument("--max-depth", type=int, default=9)
    p.add_argument("--config", type=Path, default=None)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_grow)

    p = sub.add_parser("augment", help="expand a 1D-signal CSV training set")
    p.add_argument("--data", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--factor", type=int, default=AugmentConfig.factor)
    p.add_argument("--seed", type=int, default=AugmentConfig.seed)
    p.set_defaults(func=cmd_augment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # divergence is caught from the loss, so numpy's overflow warnings
        # would only print ahead of the one error line
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except Exception as exc:   # noqa: BLE001 - single exit point maps categories
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
