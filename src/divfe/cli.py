"""Command-line front end: train, eval, divergence, grow, augment.

Configuration is a flat ``key=value`` text file. All randomness flows from
the single ``seed`` key; consumers draw sub-seeds through the counter scheme
in :mod:`divfe.trainer` (SeedSequence(seed, spawn_key=(trial, stream))), so
adding a consumer does not perturb the others.

Failures exit nonzero with one machine-readable line on stderr:
``error=<category>: <message>``.
"""

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import divergence as div
from .augment import AugmentConfig, expand_training_set
from .checkpoint import load_checkpoint, save_checkpoint
from .data_io import (FormatError, LabeledDataset, ParseError, SplitSpec, Standardizer,
                      load_iris, load_mnist_idx, load_signals_csv, save_signals_csv, split)
from .modelspec import SpecError, load_model_spec, parse_growth_template
from .numerics import ContractError, ShapeError
from .trainer import (EVAL_BATCH_SIZE, STREAM_INIT, TrainConfig, TrainingDivergedError,
                      derive_rng, evaluate, fit, grow_layers)
from .walsh import WalshError, make_codebook

_ERROR_CATEGORIES = [
    (TrainingDivergedError, "training-diverged", 8),
    (div.InsufficientDataError, "insufficient-data", 7),
    ((ContractError, WalshError), "contract-error", 7),
    (ShapeError, "wiring-error", 6),
    (FormatError, "format-error", 5),
    ((ParseError, SpecError, UnicodeDecodeError), "parse-error", 4),
    (OSError, "io-error", 3),
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
    seed: int = 0
    lr: float = 1e-3
    momentum: float = 0.9
    batch: int = 32
    epochs: int = 100
    patience: int = 10
    train_fraction: float = 0.8
    val_fraction: float = 0.1
    standardize: int = -1      # -1: default by format (iris on, others off)
    augment_factor: int = 1
    augment_snr_db: float = 20.0
    augment_gain_low: float = 0.7
    augment_gain_high: float = 1.3
    augment_rotation: float = 1.0


def _load_run_config(path) -> RunConfig:
    cfg = RunConfig()
    if path is None:
        return cfg
    casts = {f.name: type(getattr(cfg, f.name)) for f in cfg.__dataclass_fields__.values()}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in casts:
                raise ParseError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                setattr(cfg, key, casts[key](value))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
    if cfg.standardize not in (-1, 0, 1):
        raise ContractError(f"{path}: standardize must be -1, 0 or 1, got {cfg.standardize}")
    return cfg


def _train_config(cfg: RunConfig) -> TrainConfig:
    augment = AugmentConfig(gain_low=cfg.augment_gain_low, gain_high=cfg.augment_gain_high,
                            snr_db=cfg.augment_snr_db, max_rotation=cfg.augment_rotation,
                            factor=cfg.augment_factor, seed=cfg.seed)
    return TrainConfig(learning_rate=cfg.lr, momentum=cfg.momentum,
                       batch_size=cfg.batch, max_epochs=cfg.epochs,
                       patience=cfg.patience, seed=cfg.seed, augment=augment)


def _load_dataset(path, fmt, labels_path=None) -> LabeledDataset:
    if fmt == "iris":
        return load_iris(path)
    if fmt == "csv":
        return load_signals_csv(path)
    if fmt == "mnist":
        if labels_path is None:
            guess = str(path).replace("images-idx3", "labels-idx1")
            if guess == str(path):
                raise ParseError("mnist format needs --labels (cannot derive the "
                                 "labels path from the images path)")
            labels_path = guess
        return load_mnist_idx(path, labels_path)
    raise ParseError(f"unknown data format {fmt!r}")


def _print_confusion(confusion):
    print("confusion=" + ";".join(",".join(str(v) for v in row) for row in confusion))


def cmd_train(args) -> int:
    cfg = _load_run_config(args.config)
    train_config = _train_config(cfg)
    model = load_model_spec(args.model)
    dataset = _load_dataset(args.data, args.format, args.labels)
    codebook = make_codebook(dataset.class_count, model.rank)

    train_set, val_set, test_set = split(
        dataset, SplitSpec(cfg.train_fraction, cfg.val_fraction, cfg.seed))
    use_norm = cfg.standardize == 1 or (cfg.standardize == -1 and args.format == "iris")
    normalizer = None
    if use_norm:
        pool = np.concatenate([train_set.samples, val_set.samples])
        normalizer = Standardizer.fit(pool)
        train_set, val_set, test_set = (normalizer.apply(train_set),
                                        normalizer.apply(val_set),
                                        normalizer.apply(test_set))

    model.initialize(derive_rng(cfg.seed, 0, STREAM_INIT))
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


def _load_checkpoint_and_data(args):
    """The checkpoint's model and codebook, and the dataset to score with it,
    normalised as in training; samples the model does not take and labels the
    checkpoint has no class for are rejected."""
    model, codebook, normalizer = load_checkpoint(args.checkpoint)
    dataset = _load_dataset(args.data, args.format, args.labels)
    model.check_sample_shape(dataset.samples.shape[1:])
    if dataset.labels.size and dataset.labels.max() >= codebook.class_count:
        raise ContractError(f"dataset label {dataset.labels.max()} is outside the "
                            f"checkpoint's {codebook.class_count} classes")
    if normalizer is not None:
        dataset = normalizer.apply(dataset)
    return model, codebook, dataset


def cmd_eval(args) -> int:
    model, codebook, dataset = _load_checkpoint_and_data(args)
    result = evaluate(model, dataset, codebook)
    print(f"accuracy={result.accuracy:.9g}")
    print(f"loss={result.mean_loss:.9g}")
    _print_confusion(result.confusion)
    return 0


def _print_matrix(name, matrix):
    for row in matrix:
        print(f"{name}," + ",".join(f"{v:.9g}" for v in row))


def cmd_divergence(args) -> int:
    model, codebook, dataset = _load_checkpoint_and_data(args)
    outputs = np.concatenate([
        model.forward(dataset.samples[i:i + EVAL_BATCH_SIZE], mode="infer")
        for i in range(0, len(dataset), EVAL_BATCH_SIZE)])
    modes = ["paper", "empirical"] if args.mode == "both" else [args.mode]
    for mode in modes:
        report = div.analyze(outputs, dataset.labels, codebook, mode=mode)
        _print_matrix("S", report.within)
        _print_matrix("B", report.between)
        print(f"mode={mode}")
        print(f"ridge={report.ridge:.9g}")
        print(f"divergence={report.divergence:.9g}")
    return 0


def cmd_grow(args) -> int:
    cfg = _load_run_config(args.config)
    train_config = _train_config(cfg)
    template, rank = parse_growth_template(args.template.read_text(encoding="utf-8"))
    dataset = _load_dataset(args.data, args.format, args.labels)
    codebook = make_codebook(dataset.class_count, rank)
    train_set, val_set, test_set = split(
        dataset, SplitSpec(cfg.train_fraction, cfg.val_fraction, cfg.seed))
    model, report = grow_layers(template, train_set, val_set, codebook,
                                train_config, threshold=args.threshold,
                                max_depth=args.max_depth)
    for depth, acc in report.growth_history:
        print(f"depth={depth} train_accuracy={acc:.9g}")
    if report.cap_reached:
        final_depth = max(report.growth_history, key=lambda t: t[1])[0]
    else:
        final_depth = report.growth_history[-1][0]
    print(f"cap_reached={int(report.cap_reached)}")
    print(f"final_depth={final_depth}")
    result = evaluate(model, test_set, codebook)
    print(f"test_accuracy={result.accuracy:.9g}")
    if args.out:
        save_checkpoint(model, codebook, args.out)
        print(f"checkpoint={args.out}")
    return 0


def cmd_augment(args) -> int:
    config = AugmentConfig(factor=args.factor, seed=args.seed, snr_db=args.snr_db,
                           gain_low=args.gain_low, gain_high=args.gain_high,
                           max_rotation=args.rotation)
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
                       help="labels IDX file (mnist format only)")

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
    p.add_argument("--factor", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--snr-db", type=float, default=20.0)
    p.add_argument("--gain-low", type=float, default=0.7)
    p.add_argument("--gain-high", type=float, default=1.3)
    p.add_argument("--rotation", type=float, default=1.0)
    p.set_defaults(func=cmd_augment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:   # noqa: BLE001 - single exit point maps categories
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
