"""Command-line interface: subcommands, outputs and error exit codes."""

import csv
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from divfe.cli import main
from divfe.checkpoint import load_checkpoint, save_checkpoint
from divfe.data_io import LabeledDataset, Standardizer, save_signals_csv
from divfe.layers import Conv1D, Dense, FeatureExtractor, Flatten, ReLU
from divfe.modelspec import parse_model_spec
from divfe.walsh import make_codebook

IRIS_CSV = Path(__file__).resolve().parent.parent / "data" / "iris.csv"

MODEL_SPEC = """input 8
walsh_rank 4
conv1d 3 6
relu
flatten
dense 4
"""

CONFIG = """seed = 0
lr = 0.01
batch = 16
epochs = 20
patience = 20
train_fraction = 0.7
val_fraction = 0.2
"""


@pytest.fixture
def signal_csv(tmp_path):
    """Two well-separated classes of length-8 signals."""
    rng = np.random.default_rng(0)
    n = 60
    a = rng.normal(size=(n, 8)) + 2.0
    b = rng.normal(size=(n, 8)) - 2.0
    ds = LabeledDataset(samples=np.concatenate([a, b]),
                        labels=np.repeat([0, 1], n), class_count=2)
    path = tmp_path / "signals.csv"
    save_signals_csv(path, ds)
    return path


@pytest.fixture
def trained(tmp_path, signal_csv):
    model_path = tmp_path / "model.spec"
    model_path.write_text(MODEL_SPEC)
    config_path = tmp_path / "run.cfg"
    config_path.write_text(CONFIG)
    out = tmp_path / "model.divf"
    code = main(["train", "--model", str(model_path), "--data", str(signal_csv),
                 "--format", "csv", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    return out


def _stdout_keys(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return dict(line.split("=", 1) for line in lines if "=" in line)


def test_train_writes_checkpoint_and_metrics(tmp_path, signal_csv, capsys):
    model_path = tmp_path / "model.spec"
    model_path.write_text(MODEL_SPEC)
    config_path = tmp_path / "run.cfg"
    config_path.write_text(CONFIG)
    trained = tmp_path / "model.divf"
    assert main(["train", "--model", str(model_path), "--data", str(signal_csv),
                 "--format", "csv", "--config", str(config_path),
                 "--out", str(trained)]) == 0
    keys = _stdout_keys(capsys)
    assert trained.exists()
    assert float(keys["test_accuracy"]) >= 0.9
    assert int(keys["weight_count"]) == 3 * 6 + 4 * 36
    metrics = (tmp_path / "model.divf.metrics.csv").read_text().splitlines()
    assert metrics[0] == "epoch,train_loss,val_loss,val_acc"
    assert len(metrics) >= 2
    model, cb, norm = load_checkpoint(trained)
    assert cb.class_count == 2 and norm is None


def test_eval_reports_accuracy_and_confusion(trained, signal_csv, capsys):
    assert main(["eval", "--checkpoint", str(trained), "--data", str(signal_csv),
                 "--format", "csv"]) == 0
    keys = _stdout_keys(capsys)
    assert float(keys["accuracy"]) >= 0.9
    rows = [r.split(",") for r in keys["confusion"].split(";")]
    assert sum(int(v) for row in rows for v in row) == 120


def test_divergence_command(trained, signal_csv, capsys):
    assert main(["divergence", "--checkpoint", str(trained), "--data", str(signal_csv),
                 "--format", "csv", "--mode", "both"]) == 0
    out = capsys.readouterr().out
    assert "mode=paper" in out and "mode=empirical" in out
    assert out.count("divergence=") == 2


def test_train_deterministic_checkpoints(tmp_path, signal_csv):
    model_path = tmp_path / "model.spec"
    model_path.write_text(MODEL_SPEC)
    config_path = tmp_path / "run.cfg"
    config_path.write_text(CONFIG)
    o1, o2 = tmp_path / "a.divf", tmp_path / "b.divf"
    for out in (o1, o2):
        assert main(["train", "--model", str(model_path), "--data", str(signal_csv),
                     "--format", "csv", "--config", str(config_path),
                     "--out", str(out)]) == 0
    assert o1.read_bytes() == o2.read_bytes()


def test_grow_command(tmp_path, signal_csv, capsys):
    template = tmp_path / "growth.cfg"
    template.write_text("input 8\nwalsh_rank 4\nplanes 6\nfilters 2 2\n")
    config_path = tmp_path / "run.cfg"
    config_path.write_text(CONFIG)
    out = tmp_path / "grown.divf"
    assert main(["grow", "--template", str(template), "--data", str(signal_csv),
                 "--format", "csv", "--config", str(config_path),
                 "--threshold", "0.95", "--out", str(out)]) == 0
    keys = _stdout_keys(capsys)
    assert keys["final_depth"] == "1"    # separable data needs no extra layers
    assert out.exists()


def test_grow_at_the_depth_cap_keeps_the_first_best_depth(tmp_path, signal_csv, capsys):
    template = tmp_path / "growth.cfg"
    template.write_text("input 8\nwalsh_rank 4\nplanes 6\nfilters 2 2\n")
    config_path = tmp_path / "run.cfg"
    config_path.write_text(CONFIG)
    out = tmp_path / "grown.divf"
    # no training accuracy exceeds 1.0, so both depths are trained
    assert main(["grow", "--template", str(template), "--data", str(signal_csv),
                 "--format", "csv", "--config", str(config_path), "--threshold", "1.0",
                 "--max-depth", "2", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    history = [(int(depth.split("=")[1]), float(acc.split("=")[1]))
               for depth, acc in (line.split() for line in lines if line.startswith("depth="))]
    keys = dict(line.split("=", 1) for line in lines if " " not in line)
    assert [depth for depth, _ in history] == [1, 2]
    assert keys["cap_reached"] == "1"
    best = max(acc for _, acc in history)
    assert int(keys["final_depth"]) == next(depth for depth, acc in history if acc == best)
    # the saved model is that depth's: a convolution and ReLU per extra depth
    assert len(load_checkpoint(out)[0].layers) == 2 * int(keys["final_depth"])


@pytest.mark.parametrize("fmt", ["csv", "iris"])
def test_grow_standardizes_like_train(tmp_path, signal_csv, fmt):
    # iris data is standardized, and no other format
    data, width = (IRIS_CSV, 4) if fmt == "iris" else (signal_csv, 8)
    config_path = tmp_path / "run.cfg"
    config_path.write_text(CONFIG)
    template = tmp_path / "growth.cfg"
    template.write_text(f"input {width}\nwalsh_rank 4\nplanes 6\nfilters 2\n")
    model_path = tmp_path / "model.spec"
    model_path.write_text(MODEL_SPEC.replace("input 8", f"input {width}"))
    grown, trained = tmp_path / "grown.divf", tmp_path / "trained.divf"
    assert main(["grow", "--template", str(template), "--data", str(data),
                 "--format", fmt, "--config", str(config_path), "--threshold", "0",
                 "--out", str(grown)]) == 0
    assert main(["train", "--model", str(model_path), "--data", str(data),
                 "--format", fmt, "--config", str(config_path), "--out", str(trained)]) == 0
    grown_norm, trained_norm = load_checkpoint(grown)[2], load_checkpoint(trained)[2]
    if fmt == "iris":
        # the same split, so the same training pool and the same statistics
        np.testing.assert_array_equal(grown_norm.mean, trained_norm.mean)
        np.testing.assert_array_equal(grown_norm.std, trained_norm.std)
    else:
        assert grown_norm is None and trained_norm is None


@pytest.mark.parametrize("flag, value", [("--threshold", "2"), ("--threshold", "-0.5"),
                                         ("--threshold", "nan"), ("--max-depth", "0"),
                                         ("--max-depth", "-1")])
def test_bad_grow_limits_are_contract_error_before_data_loads(tmp_path, capsys, flag, value):
    template = tmp_path / "growth.txt"
    template.write_text("input 8\nwalsh_rank 4\nplanes 6\nfilters 2\n")
    # the data file does not exist: the flag must be rejected first
    code = main(["grow", "--template", str(template), "--data", str(tmp_path / "nope.csv"),
                 "--format", "csv", f"{flag}={value}"])
    assert code == 7
    err = capsys.readouterr().err
    assert "error=contract-error" in err and flag[2:].replace("-", "_") in err


@pytest.mark.parametrize("template", [
    "input 8\nwalsh_rank 4\nplanes 6\nfilters 2\nbatchnorn 1\n",   # misspelled key
    "input 8\nwalsh_rank 4\nplanes 6\nfilters 2\nrelu yes\n",      # a removed key
    "input 8\nwalsh_rank 4\nplanes 6\nfilters 2\nfilters 3\n",     # duplicate key
    "input 0\nwalsh_rank 4\nplanes 6\nfilters 2\n",                 # empty input
], ids=["misspelled-key", "relu-yes", "duplicate-filters", "input-0"])
def test_bad_growth_template_is_parse_error(tmp_path, signal_csv, capsys, template):
    path = tmp_path / "growth.cfg"
    path.write_text(template)
    code = main(["grow", "--template", str(path), "--data", str(signal_csv),
                 "--format", "csv"])
    assert code == 4
    assert "error=parse-error" in capsys.readouterr().err


def test_undecodable_growth_template_is_parse_error(tmp_path, signal_csv, capsys):
    path = tmp_path / "growth.cfg"
    path.write_bytes(b"input 8\nwalsh_rank 4\nplanes \xff\n")
    code = main(["grow", "--template", str(path), "--data", str(signal_csv),
                 "--format", "csv"])
    assert code == 4
    assert "error=parse-error" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--model", "--config", "--template"])
def test_undecodable_text_file_is_parse_error_naming_it(tmp_path, signal_csv, capsys, flag):
    files = {"--model": MODEL_SPEC, "--config": CONFIG,
             "--template": "input 8\nwalsh_rank 4\nplanes 6\n"}
    paths = {name: tmp_path / f"file{i}.txt" for i, name in enumerate(files)}
    for name, text in files.items():
        paths[name].write_text(text)
    paths[flag].write_bytes(b"# a comment\n\xff\n")
    if flag == "--template":
        args = ["grow", "--template", str(paths[flag])]
    else:
        args = ["train", "--model", str(paths["--model"]), "--config", str(paths["--config"]),
                "--out", str(tmp_path / "o.divf")]
    code = main(args + ["--data", str(signal_csv), "--format", "csv"])
    assert code == 4
    assert capsys.readouterr().err.startswith(f"error=parse-error: {paths[flag]}: ")


def test_augment_command(tmp_path, signal_csv, capsys):
    out = tmp_path / "augmented.csv"
    assert main(["augment", "--data", str(signal_csv), "--out", str(out),
                 "--factor", "3", "--seed", "1"]) == 0
    keys = _stdout_keys(capsys)
    assert int(keys["output_samples"]) == 3 * int(keys["input_samples"])
    assert out.exists()


def test_augment_keeps_zero_power_signal(tmp_path, capsys):
    # an all-zero row gets no noise instead of aborting the expansion
    data = tmp_path / "signals.csv"
    data.write_text("0,0,0,0,0\n0,1,2,3,4\n1,4,3,2,1\n")
    out = tmp_path / "augmented.csv"
    assert main(["augment", "--data", str(data), "--out", str(out), "--factor", "4"]) == 0
    assert _stdout_keys(capsys)["output_samples"] == "12"
    rows = [line.split(",") for line in out.read_text().splitlines()]
    assert all(float(v) == 0.0 for row in rows[::3] for v in row[1:])


# ---------------------------------------------------------------- error codes

def test_missing_data_file_is_io_error(tmp_path, capsys):
    model_path = tmp_path / "model.spec"
    model_path.write_text(MODEL_SPEC)
    code = main(["train", "--model", str(model_path), "--data",
                 str(tmp_path / "nope.csv"), "--format", "csv",
                 "--out", str(tmp_path / "o.divf")])
    assert code == 3
    assert "error=io-error" in capsys.readouterr().err


def test_malformed_model_spec_is_parse_error(tmp_path, signal_csv, capsys):
    model_path = tmp_path / "model.spec"
    model_path.write_text("input 8\nwalsh_rank 4\nsoftmax\n")
    code = main(["train", "--model", str(model_path), "--data", str(signal_csv),
                 "--format", "csv", "--out", str(tmp_path / "o.divf")])
    assert code == 4
    assert "error=parse-error" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, reason", [
    ("train", "input 8\nwalsh_rank 4\nconv1d 3 0\nflatten\n",
     "malformed 'conv1d' line: sizes must be positive, got '0'"),
    ("grow", "input 8\nwalsh_rank 4\nplanes 0\n",
     "malformed 'planes' line: sizes must be positive, got '0'"),
], ids=["model", "template"])
def test_refused_line_names_its_file_line_and_reason(tmp_path, signal_csv, capsys, command,
                                                     text, reason):
    path = tmp_path / "refused.txt"
    path.write_text(text)
    args = (["train", "--model", str(path), "--out", str(tmp_path / "o.divf")]
            if command == "train" else ["grow", "--template", str(path)])
    code = main(args + ["--data", str(signal_csv), "--format", "csv"])
    assert code == 4
    assert capsys.readouterr().err == f"error=parse-error: {path}:3: {reason}\n"


@pytest.mark.parametrize("line", ["compute float16", "compute", "compute float32\ncompute float32"],
                         ids=["float16", "bare", "repeated"])
def test_bad_compute_line_is_parse_error(tmp_path, signal_csv, capsys, line):
    model_path = tmp_path / "model.spec"
    model_path.write_text(MODEL_SPEC.replace("walsh_rank 4\n", f"walsh_rank 4\n{line}\n"))
    code = main(["train", "--model", str(model_path), "--data", str(signal_csv),
                 "--format", "csv", "--out", str(tmp_path / "o.divf")])
    assert code == 4
    assert capsys.readouterr().err.startswith("error=parse-error: ")


def test_corrupt_checkpoint_is_format_error(tmp_path, signal_csv, capsys):
    bad = tmp_path / "bad.divf"
    model = FeatureExtractor([Conv1D(3, 6), ReLU(), Flatten(), Dense(4)],
                             (1, 8), 4).initialize(np.random.default_rng(0))
    save_checkpoint(model, make_codebook(2, 4), bad)
    blob = bytearray(bad.read_bytes())
    blob[10] ^= 0xFF
    bad.write_bytes(bytes(blob))
    code = main(["eval", "--checkpoint", str(bad), "--data", str(signal_csv),
                 "--format", "csv"])
    assert code == 5
    assert "error=format-error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "divergence"])
@pytest.mark.parametrize("case", ["std-zero", "nan-weight", "negative-running-var"])
def test_checkpoint_with_bad_values_is_format_error(tmp_path, signal_csv, capsys,
                                                    command, case):
    model = parse_model_spec(MODEL_SPEC.replace("relu\n", "batchnorm\nrelu\n")).initialize(0)
    normalizer = None
    if case == "std-zero":
        normalizer = Standardizer(mean=np.zeros(8), std=np.zeros(8))
    elif case == "nan-weight":
        model.params[0] = np.nan
    else:
        model.layers[1].running_var[0] = -1.0
    bad = tmp_path / "bad.divf"
    save_checkpoint(model, make_codebook(2, 4), bad, normalizer=normalizer)
    code = main([command, "--checkpoint", str(bad), "--data", str(signal_csv),
                 "--format", "csv"])
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("error=format-error") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["eval", "divergence"])
@pytest.mark.parametrize("case", ["std-1e-310", "weights-1e300"])
def test_checkpoint_values_that_overflow_in_use_are_format_error(tmp_path, signal_csv,
                                                                 capsys, command, case):
    # every stored value is finite and valid; applying them is not
    model = parse_model_spec(MODEL_SPEC).initialize(0)
    normalizer = Standardizer(mean=np.zeros(8), std=np.ones(8))
    if case == "std-1e-310":
        normalizer = Standardizer(mean=np.zeros(8), std=np.full(8, 1e-310))
    else:
        model.params[:] = 1e300
    bad = tmp_path / "bad.divf"
    save_checkpoint(model, make_codebook(2, 4), bad, normalizer=normalizer)
    code = main([command, "--checkpoint", str(bad), "--data", str(signal_csv),
                 "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.err.startswith("error=format-error") and captured.err.count("\n") == 1
    assert "overflow" in captured.err and captured.out == ""


def test_rank_mismatch_is_wiring_error(tmp_path, signal_csv, capsys):
    model_path = tmp_path / "model.spec"
    model_path.write_text("input 8\nwalsh_rank 16\nflatten\ndense 8\n")
    code = main(["train", "--model", str(model_path), "--data", str(signal_csv),
                 "--format", "csv", "--out", str(tmp_path / "o.divf")])
    assert code == 6
    assert "error=wiring-error" in capsys.readouterr().err


def test_capacity_overflow_is_contract_error(tmp_path, capsys):
    # 5 classes cannot fit a rank-4 codebook (row 0 is reserved)
    rng = np.random.default_rng(1)
    ds = LabeledDataset(samples=rng.normal(size=(50, 8)),
                        labels=np.arange(50) % 5, class_count=5)
    data = tmp_path / "five.csv"
    save_signals_csv(data, ds)
    model_path = tmp_path / "model.spec"
    model_path.write_text(MODEL_SPEC)
    code = main(["train", "--model", str(model_path), "--data", str(data),
                 "--format", "csv", "--out", str(tmp_path / "o.divf")])
    assert code == 7
    assert "error=contract-error" in capsys.readouterr().err


@pytest.fixture
def three_class_csv(tmp_path):
    rng = np.random.default_rng(2)
    ds = LabeledDataset(samples=rng.normal(size=(30, 8)),
                        labels=np.arange(30) % 3, class_count=3)
    path = tmp_path / "three.csv"
    save_signals_csv(path, ds)
    return path


@pytest.mark.parametrize("command", ["eval", "divergence"])
def test_labels_beyond_checkpoint_classes_are_contract_error(trained, three_class_csv,
                                                             capsys, command):
    # the checkpoint knows 2 classes; label 2 has no codebook row
    code = main([command, "--checkpoint", str(trained), "--data", str(three_class_csv),
                 "--format", "csv"])
    assert code == 7
    assert "error=contract-error" in capsys.readouterr().err


def test_bad_config_key_is_parse_error(tmp_path, signal_csv, capsys):
    model_path = tmp_path / "model.spec"
    model_path.write_text(MODEL_SPEC)
    config_path = tmp_path / "run.cfg"
    config_path.write_text("learning_rate = 0.1\n")   # unknown key (it is 'lr')
    code = main(["train", "--model", str(model_path), "--data", str(signal_csv),
                 "--format", "csv", "--config", str(config_path),
                 "--out", str(tmp_path / "o.divf")])
    assert code == 4
    assert "error=parse-error" in capsys.readouterr().err


def test_repeated_config_key_is_parse_error(tmp_path, signal_csv, capsys):
    model_path = tmp_path / "model.spec"
    model_path.write_text(MODEL_SPEC)
    config_path = tmp_path / "run.cfg"
    config_path.write_text("epochs = 3\nlr = 0.1\nepochs = 3\n")
    code = main(["train", "--model", str(model_path), "--data", str(signal_csv),
                 "--format", "csv", "--config", str(config_path),
                 "--out", str(tmp_path / "o.divf")])
    assert code == 4
    assert capsys.readouterr().err == (f"error=parse-error: {config_path}:3: "
                                       "duplicate config key 'epochs'\n")


@pytest.mark.parametrize("field", ["1" * (csv.field_size_limit() + 1), "1\x00"],
                         ids=["over-long-field", "nul"])
@pytest.mark.parametrize("fmt", ["csv", "iris"])
def test_csv_row_the_reader_cannot_split_is_parse_error(tmp_path, capsys, fmt, field):
    # csv.reader refuses a field over its limit, and a NUL before Python 3.11
    data = tmp_path / "data.csv"
    if fmt == "csv":
        data.write_text(f"0,1.0,2.0\n{field},1.0,2.0\n")
        argv = ["augment", "--out", str(tmp_path / "o.csv")]
    else:
        data.write_text(f"5.1,3.5,1.4,0.2,setosa\n{field},3.0,1.4,0.2,virginica\n")
        model_path = tmp_path / "model.spec"
        model_path.write_text(MODEL_SPEC.replace("input 8", "input 4"))
        argv = ["train", "--model", str(model_path), "--format", "iris",
                "--out", str(tmp_path / "o.divf")]
    assert main([*argv, "--data", str(data)]) == 4
    assert capsys.readouterr().err.startswith(f"error=parse-error: {data}:2: ")


def test_single_sample_batches_with_batchnorm_are_contract_error(tmp_path, signal_csv,
                                                                 capsys):
    model_path = tmp_path / "model.spec"
    model_path.write_text(MODEL_SPEC.replace("relu\n", "batchnorm\nrelu\n"))
    config_path = tmp_path / "run.cfg"
    config_path.write_text(CONFIG.replace("batch = 16", "batch = 1"))
    out = tmp_path / "o.divf"
    code = main(["train", "--model", str(model_path), "--data", str(signal_csv),
                 "--format", "csv", "--config", str(config_path), "--out", str(out)])
    assert code == 7
    assert "error=contract-error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config", [
    "lr = 1e308\nepochs = 2\n",               # caught at the second training batch
    "lr = 1e308\nepochs = 1\nbatch = 200\n",  # one batch: caught by the validation loss
], ids=["training-loss", "validation-loss"])
def test_diverging_run_prints_only_the_error_line(tmp_path, signal_csv, capsys, config):
    model_path = tmp_path / "model.spec"
    model_path.write_text(MODEL_SPEC)
    config_path = tmp_path / "run.cfg"
    config_path.write_text(config)
    out = tmp_path / "o.divf"
    code = main(["train", "--model", str(model_path), "--data", str(signal_csv),
                 "--format", "csv", "--config", str(config_path), "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code == 8
    assert len(err) == 1 and err[0].startswith("error=training-diverged: ")
    assert not out.exists()


def _write_idx_pair(tmp_path, n, h=28, w=28):
    images, labels = tmp_path / "images-idx3-ubyte", tmp_path / "labels-idx1-ubyte"
    images.write_bytes(struct.pack(">IIII", 0x00000803, n, h, w) + bytes(n * h * w))
    labels.write_bytes(struct.pack(">II", 0x00000801, n) + bytes(n))
    return images, labels


@pytest.mark.parametrize("name, code", [("train-images-idx3-ubyte", 0), ("digits-ubyte", 4)])
def test_mnist_labels_path_is_derived_from_the_images_file_name_only(tmp_path, capsys,
                                                                     name, code):
    # the pair sits in a directory named images-idx3, which must not be renamed
    folder = tmp_path / "images-idx3"
    folder.mkdir()
    images, labels = _write_idx_pair(folder, 20, 4, 4)
    images.rename(folder / name)
    labels.rename(folder / "train-labels-idx1-ubyte")
    model_path = tmp_path / "model.spec"
    model_path.write_text("input 4x4\nwalsh_rank 16\nflatten\ndense 16\n")
    config_path = tmp_path / "run.cfg"
    config_path.write_text("epochs = 1\n")
    out = tmp_path / "o.divf"
    assert main(["train", "--model", str(model_path), "--data", str(folder / name),
                 "--format", "mnist", "--config", str(config_path), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert out.exists() if code == 0 else "error=parse-error: mnist format needs --labels" in err


@pytest.fixture
def four_feature_checkpoint(tmp_path):
    """An iris-shaped checkpoint (4 features, stored standardiser)."""
    path = tmp_path / "iris.divf"
    model = FeatureExtractor([Conv1D(2, 3), ReLU(), Flatten(), Dense(4)],
                             (1, 4), 4).initialize(np.random.default_rng(0))
    save_checkpoint(model, make_codebook(2, 4), path,
                    normalizer=Standardizer(mean=np.zeros(4), std=np.ones(4)))
    return path


@pytest.mark.parametrize("fmt", ["csv", "mnist"])
@pytest.mark.parametrize("command", ["eval", "divergence"])
def test_samples_of_the_wrong_shape_are_wiring_error(tmp_path, signal_csv,
                                                      four_feature_checkpoint, capsys,
                                                      command, fmt):
    # 8-sample signals or 28x28 images against a 4-feature model
    data = signal_csv if fmt == "csv" else _write_idx_pair(tmp_path, 3)[0]
    code = main([command, "--checkpoint", str(four_feature_checkpoint), "--data", str(data),
                 "--format", fmt])
    assert code == 6
    assert "error=wiring-error" in capsys.readouterr().err


@pytest.mark.parametrize("command, value", [("eval", "nan"), ("divergence", "inf")])
def test_non_finite_csv_values_are_parse_error(tmp_path, signal_csv, trained, capsys,
                                               command, value):
    rows = signal_csv.read_text().splitlines()
    rows[5] = ",".join(rows[5].split(",")[:3] + [value] + rows[5].split(",")[4:])
    data = tmp_path / "bad.csv"
    data.write_text("\n".join(rows) + "\n")
    code = main([command, "--checkpoint", str(trained), "--data", str(data),
                 "--format", "csv"])
    assert code == 4
    err = capsys.readouterr().err
    assert "error=parse-error" in err and "bad.csv:6: non-finite" in err


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--factor", "0")])
def test_bad_augment_flags_are_contract_error_before_data_loads(tmp_path, capsys, flag, value):
    # the data file does not exist: the flags must be rejected first
    out = tmp_path / "augmented.csv"
    code = main(["augment", "--data", str(tmp_path / "nope.csv"), "--out", str(out),
                 f"{flag}={value}"])
    assert code == 7
    assert "error=contract-error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--snr-db", "nan"), ("--gain-high", "inf"),
                                         ("--gain-low", "-inf"), ("--rotation", "nan")])
def test_removed_augment_flags_are_usage_errors(tmp_path, capsys, flag, value):
    # the gain range, SNR and rotation are fixed: argparse refuses the flags
    out = tmp_path / "augmented.csv"
    with pytest.raises(SystemExit) as exc:
        main(["augment", "--data", str(tmp_path / "nope.csv"), "--out", str(out),
              f"{flag}={value}"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_huge_augment_factor_is_out_of_memory_at_once(tmp_path, signal_csv, capsys):
    # 120 rows * 10**13 * 8 doubles is beyond any address space: the output
    # allocation fails before a single variant is drawn; at 10**16 the byte
    # count overflows numpy's size type, and at 10**17 the row count does
    out = tmp_path / "augmented.csv"
    for factor in (10 ** 13, 10 ** 16, 10 ** 17):
        start = time.perf_counter()
        code = main(["augment", "--data", str(signal_csv), "--out", str(out),
                     "--factor", str(factor)])
        assert time.perf_counter() - start < 1.0
        assert code == 9
        assert "error=out-of-memory" in capsys.readouterr().err
        assert not out.exists()


def test_augment_refuses_to_write_samples_its_loader_rejects(tmp_path, capsys):
    # 1.5e308 is finite, but a gain above 1 or the noise power overflows it
    rng = np.random.default_rng(3)
    samples = rng.normal(size=(12, 8))
    samples[4, 2] = 1.5e308
    data = tmp_path / "signals.csv"
    save_signals_csv(data, LabeledDataset(samples=samples, labels=np.arange(12) % 2,
                                          class_count=2))
    out = tmp_path / "augmented.csv"
    code = main(["augment", "--data", str(data), "--out", str(out),
                 "--factor", "6", "--seed", "1"])
    assert code == 7
    assert "error=contract-error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "grow"])
def test_weights_beyond_any_address_space_are_out_of_memory(tmp_path, signal_csv, capsys,
                                                            command):
    # 10**14 planes: petabytes of weights, so the allocation fails at once
    # under every overcommit setting; 10**20 planes is more than numpy can
    # even index; so is a dense layer on 2**64 flattened features, a product
    # that wraps to 0 in int64
    config_path = tmp_path / "run.cfg"
    config_path.write_text("epochs = 1\n")
    spec = tmp_path / "model.txt"
    if command == "train":
        texts = [f"input 8\nwalsh_rank 4\nconv1d 3 {planes}\nflatten\ndense 4\n"
                 for planes in (10 ** 14, 10 ** 20)]
        texts.append("input 4294967296x4294967296\nwalsh_rank 4\nflatten\ndense 4\n")
        args = ["train", "--model", str(spec), "--out", str(tmp_path / "o.divf")]
    else:
        # depth 2 holds the huge layer; a threshold of 1 is never cleared at depth 1
        texts = [f"input 8\nwalsh_rank 4\nplanes {planes}\nfilters 3\n"
                 for planes in (10 ** 14, 10 ** 20)]
        args = ["grow", "--template", str(spec), "--threshold", "1.0", "--max-depth", "2"]
    for text in texts:
        spec.write_text(text)
        code = main(args + ["--data", str(signal_csv), "--format", "csv",
                            "--config", str(config_path)])
        assert code == 9
        assert "error=out-of-memory" in capsys.readouterr().err


def test_idx_dimensions_overflowing_int64_are_format_error(tmp_path, capsys):
    # 2**31 * 2**31 * 4 images wrap to 0 bytes in int64 arithmetic
    model_path = tmp_path / "model.spec"
    model_path.write_text("input 28x28\nwalsh_rank 16\nflatten\ndense 16\n")
    images, labels = _write_idx_pair(tmp_path, 1)
    images.write_bytes(struct.pack(">IIII", 0x00000803, 2 ** 31, 2 ** 31, 4))
    code = main(["train", "--model", str(model_path), "--data", str(images),
                 "--format", "mnist", "--labels", str(labels), "--out", str(tmp_path / "o.divf")])
    assert code == 5
    assert "error=format-error" in capsys.readouterr().err


def test_idx_pair_without_images_is_format_error(tmp_path, capsys):
    model_path = tmp_path / "model.spec"
    model_path.write_text("input 28x28\nwalsh_rank 16\nflatten\ndense 16\n")
    images, labels = _write_idx_pair(tmp_path, 0)
    code = main(["train", "--model", str(model_path), "--data", str(images),
                 "--format", "mnist", "--labels", str(labels), "--out", str(tmp_path / "o.divf")])
    assert code == 5
    assert "error=format-error" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["lr = nan", "lr = inf", "seed = -1", "augment_factor = 0",
                                  "train_fraction = 1.5", "val_fraction = 0", "batch = 0",
                                  "epochs = 0", "patience = 0"])
def test_bad_config_values_are_contract_error_before_data_loads(tmp_path, capsys, line):
    model_path = tmp_path / "model.spec"
    model_path.write_text(MODEL_SPEC)
    template = tmp_path / "growth.txt"
    template.write_text("input 8\nwalsh_rank 4\nplanes 6\nfilters 2\n")
    config_path = tmp_path / "run.cfg"
    config_path.write_text(line + "\n")
    # the data file does not exist: the config must be rejected first, by both commands
    for source in (["train", "--model", str(model_path), "--out", str(tmp_path / "o.divf")],
                   ["grow", "--template", str(template)]):
        code = main([*source, "--data", str(tmp_path / "nope.csv"), "--format", "csv",
                     "--config", str(config_path)])
        assert code == 7, source[0]
        assert "error=contract-error" in capsys.readouterr().err


def test_run_config_skips_blank_and_comment_lines(tmp_path, capsys):
    config_path = tmp_path / "run.cfg"
    argv = ["train", "--model", str(tmp_path / "model.spec"), "--data", str(tmp_path / "nope.csv"),
            "--config", str(config_path), "--out", str(tmp_path / "o.divf")]
    # line 4's value is read, past its trailing comment, and refused before the spec or data
    config_path.write_text("# a comment\n\n   \ntrain_fraction = 1.5   # trailing comment\n")
    assert main(argv) == 7
    assert "train_fraction must be in (0, 1), got 1.5" in capsys.readouterr().err
    config_path.write_text("# a comment\n\nepochs = 3\nlr 0.01\n")
    assert main(argv) == 4
    assert capsys.readouterr().err == (f"error=parse-error: {config_path}:4: "
                                       "expected key=value, got 'lr 0.01'\n")
    # lines end where open() ends them: at \r, \r\n and \n, not at U+0085
    config_path.write_bytes(b"# a\xc2\x85 comment\r\nepochs = 3\r\rlr 0.01\r")
    assert main(argv) == 4
    assert capsys.readouterr().err.startswith(f"error=parse-error: {config_path}:4: ")


@pytest.mark.parametrize("line", ["augment_snr_db = nan", "augment_gain_low = -inf",
                                  "augment_gain_high = nan", "augment_rotation = inf",
                                  "momentum = 0.9", "standardize = 1"])
def test_removed_config_keys_are_parse_error(tmp_path, capsys, line):
    # the gain range, SNR, rotation and momentum are fixed, and iris data alone is
    # standardized: their keys are unknown
    model_path = tmp_path / "model.spec"
    model_path.write_text(MODEL_SPEC)
    config_path = tmp_path / "run.cfg"
    config_path.write_text(line + "\n")
    code = main(["train", "--model", str(model_path), "--data", str(tmp_path / "nope.csv"),
                 "--format", "csv", "--config", str(config_path),
                 "--out", str(tmp_path / "o.divf")])
    assert code == 4
    err = capsys.readouterr().err
    assert "error=parse-error" in err and "unknown config key" in err


@pytest.mark.parametrize("fmt", ["csv", "iris"])
@pytest.mark.parametrize("command", ["train", "eval", "divergence", "grow"])
def test_labels_outside_the_mnist_format_are_parse_error(tmp_path, signal_csv, capsys,
                                                         command, fmt):
    model_path = tmp_path / "model.spec"
    model_path.write_text(MODEL_SPEC)
    template = tmp_path / "growth.txt"
    template.write_text("input 8\nwalsh_rank 4\nplanes 2\n")
    checkpoint = tmp_path / "model.divf"
    save_checkpoint(parse_model_spec(MODEL_SPEC).initialize(0), make_codebook(2, 4), checkpoint)
    source = {"train": ["--model", str(model_path), "--out", str(tmp_path / "o.divf")],
              "eval": ["--checkpoint", str(checkpoint)],
              "divergence": ["--checkpoint", str(checkpoint)],
              "grow": ["--template", str(template)]}[command]
    code = main([command, *source, "--data", str(signal_csv), "--format", fmt,
                 "--labels", str(tmp_path / "nope-idx1-ubyte")])
    assert code == 4
    assert "error=parse-error: --labels" in capsys.readouterr().err
