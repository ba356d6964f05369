"""Command-line interface: subcommands, outputs and error exit codes."""

import struct

import numpy as np
import pytest

from divfe.cli import main
from divfe.checkpoint import load_checkpoint, save_checkpoint
from divfe.data_io import LabeledDataset, Standardizer, save_signals_csv
from divfe.layers import Conv1D, Dense, FeatureExtractor, Flatten, ReLU
from divfe.walsh import make_codebook

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
    template.write_text("input 8\nwalsh_rank 4\nplanes 6\nfilters 2 2\nrelu 1\n")
    config_path = tmp_path / "run.cfg"
    config_path.write_text(CONFIG)
    out = tmp_path / "grown.divf"
    assert main(["grow", "--template", str(template), "--data", str(signal_csv),
                 "--format", "csv", "--config", str(config_path),
                 "--threshold", "0.95", "--out", str(out)]) == 0
    keys = _stdout_keys(capsys)
    assert keys["final_depth"] == "1"    # separable data needs no extra layers
    assert out.exists()


def test_grow_max_depth_zero_is_contract_error(tmp_path, signal_csv, capsys):
    template = tmp_path / "growth.cfg"
    template.write_text("input 8\nwalsh_rank 4\nplanes 6\nfilters 2 2\n")
    config_path = tmp_path / "run.cfg"
    config_path.write_text(CONFIG)
    code = main(["grow", "--template", str(template), "--data", str(signal_csv),
                 "--format", "csv", "--config", str(config_path), "--max-depth", "0"])
    assert code == 7
    assert "error=contract-error" in capsys.readouterr().err


@pytest.mark.parametrize("template", [
    "input 8\nwalsh_rank 4\nplanes 6\nfilters 2\nbatchnorn 1\n",   # misspelled key
    "input 8\nwalsh_rank 4\nplanes 6\nfilters 2\nrelu yes\n",      # flag not 0/1
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


def _write_idx_pair(tmp_path, n, h=28, w=28):
    images, labels = tmp_path / "images-idx3-ubyte", tmp_path / "labels-idx1-ubyte"
    images.write_bytes(struct.pack(">IIII", 0x00000803, n, h, w) + bytes(n * h * w))
    labels.write_bytes(struct.pack(">II", 0x00000801, n) + bytes(n))
    return images, labels


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


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--factor", "0"),
                                         ("--snr-db", "nan"), ("--gain-high", "inf"),
                                         ("--gain-low", "-inf"), ("--rotation", "nan")])
def test_bad_augment_flags_are_contract_error_before_data_loads(tmp_path, capsys, flag, value):
    # the data file does not exist: the flags must be rejected first
    out = tmp_path / "augmented.csv"
    code = main(["augment", "--data", str(tmp_path / "nope.csv"), "--out", str(out),
                 f"{flag}={value}"])
    assert code == 7
    assert "error=contract-error" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("line", ["lr = nan", "lr = inf", "momentum = nan",
                                  "augment_snr_db = nan", "augment_gain_low = -inf",
                                  "augment_gain_high = nan", "augment_rotation = inf",
                                  "standardize = 5", "seed = -1", "augment_factor = 0"])
def test_bad_config_values_are_contract_error_before_data_loads(tmp_path, capsys, line):
    model_path = tmp_path / "model.spec"
    model_path.write_text(MODEL_SPEC)
    config_path = tmp_path / "run.cfg"
    config_path.write_text(line + "\n")
    # the data file does not exist: the config must be rejected first
    code = main(["train", "--model", str(model_path), "--data", str(tmp_path / "nope.csv"),
                 "--format", "csv", "--config", str(config_path),
                 "--out", str(tmp_path / "o.divf")])
    assert code == 7
    assert "error=contract-error" in capsys.readouterr().err
