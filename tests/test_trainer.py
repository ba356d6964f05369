"""Training loop, trial protocol and automatic layer growing."""

import numpy as np
import pytest

from divfe import trainer
from divfe.augment import AugmentConfig
from divfe.data_io import LabeledDataset, SplitSpec
from divfe.divergence import analyze
from divfe.layers import BatchNorm, Conv1D, Dense, FeatureExtractor, Flatten, Layer, ReLU, mse_loss
from divfe.numerics import ContractError, GradientTape, ShapeError, backward
from divfe.trainer import (GrowthTemplate, TrainConfig, TrainingDivergedError,
                           derive_rng, evaluate, fit, grow_layers, run_trials)
from divfe.walsh import make_codebook


def _blobs(n=60, dim=6, sep=4.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, dim)) + sep / 2.0
    b = rng.normal(size=(n, dim)) - sep / 2.0
    samples = np.concatenate([a, b])
    labels = np.repeat([0, 1], n)
    return LabeledDataset(samples=samples, labels=labels, class_count=2)


def _split_even(ds):
    n = len(ds)
    return ds.subset(np.arange(0, n, 2)), ds.subset(np.arange(1, n, 2))


def _linear_model(dim=6, rank=4):
    return FeatureExtractor([Flatten(), Dense(rank)], (1, dim), rank)


def test_fit_solves_separable_blobs_within_50_epochs():
    train, val = _split_even(_blobs())
    cb = make_codebook(2, 4)
    model = _linear_model().initialize(np.random.default_rng(1))
    cfg = TrainConfig(learning_rate=0.01, batch_size=16, max_epochs=50,
                      patience=50, seed=0)
    report = fit(model, train, val, cb, cfg)
    assert max(report.val_accuracy) == 1.0
    assert evaluate(model, val, cb).accuracy == 1.0


def test_training_increases_divergence():
    train, val = _split_even(_blobs())
    cb = make_codebook(2, 4)
    model = _linear_model().initialize(np.random.default_rng(2))
    before = analyze(model.forward(train.samples, mode="infer"),
                     train.labels, cb).divergence
    cfg = TrainConfig(learning_rate=0.01, batch_size=16, max_epochs=30,
                      patience=30, seed=0)
    fit(model, train, val, cb, cfg)
    after = analyze(model.forward(train.samples, mode="infer"),
                    train.labels, cb).divergence
    assert after > before


def test_zero_learning_rate_leaves_weights_bit_identical():
    train, val = _split_even(_blobs())
    cb = make_codebook(2, 4)
    model = _linear_model().initialize(np.random.default_rng(3))
    before = model.snapshot()
    cfg = TrainConfig(learning_rate=0.0, batch_size=16, max_epochs=3,
                      patience=3, seed=0)
    fit(model, train, val, cb, cfg)
    for a, b in zip(model.state_arrays, before):
        np.testing.assert_array_equal(a, b)


def test_fit_restores_best_validation_weights():
    train, val = _split_even(_blobs())
    cb = make_codebook(2, 4)
    model = _linear_model().initialize(np.random.default_rng(4))
    cfg = TrainConfig(learning_rate=0.01, batch_size=16, max_epochs=40,
                      patience=40, seed=0)
    report = fit(model, train, val, cb, cfg)
    assert evaluate(model, val, cb).mean_loss == pytest.approx(
        min(report.val_loss), rel=1e-12)


def test_fit_early_stops_on_patience():
    train, val = _split_even(_blobs())
    cb = make_codebook(2, 4)
    model = _linear_model().initialize(np.random.default_rng(5))
    cfg = TrainConfig(learning_rate=0.01, batch_size=16, max_epochs=500,
                      patience=5, seed=0)
    report = fit(model, train, val, cb, cfg)
    assert report.epochs_run < 500
    assert report.epochs_run <= report.best_epoch + 5


def test_fit_raises_on_divergence():
    train, val = _split_even(_blobs(sep=8.0))
    cb = make_codebook(2, 4)
    model = _linear_model().initialize(np.random.default_rng(6))
    cfg = TrainConfig(learning_rate=1e6, batch_size=16, max_epochs=10,
                      patience=10, seed=0)
    with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError):
        fit(model, train, val, cb, cfg)


def test_non_finite_validation_loss_is_divergence():
    # one batch per epoch and one epoch: no later training batch would see
    # the blown-up weights, only the validation pass does
    train, val = _split_even(_blobs())
    cb = make_codebook(2, 4)
    model = _linear_model().initialize(np.random.default_rng(6))
    cfg = TrainConfig(learning_rate=1e308, batch_size=len(train), max_epochs=1,
                      patience=1, seed=0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(TrainingDivergedError, match="validation"):
        fit(model, train, val, cb, cfg)


def test_fit_validates_rank_and_labels():
    train, val = _split_even(_blobs())
    model = _linear_model(rank=4).initialize(np.random.default_rng(7))
    cfg = TrainConfig()
    with pytest.raises(Exception):
        fit(model, train, val, make_codebook(2, 8), cfg)   # rank mismatch
    small_cb = make_codebook(1, 4)
    with pytest.raises(ContractError):
        fit(model, train, val, small_cb, cfg)              # needs >= 2 classes


def _with_label_2(ds):
    """``ds`` with its last label moved to class 2."""
    labels = ds.labels.copy()
    labels[-1] = 2
    return LabeledDataset(samples=ds.samples, labels=labels, class_count=3)


@pytest.mark.parametrize("fault", ["validation-label-2", "empty-validation", "empty-training"])
def test_fit_checks_both_datasets_before_training(monkeypatch, fault):
    train, val = _split_even(_blobs())
    empty = train.subset(np.array([], dtype=np.int64))
    train, val = {"validation-label-2": (train, _with_label_2(val)),
                  "empty-validation": (train, empty), "empty-training": (empty, val)}[fault]
    model = _linear_model().initialize(np.random.default_rng(7))
    batches = []
    monkeypatch.setattr(trainer, "mse_loss", lambda *a, **k: batches.append(1) or mse_loss(*a, **k))
    with pytest.raises(ContractError):
        fit(model, train, val, make_codebook(2, 4), TrainConfig(max_epochs=2))
    assert batches == []


def test_evaluate_checks_labels_before_the_first_batch(monkeypatch):
    model = _linear_model().initialize(np.random.default_rng(8))
    batches, forward = [], model.forward
    monkeypatch.setattr(model, "forward", lambda *a, **k: batches.append(1) or forward(*a, **k))
    with pytest.raises(ContractError, match="without an assigned Walsh row"):
        evaluate(model, _with_label_2(_blobs()), make_codebook(2, 4))
    assert batches == []


def test_evaluate_confusion_and_accuracy_consistent():
    ds = _blobs()
    cb = make_codebook(2, 4)
    model = _linear_model().initialize(np.random.default_rng(8))
    result = evaluate(model, ds, cb)
    assert result.confusion.sum() == len(ds)
    assert result.accuracy == pytest.approx(np.trace(result.confusion) / len(ds))
    with pytest.raises(ContractError):
        evaluate(model, ds.subset(np.array([], dtype=np.int64)), cb)


def test_derive_rng_streams_are_independent():
    a = derive_rng(0, 0, 0).integers(2 ** 31)
    b = derive_rng(0, 0, 1).integers(2 ** 31)
    c = derive_rng(0, 1, 0).integers(2 ** 31)
    assert len({int(a), int(b), int(c)}) == 3
    assert derive_rng(0, 0, 0).integers(2 ** 31) == a


def test_run_trials_deterministic_and_reports_per_trial():
    ds = _blobs(n=40)
    cb = make_codebook(2, 4)
    cfg = TrainConfig(learning_rate=0.01, batch_size=16, max_epochs=20,
                      patience=20, seed=0)
    spec = SplitSpec(0.7, 0.2, seed=5)
    a = run_trials(lambda: _linear_model(), ds, spec, cb, cfg, 3)
    b = run_trials(lambda: _linear_model(), ds, spec, cb, cfg, 3)
    assert a.accuracies == b.accuracies
    assert len(a.reports) == 3
    with pytest.raises(ContractError):
        run_trials(lambda: _linear_model(), ds, spec, cb, cfg, 0)


def _xor_signals(m=200, seed=0):
    """Linearly inseparable: label is the sign product of two positions."""
    rng = np.random.default_rng(seed)
    ab = rng.choice([-1.0, 1.0], size=(m, 2))
    sig = np.zeros((m, 4))
    sig[:, 0], sig[:, 1] = ab[:, 0], ab[:, 1]
    sig += 0.1 * rng.normal(size=sig.shape)
    labels = (ab[:, 0] * ab[:, 1] > 0).astype(int)
    return LabeledDataset(samples=sig, labels=labels, class_count=2)


def test_growth_stops_at_depth_1_on_separable_data():
    train, val = _split_even(_blobs(sep=4.0))
    cb = make_codebook(2, 4)
    cfg = TrainConfig(learning_rate=0.01, batch_size=16, max_epochs=150,
                      patience=30, seed=0)
    template = GrowthTemplate(input_shape=(1, 6), filters=(2, 2), planes=8)
    model, report = grow_layers(template, train, val, cb, cfg, threshold=0.95)
    assert report.growth_history[0][0] == 1
    assert report.growth_history[-1][0] == 1          # stopped immediately
    assert report.growth_history[0][1] > 0.95
    assert not report.cap_reached


def test_growth_exceeds_depth_1_on_xor_data():
    train, val = _split_even(_xor_signals())
    cb = make_codebook(2, 4)
    cfg = TrainConfig(learning_rate=0.02, batch_size=16, max_epochs=150,
                      patience=30, seed=0)
    template = GrowthTemplate(input_shape=(1, 4), filters=(2, 2), planes=8)
    model, report = grow_layers(template, train, val, cb, cfg, threshold=0.95)
    depths = [d for d, _ in report.growth_history]
    assert depths[0] == 1
    assert report.growth_history[0][1] <= 0.95        # linear map cannot solve it
    assert depths[-1] > 1
    assert report.growth_history[-1][1] > 0.95


def test_growth_threshold_zero_accepts_first_model():
    train, val = _split_even(_blobs())
    cb = make_codebook(2, 4)
    cfg = TrainConfig(learning_rate=0.01, batch_size=16, max_epochs=5,
                      patience=5, seed=0)
    template = GrowthTemplate(input_shape=(1, 6), filters=(2,), planes=4)
    _, report = grow_layers(template, train, val, cb, cfg, threshold=0.0)
    assert report.growth_history == [(1, report.growth_history[0][1])]


def test_growth_cap_returns_best_so_far():
    train, val = _split_even(_xor_signals())
    cb = make_codebook(2, 4)
    cfg = TrainConfig(learning_rate=0.001, batch_size=16, max_epochs=3,
                      patience=3, seed=0)
    template = GrowthTemplate(input_shape=(1, 4), filters=(2, 2), planes=4)
    _, report = grow_layers(template, train, val, cb, cfg, threshold=0.99,
                            max_depth=2)
    assert report.cap_reached
    assert len(report.growth_history) == 2


def test_growth_template_depth_bounds():
    template = GrowthTemplate(input_shape=(1, 4), filters=(2,), planes=4)
    assert template.max_depth == 2
    with pytest.raises(ContractError):
        template.build_model(3, 4)
    with pytest.raises(ContractError):
        grow_layers(template, _blobs(), _blobs(), make_codebook(2, 4),
                    TrainConfig(), threshold=1.5)
    with pytest.raises(ContractError):
        grow_layers(template, _blobs(), _blobs(), make_codebook(2, 4),
                    TrainConfig(), max_depth=0)


def test_growth_template_2d_builds_every_depth():
    template = GrowthTemplate(input_shape=(1, 6, 5), filters=((3, 2), (2, 2)), planes=4,
                              use_batchnorm=True)
    block = ["batchnorm", "relu"]
    expected = {
        1: ["conv2d 6x5 8"],
        2: ["conv2d 3x2 4"] + block + ["conv2d 4x4 8"],
        3: ["conv2d 3x2 4"] + block + ["conv2d 2x2 4"] + block + ["conv2d 3x3 8"],
    }
    for depth in range(1, template.max_depth + 1):
        model = template.build_model(depth, 8)
        assert model.spec_lines() == expected[depth] + ["flatten"]
        assert model.input_shape == (1, 6, 5) and model.output_shape == (8,)


def test_growth_template_2d_schedule_outgrowing_the_map():
    template = GrowthTemplate(input_shape=(1, 4, 4), filters=((3, 3), (3, 3)), planes=2)
    assert template.build_model(2, 4).spec_lines() == [
        "conv2d 3x3 2", "relu", "conv2d 2x2 4", "flatten"]
    with pytest.raises(ShapeError):
        template.build_model(3, 4)


def test_growth_schedule_outgrowing_the_map_fails_before_any_fit(monkeypatch):
    # filters 4 4 4 on length-8 signals leave a map of length 2 for the third
    fits = []
    monkeypatch.setattr(trainer, "fit", lambda *args, **kwargs: fits.append(args))
    template = GrowthTemplate(input_shape=(1, 8), filters=(4, 4, 4), planes=4)
    train, val = _split_even(_blobs(dim=8))
    with pytest.raises(ShapeError):
        grow_layers(template, train, val, make_codebook(2, 4), TrainConfig(), threshold=1.0)
    assert fits == []


def _batchnorm_model(dim=6, rank=4):
    return FeatureExtractor([Flatten(), Dense(rank), BatchNorm()], (1, dim), rank)


@pytest.mark.parametrize("batch_size, train_size", [(1, 60), (16, 1)])
def test_fit_rejects_single_sample_batches_with_batchnorm(batch_size, train_size):
    train, val = _split_even(_blobs())
    train = train.subset(np.arange(train_size))
    model = _batchnorm_model().initialize(np.random.default_rng(0))
    cfg = TrainConfig(batch_size=batch_size, max_epochs=2, patience=2)
    with pytest.raises(ContractError):
        fit(model, train, val, make_codebook(2, 4), cfg)


def test_fit_checks_batchnorm_batches_after_augmentation():
    train, val = _split_even(_blobs())
    model = _batchnorm_model().initialize(np.random.default_rng(0))
    cfg = TrainConfig(batch_size=16, max_epochs=2, patience=2,
                      augment=AugmentConfig(factor=3))
    report = fit(model, train.subset([0]), val, make_codebook(2, 4), cfg)
    assert report.epochs_run == 2


# ---------------------------------------------------------------- flat SGD step

def _conv_model(dim=6, rank=4):
    return FeatureExtractor([Conv1D(3, 4, padding="same"), BatchNorm(), ReLU(), Flatten(),
                             Dense(rank)], (1, dim), rank)


def _reference_sgd_epoch(model, train, codebook, cfg):
    """fit's first epoch with the update written per array: v *= m; v += g; p -= lr*v."""
    targets = codebook.targets()[train.labels]
    order = derive_rng(cfg.seed, 0, trainer.STREAM_SHUFFLE).permutation(len(train))
    params = model.trainable_params
    velocity = [np.zeros_like(p) for p in params]
    for start in range(0, len(train), cfg.batch_size):
        idx = order[start:start + cfg.batch_size]
        tape = GradientTape()
        out = model.forward(train.samples[idx], mode="train", tape=tape)
        _, grads = backward(tape, mse_loss(out, targets[idx], tape=tape))
        for (p, g), v in zip(grads, velocity, strict=True):
            v *= cfg.momentum
            v += g
            p -= cfg.learning_rate * v


def test_flat_sgd_step_equals_per_array_reference():
    train, val = _split_even(_blobs())
    cb = make_codebook(2, 4)
    cfg = TrainConfig(learning_rate=0.02, momentum=0.9, batch_size=16, max_epochs=1,
                      patience=1, seed=3)
    model = _conv_model().initialize(np.random.default_rng(40))
    reference = _conv_model().initialize(np.random.default_rng(40))
    fit(model, train, val, cb, cfg)
    _reference_sgd_epoch(reference, train, cb, cfg)
    moved = False
    for a, b, start in zip(model.state_arrays, reference.state_arrays,
                           _conv_model().initialize(np.random.default_rng(40)).state_arrays):
        np.testing.assert_array_equal(a, b)   # bit for bit
        moved = moved or not np.array_equal(a, start)
    assert moved


def test_fit_rejects_a_parameter_rebound_after_initialize():
    train, val = _split_even(_blobs())
    cfg = TrainConfig(batch_size=16, max_epochs=1, patience=1)
    model = _conv_model().initialize(np.random.default_rng(41))
    model.layers[0].weights = model.layers[0].weights.copy()
    with pytest.raises(ContractError, match="initialize"):
        fit(model, train, val, make_codebook(2, 4), cfg)
    with pytest.raises(ContractError, match="initialize"):
        fit(_conv_model(), train, val, make_codebook(2, 4), cfg)   # never initialised


class _Detached(Layer):
    """Identity with a parameter that no tape entry reaches."""

    param_names = ("weights",)

    def wire(self, in_shape):
        return tuple(in_shape)

    def init_params(self, rng):
        self.weights = np.ones(2)

    def forward(self, x, mode="infer", tape=None):
        return x


def test_fit_rejects_a_parameter_without_gradient():
    train, val = _split_even(_blobs())
    model = FeatureExtractor([_Detached(), Flatten(), Dense(4)], (1, 6), 4)
    model.initialize(np.random.default_rng(42))
    cfg = TrainConfig(batch_size=16, max_epochs=1, patience=1)
    with pytest.raises(ContractError, match="no gradient"):
        fit(model, train, val, make_codebook(2, 4), cfg)


class _SwappedDense(Dense):
    """Dense whose tape entry lists its bias before its weights."""

    def forward(self, x, mode="infer", tape=None):
        weights, bias = self.weights, self.bias
        y = x @ weights.T + bias
        if tape is not None:
            tape.record(y, (x, bias, weights),
                        lambda dy: (dy @ weights, dy.sum(axis=0), dy.T @ x), "dense")
        return y


def test_fit_rejects_gradients_out_of_parameter_order():
    # each gradient is copied into its parameter's slice by position, so an
    # entry that records its arrays out of param_names order is refused
    train, val = _split_even(_blobs())
    model = FeatureExtractor([Flatten(), _SwappedDense(4)], (1, 6), 4)
    model.initialize(np.random.default_rng(43))
    cfg = TrainConfig(batch_size=16, max_epochs=1, patience=1)
    with pytest.raises(ContractError, match="no gradient"):
        fit(model, train, val, make_codebook(2, 4), cfg)


@pytest.mark.parametrize("field", ["learning_rate", "momentum"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_train_config_rejects_non_finite_rates(field, value):
    with pytest.raises(ContractError):
        TrainConfig(**{field: value})


def test_train_config_rejects_negative_seed():
    with pytest.raises(ContractError, match="seed"):
        TrainConfig(seed=-1)
