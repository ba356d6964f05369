"""Training loop, evaluation, N-trial protocol and layer growing.

Training minimizes the summed squared error between the feature extractor's
output and the Walsh row assigned to each sample's class, with SGD plus
momentum applied as three operations on the model's flat parameter vector.
After every epoch the validation set is scored through the minimum-distance
classifier; early stopping watches the validation loss and the
best-validation weights are restored at exit.
"""

from dataclasses import dataclass, field

import numpy as np

from . import mdn
from .augment import AugmentConfig, expand_training_set
from .data_io import LabeledDataset, SplitSpec, split
from .layers import BatchNorm, Conv1D, Conv2D, FeatureExtractor, Flatten, ReLU, mse_loss
from .numerics import ContractError, GradientTape, ShapeError, backward
from .walsh import WalshCodebook

# Sub-seed stream ids; all randomness of one run flows from a single master
# seed through SeedSequence(master, spawn_key=(trial, stream)).
STREAM_SPLIT = 0
STREAM_INIT = 1
STREAM_SHUFFLE = 2

# Samples per forward pass when scoring a dataset (evaluate, divergence).
EVAL_BATCH_SIZE = 256


def derive_rng(master_seed: int, trial: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(trial, stream)))


class TrainingDivergedError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    momentum: float = 0.9
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    augment: AugmentConfig | None = None

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ContractError(f"learning rate must be finite and >= 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:   # also rejects nan
            raise ContractError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ContractError("batch_size, max_epochs and patience must be >= 1")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainReport:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    val_accuracy: list = field(default_factory=list)
    epochs_run: int = 0
    best_epoch: int = 0
    growth_history: list = field(default_factory=list)   # (depth, train_accuracy)
    cap_reached: bool = False


@dataclass(frozen=True)
class EvalResult:
    accuracy: float
    mean_loss: float
    confusion: np.ndarray


def _check_datasets(codebook, *datasets):
    for dataset in datasets:
        if len(dataset) == 0:
            raise ContractError("cannot train on or evaluate an empty dataset")
        if (dataset.labels >= codebook.class_count).any():
            raise ContractError("dataset contains labels without an assigned Walsh row")


def evaluate(model: FeatureExtractor, dataset: LabeledDataset,
             codebook: WalshCodebook) -> EvalResult:
    """Minimum-distance classification accuracy, mean loss and confusion matrix."""
    _check_datasets(codebook, dataset)
    c = codebook.class_count
    confusion = np.zeros((c, c), dtype=np.int64)
    total_loss = 0.0
    correct = 0
    targets = codebook.targets()
    for start in range(0, len(dataset), EVAL_BATCH_SIZE):
        xb = dataset.samples[start:start + EVAL_BATCH_SIZE]
        yb = dataset.labels[start:start + EVAL_BATCH_SIZE]
        out = model.forward(xb, mode="infer")
        pred = mdn.classify_batch(out, codebook)
        correct += int(np.sum(pred == yb))
        diff = out - targets[yb]
        total_loss += float(np.sum(diff * diff))
        np.add.at(confusion, (yb, pred), 1)
    n = len(dataset)
    return EvalResult(accuracy=correct / n, mean_loss=total_loss / n, confusion=confusion)


def _has_batchnorm(model):
    return any(isinstance(layer, BatchNorm) for layer in model.layers)


def fit(model: FeatureExtractor, train_set: LabeledDataset,
        validation_set: LabeledDataset, codebook: WalshCodebook,
        config: TrainConfig, trial: int = 0,
        log=None) -> TrainReport:
    """Train the feature extractor onto its Walsh targets.

    Stops at ``max_epochs`` or when the validation loss has not improved for
    ``patience`` epochs; the best-validation weights are restored at exit.
    """
    if codebook.class_count < 2:
        raise ContractError("training requires at least 2 classes")
    if model.rank != codebook.rank:
        raise ShapeError(f"model output dim {model.rank} != codebook rank {codebook.rank}")
    _check_datasets(codebook, train_set, validation_set)

    if config.augment is not None and config.augment.factor > 1:
        train_set = expand_training_set(train_set, config.augment)
    needs_batch2 = _has_batchnorm(model)
    if needs_batch2 and min(config.batch_size, len(train_set)) < 2:
        raise ContractError("batch normalization needs training batches of at least "
                            "2 samples")

    shuffle_rng = derive_rng(config.seed, trial, STREAM_SHUFFLE)

    targets = codebook.targets()[train_set.labels]
    params = model.trainable_params
    flat = model.params
    if (flat is None or sum(p.size for p in params) != flat.size
            or not all(np.shares_memory(p, flat) for p in params)):
        raise ContractError("the trainable arrays are not views of model.params; "
                            "call model.initialize() after replacing one")
    grad = np.empty_like(flat)
    grad_views = model.flat_views(grad)
    velocity = np.zeros_like(flat)

    report = TrainReport()
    best_val = np.inf
    best_snapshot = model.snapshot()
    since_best = 0
    n = len(train_set)

    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(n)
        batch_losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            if needs_batch2 and idx.size == 1:
                continue   # batch norm cannot normalize a single sample
            xb = train_set.samples[idx]
            tb = targets[idx]
            tape = GradientTape()
            out = model.forward(xb, mode="train", tape=tape)
            loss = mse_loss(out, tb, tape=tape)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}")
            _, grads = backward(tape, loss)
            if len(grads) != len(params) or any(a is not p for (a, _), p in zip(grads, params)):
                raise ContractError("a trainable array received no gradient")
            for view, (_, g) in zip(grad_views, grads):
                view[...] = g
            velocity *= config.momentum
            velocity += grad
            flat -= config.learning_rate * velocity
            batch_losses.append(float(loss))

        val = evaluate(model, validation_set, codebook)
        if not np.isfinite(val.mean_loss):
            raise TrainingDivergedError(f"non-finite validation loss at epoch {epoch}")
        report.train_loss.append(float(np.mean(batch_losses)))
        report.val_loss.append(val.mean_loss)
        report.val_accuracy.append(val.accuracy)
        report.epochs_run = epoch
        if log is not None:
            log(epoch, report.train_loss[-1], val.mean_loss, val.accuracy)

        if val.mean_loss < best_val:
            best_val = val.mean_loss
            best_snapshot = model.snapshot()
            report.best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break

    model.restore(best_snapshot)
    return report


@dataclass(frozen=True)
class TrialResult:
    accuracies: tuple
    reports: tuple


def run_trials(model_factory, dataset: LabeledDataset, split_spec: SplitSpec,
               codebook: WalshCodebook, config: TrainConfig, n_trials: int,
               normalizer_factory=None) -> TrialResult:
    """N independent seeded splits and trainings from fresh initializations.

    ``model_factory()`` must return a freshly wired, uninitialized model.
    ``normalizer_factory(train_pool_samples)``, when given, returns an object
    with ``apply(dataset)`` fitted on the training pool only.
    """
    if n_trials < 1:
        raise ContractError("n_trials must be >= 1")
    accuracies = []
    reports = []
    for trial in range(n_trials):
        split_seed = int(derive_rng(split_spec.seed, trial, STREAM_SPLIT).integers(2 ** 31))
        train_set, val_set, test_set = split(
            dataset, SplitSpec(split_spec.train_fraction,
                               split_spec.validation_fraction, split_seed))
        if normalizer_factory is not None:
            pool = np.concatenate([train_set.samples, val_set.samples])
            norm = normalizer_factory(pool)
            train_set, val_set, test_set = (norm.apply(train_set), norm.apply(val_set),
                                            norm.apply(test_set))
        model = model_factory()
        model.initialize(derive_rng(config.seed, trial, STREAM_INIT))
        report = fit(model, train_set, val_set, codebook, config, trial=trial)
        accuracies.append(evaluate(model, test_set, codebook).accuracy)
        reports.append(report)
    return TrialResult(accuracies=tuple(accuracies), reports=tuple(reports))


@dataclass(frozen=True)
class GrowthTemplate:
    """Per-depth schedule for the layer-growing procedure.

    At depth d the model is the first d-1 scheduled convolutions (each
    followed by optional batch norm and ReLU) plus a final convolution that
    spans the remaining map and emits one plane per codebook row, then a
    flatten. Depth 1 is therefore the spanning convolution alone, a purely
    linear map.
    """

    input_shape: tuple            # (C, L) or (C, H, W)
    filters: tuple                # ints for 1D, (h, w) pairs for 2D
    planes: int
    use_relu: bool = True
    use_batchnorm: bool = False

    @property
    def max_depth(self) -> int:
        return len(self.filters) + 1

    def build_model(self, depth: int, rank: int) -> FeatureExtractor:
        if depth < 1 or depth > self.max_depth:
            raise ContractError(f"depth {depth} outside 1..{self.max_depth}")
        conv = Conv1D if len(self.input_shape) == 2 else Conv2D
        shape = self.input_shape
        layers = []
        for f in self.filters[:depth - 1]:
            block = [conv(*(f if isinstance(f, tuple) else (f,)), self.planes)]
            if self.use_batchnorm:
                block.append(BatchNorm())
            if self.use_relu:
                block.append(ReLU())
            for layer in block:
                shape = layer.wire(shape)   # ShapeError once the schedule outgrows the map
            layers += block
        layers.append(conv(*shape[1:], rank))
        layers.append(Flatten())
        return FeatureExtractor(layers, self.input_shape, rank)


def grow_layers(template: GrowthTemplate, train_set: LabeledDataset,
                validation_set: LabeledDataset, codebook: WalshCodebook,
                config: TrainConfig, threshold: float = 0.95,
                max_depth: int = 9):
    """Add convolution layers until training accuracy clears the threshold.

    Every round retrains from a fresh initialization. Returns the first
    model whose training accuracy exceeds the threshold, or the best one
    found when the depth cap is reached (flagged in the report).
    """
    if not 0.0 <= threshold <= 1.0:
        raise ContractError(f"threshold must be in [0, 1], got {threshold}")
    if max_depth < 1:
        raise ContractError(f"max_depth must be >= 1, got {max_depth}")
    max_depth = min(max_depth, template.max_depth)
    # the deepest model first: a schedule that outgrows the map fails before any fit
    template.build_model(max_depth, codebook.rank)
    best = None   # (accuracy, model, report)
    history = []
    for depth in range(1, max_depth + 1):
        model = template.build_model(depth, codebook.rank)
        model.initialize(derive_rng(config.seed, depth, STREAM_INIT))
        report = fit(model, train_set, validation_set, codebook, config, trial=depth)
        train_acc = evaluate(model, train_set, codebook).accuracy
        history.append((depth, train_acc))
        if best is None or train_acc > best[0]:
            best = (train_acc, model, report)
        if threshold == 0.0 or train_acc > threshold:
            report.growth_history = history
            return model, report
    _, model, report = best
    report.growth_history = history
    report.cap_reached = True
    return model, report
