"""DivFE: a CNN feature extractor trained onto Walsh-code targets, classified
by minimum distance, with scatter-based separability analysis, 1D signal
augmentation and automatic layer growing."""

from .augment import AugmentConfig, expand_training_set
from .data_io import LabeledDataset, SplitSpec, split
from .divergence import ScatterReport, analyze, divergence_value
from .layers import (BatchNorm, Conv1D, Conv2D, Dense, Dropout, FeatureExtractor,
                     Flatten, MaxPool, ReLU, mse_loss)
from .mdn import classify_batch
from .trainer import (EvalResult, GrowthTemplate, TrainConfig, TrainReport,
                      evaluate, fit, grow_layers, run_trials)
from .walsh import WalshCodebook, build_modified_walsh, make_codebook

__version__ = "0.1.0"
