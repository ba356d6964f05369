"""Training-set augmentation for 1D signals.

Four operations that leave the magnitude spectrum (the discriminative part
of the signals) essentially untouched: random amplification, polarity
inversion, circular rotation along time, and additive noise at a fixed SNR.
:func:`expand_training_set` grows a dataset by an integer factor, keeping
every original sample and appending independently composed variants.
"""

from dataclasses import dataclass, replace

import numpy as np

from .numerics import ContractError, allocate

# Each operation applies independently with probability OP_PROBABILITY: a gain
# drawn uniformly from GAIN_RANGE, polarity inversion, a rotation by up to
# MAX_ROTATION of the signal length, and noise at SNR_DB.
OP_PROBABILITY = 0.5
GAIN_RANGE = (0.7, 1.3)
SNR_DB = 20.0
MAX_ROTATION = 1.0


@dataclass(frozen=True)
class AugmentConfig:
    factor: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.factor < 1:
            raise ContractError("expansion factor must be >= 1")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")


def amplify(signal: np.ndarray, gain: float) -> np.ndarray:
    if gain <= 0:
        raise ContractError(f"gain must be > 0, got {gain}")
    return np.asarray(signal, dtype=np.float64) * gain


def invert_polarity(signal: np.ndarray) -> np.ndarray:
    return -np.asarray(signal, dtype=np.float64)


def rotate_time(signal: np.ndarray, shift: int) -> np.ndarray:
    """Circular shift along time; shift is taken modulo the length."""
    return np.roll(np.asarray(signal, dtype=np.float64), shift)


def add_noise(signal: np.ndarray, snr_db: float, rng: np.random.Generator) -> np.ndarray:
    """Add zero-mean Gaussian noise at the given signal-to-noise ratio.

    The noise power is the signal power over the SNR, so a zero-power signal
    gets no noise.
    """
    signal = np.asarray(signal, dtype=np.float64)
    power = float(np.mean(signal ** 2))
    noise_std = np.sqrt(power / 10.0 ** (snr_db / 10.0))
    return signal + rng.normal(0.0, noise_std, size=signal.shape)


def augment_signal(signal: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One random variant: each operation applied independently with
    probability :data:`OP_PROBABILITY`."""
    out = np.asarray(signal, dtype=np.float64)
    p = OP_PROBABILITY
    if rng.random() < p:
        out = amplify(out, rng.uniform(*GAIN_RANGE))
    if rng.random() < p:
        out = invert_polarity(out)
    if rng.random() < p:
        max_shift = int(MAX_ROTATION * out.shape[-1])
        if max_shift > 0:
            out = rotate_time(out, int(rng.integers(0, max_shift + 1)))
    if rng.random() < p:
        out = add_noise(out, SNR_DB, rng)
    return out


def expand_training_set(dataset, config: AugmentConfig):
    """Expand a 1D-signal dataset by ``config.factor``.

    Output keeps every original sample and appends factor-1 variants per
    sample with the label copied. Variant j (of sample j mod n) draws from
    ``SeedSequence(seed, spawn_key=(j,))``. The output is allocated first, so
    a factor too large for memory fails at once.
    """
    samples = np.asarray(dataset.samples, dtype=np.float64)
    if samples.ndim != 2:
        raise ContractError("augmentation is defined for 1D signals only")
    if config.factor == 1:
        return dataset

    n = samples.shape[0]
    out = allocate(np.empty, (n * config.factor, samples.shape[1]))
    labels = np.tile(dataset.labels, config.factor)
    out[:n] = samples
    for j in range(n * (config.factor - 1)):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(j,)))
        out[n + j] = augment_signal(samples[j % n], rng)
    return replace(dataset, samples=out, labels=labels)
