"""Training-set augmentation for 1D signals.

Four operations that leave the magnitude spectrum (the discriminative part
of the signals) essentially untouched: random amplification, polarity
inversion, circular rotation along time, and additive noise at a fixed SNR.
:func:`expand_training_set` grows a dataset by an integer factor, keeping
every original sample and appending independently composed variants.
"""

from dataclasses import dataclass, replace

import numpy as np

from .numerics import ContractError

# Each augmentation operation is applied independently with this probability.
OP_PROBABILITY = 0.5


@dataclass(frozen=True)
class AugmentConfig:
    gain_low: float = 0.7
    gain_high: float = 1.3
    snr_db: float = 20.0
    max_rotation: float = 1.0   # fraction of the signal length
    factor: int = 3
    seed: int = 0

    def __post_init__(self):
        for name in ("gain_low", "gain_high", "snr_db", "max_rotation"):
            if not np.isfinite(getattr(self, name)):
                raise ContractError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0 < self.gain_low <= self.gain_high:
            raise ContractError("need 0 < gain_low <= gain_high")
        if self.factor < 1:
            raise ContractError("expansion factor must be >= 1")
        if not 0.0 <= self.max_rotation <= 1.0:
            raise ContractError("max_rotation must be in [0, 1]")
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


def augment_signal(signal: np.ndarray, config: AugmentConfig,
                   rng: np.random.Generator) -> np.ndarray:
    """One random variant: each operation applied independently with
    probability :data:`OP_PROBABILITY`."""
    out = np.asarray(signal, dtype=np.float64)
    p = OP_PROBABILITY
    if rng.random() < p:
        out = amplify(out, rng.uniform(config.gain_low, config.gain_high))
    if rng.random() < p:
        out = invert_polarity(out)
    if rng.random() < p:
        max_shift = int(config.max_rotation * out.shape[-1])
        if max_shift > 0:
            out = rotate_time(out, int(rng.integers(0, max_shift + 1)))
    if rng.random() < p:
        out = add_noise(out, config.snr_db, rng)
    return out


def expand_training_set(dataset, config: AugmentConfig):
    """Expand a 1D-signal dataset by ``config.factor``.

    Output keeps every original sample and appends factor-1 variants per
    sample with the label copied. Deterministic for a fixed seed: each
    variant draws from its own spawned RNG stream.
    """
    samples = np.asarray(dataset.samples, dtype=np.float64)
    if samples.ndim != 2:
        raise ContractError("augmentation is defined for 1D signals only")
    if config.factor == 1:
        return dataset

    n = samples.shape[0]
    streams = np.random.SeedSequence(config.seed).spawn(n * (config.factor - 1))
    out_samples = [samples]
    for v in range(config.factor - 1):
        variants = np.empty_like(samples)
        for i in range(n):
            rng = np.random.default_rng(streams[v * n + i])
            variants[i] = augment_signal(samples[i], config, rng)
        out_samples.append(variants)
    return replace(dataset, samples=np.concatenate(out_samples, axis=0),
                   labels=np.tile(dataset.labels, config.factor))
