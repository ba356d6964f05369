"""1D-signal augmentation operations and training-set expansion."""

import hashlib

import numpy as np
import pytest

from divfe.augment import (AugmentConfig, add_noise, amplify, augment_signal,
                           expand_training_set, invert_polarity, rotate_time)
from divfe.data_io import LabeledDataset
from divfe.numerics import ContractError


def _signal(n=64, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return np.sin(2 * np.pi * 5 * t / n) + 0.3 * rng.normal(size=n)


def test_amplify_scales_linearly():
    s = _signal()
    np.testing.assert_allclose(amplify(s, 1.3), 1.3 * s)
    with pytest.raises(ContractError):
        amplify(s, 0.0)


def test_polarity_inversion_is_involution():
    s = _signal()
    np.testing.assert_array_equal(invert_polarity(invert_polarity(s)), s)


def test_rotation_wraps_modulo_length():
    s = _signal()
    np.testing.assert_array_equal(rotate_time(s, len(s)), s)
    np.testing.assert_array_equal(rotate_time(s, 3), np.roll(s, 3))


def test_polarity_preserves_spectrum_magnitude():
    s = _signal()
    assert np.max(np.abs(np.abs(np.fft.fft(invert_polarity(s)))
                         - np.abs(np.fft.fft(s)))) < 1e-9


def test_rotation_preserves_spectrum_magnitude():
    s = _signal()
    for shift in (1, 7, 31, 63):
        assert np.max(np.abs(np.abs(np.fft.fft(rotate_time(s, shift)))
                             - np.abs(np.fft.fft(s)))) < 1e-9


def test_add_noise_hits_target_snr():
    rng = np.random.default_rng(5)
    s = _signal(4096)
    noisy = add_noise(s, 20.0, rng)
    noise = noisy - s
    snr_db = 10 * np.log10(np.mean(s ** 2) / np.mean(noise ** 2))
    assert abs(snr_db - 20.0) < 0.5


def test_add_noise_leaves_zero_signal_unchanged():
    # the noise power is the signal power over the SNR: none for a zero signal
    out = add_noise(np.zeros(8), 20.0, np.random.default_rng(0))
    np.testing.assert_array_equal(out, np.zeros(8))


def test_augment_signal_deterministic_per_stream():
    s = _signal()
    a = augment_signal(s, np.random.default_rng(7))
    b = augment_signal(s, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)


def _dataset(n_per_class=5, length=32):
    rng = np.random.default_rng(1)
    samples = rng.normal(size=(2 * n_per_class, length)) + 1.0
    labels = np.repeat([0, 1], n_per_class)
    return LabeledDataset(samples=samples, labels=labels, class_count=2)


def test_expansion_triples_each_class_and_keeps_originals():
    ds = _dataset()
    out = expand_training_set(ds, AugmentConfig(factor=3, seed=0))
    assert len(out) == 3 * len(ds)
    for cls in (0, 1):
        assert np.sum(out.labels == cls) == 3 * np.sum(ds.labels == cls)
    np.testing.assert_array_equal(out.samples[:len(ds)], ds.samples)
    np.testing.assert_array_equal(out.labels[:len(ds)], ds.labels)


def test_expansion_variants_differ_from_originals():
    ds = _dataset()
    out = expand_training_set(ds, AugmentConfig(factor=2, seed=3))
    variants = out.samples[len(ds):]
    # with 4 candidate ops at p=0.5 each, all-identity for every sample is
    # astronomically unlikely; at least one variant must differ
    assert not np.array_equal(variants, ds.samples)


def test_expansion_is_deterministic():
    ds = _dataset()
    a = expand_training_set(ds, AugmentConfig(factor=3, seed=11))
    b = expand_training_set(ds, AugmentConfig(factor=3, seed=11))
    np.testing.assert_array_equal(a.samples, b.samples)
    c = expand_training_set(ds, AugmentConfig(factor=3, seed=12))
    assert not np.array_equal(a.samples, c.samples)


def test_expansion_matches_the_spawned_stream_reference():
    # the reference spawns every child stream up front: variant j must draw
    # from the j-th child of SeedSequence(seed)
    ds = _dataset()
    factor, seed = 3, 11
    n = len(ds)
    streams = np.random.SeedSequence(seed).spawn(n * (factor - 1))
    reference = np.concatenate(
        [ds.samples] + [np.stack([augment_signal(ds.samples[i],
                                                 np.random.default_rng(streams[v * n + i]))
                                  for i in range(n)])
                        for v in range(factor - 1)])
    out = expand_training_set(ds, AugmentConfig(factor=factor, seed=seed))
    assert out.samples.tobytes() == reference.tobytes()
    np.testing.assert_array_equal(out.labels, np.tile(ds.labels, factor))
    # and the bytes themselves: the fixed gain range, SNR and rotation included
    assert hashlib.sha256(out.samples.tobytes()).hexdigest()[:16] == "dba9bc426935836b"


def test_factor_one_returns_dataset_unchanged():
    ds = _dataset()
    assert expand_training_set(ds, AugmentConfig(factor=1)) is ds


def test_expansion_rejects_non_1d_samples():
    ds = LabeledDataset(samples=np.zeros((4, 2, 3)), labels=np.zeros(4, dtype=int),
                        class_count=1)
    with pytest.raises(ContractError):
        expand_training_set(ds, AugmentConfig(factor=2))


def test_config_validation():
    with pytest.raises(ContractError):
        AugmentConfig(factor=0)
    with pytest.raises(ContractError):
        AugmentConfig(seed=-1)
