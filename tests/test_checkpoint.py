"""Binary checkpoint persistence: bit-exact round trips and corruption checks."""

import hashlib
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from divfe.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from divfe.cli import main
from divfe.data_io import FormatError, LabeledDataset, Standardizer, save_signals_csv
from divfe.layers import BatchNorm, Conv1D, Conv2D, Dense, FeatureExtractor, Flatten, ReLU
from divfe.modelspec import load_model_spec
from divfe.numerics import GradientTape
from divfe.walsh import make_codebook

SPECS = Path(__file__).resolve().parent.parent / "specs"


def _model_1d():
    layers = [Conv1D(2, 10, padding="same"), ReLU(), Conv1D(4, 10), ReLU(),
              Flatten(), Dense(8)]
    return FeatureExtractor(layers, (1, 4), 8).initialize(np.random.default_rng(0))


def _model_2d():
    layers = [Conv2D(3, 3, 4), BatchNorm(), ReLU(), Flatten(), Dense(8)]
    model = FeatureExtractor(layers, (1, 8, 8), 8).initialize(np.random.default_rng(1))
    # mutate running stats so the round trip covers non-default buffers
    model.forward(np.random.default_rng(2).normal(size=(6, 1, 8, 8)), mode="train",
                  tape=GradientTape())
    return model


def _assert_models_equal(a, b):
    assert a.input_shape == b.input_shape and a.rank == b.rank
    assert [type(l) for l in a.layers] == [type(l) for l in b.layers]
    assert a.spec_lines() == b.spec_lines()
    for pa, pb in zip(a.state_arrays, b.state_arrays):
        np.testing.assert_array_equal(pa, pb)   # bit-exact


def test_round_trip_1d(tmp_path):
    model = _model_1d()
    cb = make_codebook(3, 8)
    path = tmp_path / "m.divf"
    save_checkpoint(model, cb, path)
    back, cb2, norm = load_checkpoint(path)
    _assert_models_equal(model, back)
    assert cb2.class_rows == cb.class_rows and cb2.rank == cb.rank
    np.testing.assert_array_equal(cb2.matrix, cb.matrix)
    assert norm is None


def test_round_trip_2d_with_all_layer_kinds(tmp_path):
    model = _model_2d()
    cb = make_codebook(5, 8)
    path = tmp_path / "m.divf"
    save_checkpoint(model, cb, path)
    back, _, _ = load_checkpoint(path)
    _assert_models_equal(model, back)
    x = np.random.default_rng(3).normal(size=(4, 1, 8, 8))
    np.testing.assert_array_equal(model.forward(x, mode="infer"),
                                  back.forward(x, mode="infer"))


def test_round_trip_with_normalizer(tmp_path):
    model = _model_1d()
    cb = make_codebook(2, 8)
    norm = Standardizer.fit(np.random.default_rng(4).normal(size=(20, 4)))
    path = tmp_path / "m.divf"
    save_checkpoint(model, cb, path, normalizer=norm)
    _, _, norm2 = load_checkpoint(path)
    np.testing.assert_array_equal(norm2.mean, norm.mean)
    np.testing.assert_array_equal(norm2.std, norm.std)


def test_float64_checkpoint_keeps_its_bytes(tmp_path):
    # a float64 model writes no `compute` line, so its checkpoint has the
    # bytes it had before that header existed: this digest was taken then, and
    # retaken when VERSION went from 2 to 3, which changed only that field and
    # the CRC (this model has no BatchNorm)
    model = _model_1d()
    model.params[:] = np.linspace(-1, 1, model.params.size)
    path = tmp_path / "m.divf"
    save_checkpoint(model, make_codebook(3, 8), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "96da656e822c4c3897e4a6f5521ff89d8b6a159380bef7c6af195e91d54c9659")


def test_float32_checkpoint_round_trips_and_reloads_as_float32(tmp_path):
    model = load_model_spec(SPECS / "mnist.spec").initialize(np.random.default_rng(4))
    assert model.compute == np.float32
    cb = make_codebook(10, 16)
    first, again = tmp_path / "m.divf", tmp_path / "again.divf"
    save_checkpoint(model, cb, first)
    back, _, _ = load_checkpoint(first)
    assert back.compute == np.float32
    _assert_models_equal(model, back)
    save_checkpoint(back, cb, again)
    assert first.read_bytes() == again.read_bytes()
    x = np.random.default_rng(5).random((3,) + model.input_shape)
    np.testing.assert_array_equal(model.forward(x), back.forward(x))


def test_file_starts_with_magic(tmp_path):
    path = tmp_path / "m.divf"
    save_checkpoint(_model_1d(), make_codebook(2, 8), path)
    assert path.read_bytes()[:4] == MAGIC


def test_single_byte_corruption_rejected(tmp_path):
    path = tmp_path / "m.divf"
    save_checkpoint(_model_1d(), make_codebook(2, 8), path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="CRC"):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.divf"
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "m.divf"
    save_checkpoint(_model_1d(), make_codebook(2, 8), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_save_is_deterministic(tmp_path):
    model = _model_1d()
    cb = make_codebook(3, 8)
    p1, p2 = tmp_path / "a.divf", tmp_path / "b.divf"
    save_checkpoint(model, cb, p1)
    save_checkpoint(model, cb, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_single_bit_flips_rejected(tmp_path):
    path = tmp_path / "m.divf"
    save_checkpoint(_model_2d(), make_codebook(5, 8), path)
    good = path.read_bytes()
    for pos in range(4, len(good) - 4, 97):
        blob = bytearray(good)
        blob[pos] ^= 1 << (pos % 8)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="CRC"):
            load_checkpoint(path)


# ------------------------------------------------- malformed payloads, valid CRC

SPEC = "input 4\nwalsh_rank 4\nflatten\n"          # no state arrays


def _write(path, payload):
    path.write_bytes(MAGIC + payload + struct.pack("<I", zlib.crc32(payload)))


def _payload(spec=SPEC.encode(), class_count=2, version=VERSION, spec_len=None,
             arrays=b"", tail=struct.pack("<I", 0)):
    spec_len = len(spec) if spec_len is None else spec_len
    return struct.pack("<III", version, class_count, spec_len) + spec + arrays + tail


def _array(values):
    values = np.asarray(values, dtype="<f8")
    return struct.pack("<Q", values.size) + values.tobytes()


def test_hand_built_payload_loads(tmp_path):
    path = tmp_path / "m.divf"
    _write(path, _payload())
    model, codebook, normalizer = load_checkpoint(path)
    assert model.spec_lines() == ["flatten"] and codebook.class_rows == (1, 2)
    assert normalizer is None


DENSE_SPEC = b"input 4\nwalsh_rank 4\nflatten\ndense 4\n"


def test_hand_built_state_and_standardizer_load(tmp_path):
    # the layout the value checks below rely on; a zero running variance is valid
    path = tmp_path / "m.divf"
    _write(path, _payload(spec=DENSE_SPEC + b"batchnorm\n",
                          arrays=_array(np.ones(16)) + _array(np.zeros(4)) + _array(np.ones(4))
                          + _array(np.zeros(4)) + _array(np.zeros(4)) + _array(np.zeros(4)),
                          tail=struct.pack("<I", 1) + _array(np.zeros(4))
                          + _array(np.full(4, 1e-300))))
    model, _, normalizer = load_checkpoint(path)
    assert model.spec_lines() == ["flatten", "dense 4", "batchnorm"]
    np.testing.assert_array_equal(model.layers[2].running_var, 0.0)
    np.testing.assert_array_equal(normalizer.std, 1e-300)


LINKED_SPEC = b"input 4\nwalsh_rank 4\nconv1d 4 4\nbatchnorm\nrelu\nflatten\n"
BATCHNORM_STATE = _array(np.ones(4)) + _array(np.zeros(4)) + _array(np.zeros(4)) + _array(np.ones(4))


def test_a_convolution_that_a_batchnorm_follows_stores_no_bias(tmp_path):
    # its weights, then the BatchNorm's four arrays: no bias between them
    path = tmp_path / "m.divf"
    _write(path, _payload(spec=LINKED_SPEC, arrays=_array(np.arange(16.0)) + BATCHNORM_STATE))
    model, _, _ = load_checkpoint(path)
    conv = model.layers[0]
    assert conv.param_names == ("weights",) and conv.bias is None
    np.testing.assert_array_equal(conv.weights.ravel(), np.arange(16.0))
    save_checkpoint(model, make_codebook(2, 4), tmp_path / "again.divf")
    assert (tmp_path / "again.divf").read_bytes() == path.read_bytes()


MALFORMED = {
    "class-count-zero": _payload(class_count=0),
    "class-count-beyond-rank": _payload(class_count=4),            # rank 4 holds 3
    "walsh-rank-3": _payload(spec=b"input 3\nwalsh_rank 3\nflatten\n"),
    "invalid-utf8": _payload(spec=b"input 4\nwalsh_rank 4\n\xff\xfe\n"),
    "spec-len-past-end": _payload(spec_len=1000),
    "arrays-do-not-match-spec": _payload(spec=b"input 4\nwalsh_rank 4\nflatten\ndense 4\n",
                                         arrays=_array(np.zeros(12)) + _array(np.zeros(4))),
    # the bias a version-2 file stored for that convolution
    "bias-before-a-batchnorm": _payload(spec=LINKED_SPEC, arrays=_array(np.arange(16.0))
                                       + _array(np.zeros(4)) + BATCHNORM_STATE),
    "trailing-bytes": _payload(tail=struct.pack("<I", 0) + b"\0"),
    "version-1": _payload(version=1),
    # version 2 stored a bias for a convolution that a BatchNorm follows
    "version-2": _payload(version=2),
    "normalizer-flag-2": _payload(tail=struct.pack("<I", 2) + _array(np.zeros(4))
                                  + _array(np.ones(4))),
    "malformed-spec": _payload(spec=b"input 4\nwalsh_rank 4\nsoftmax\n"),
    "dropout-layer": _payload(spec=b"input 4\nwalsh_rank 4\nflatten\ndropout 0.5\n"),
    "spec-larger-than-file": _payload(spec=b"input 100000x100000\nwalsh_rank 4\n"
                                           b"flatten\ndense 4\n"),
    # BatchNorm state of 2**40 planes (32 TiB), in a file of no arrays
    "batchnorm-larger-than-file": _payload(spec=b"input 1099511627776x1x1\n"
                                                b"walsh_rank 1099511627776\nbatchnorm\nflatten\n"),
    # 2**64 flattened features: a product that wraps to 0 in int64
    "flatten-past-int64": _payload(spec=b"input 4294967296x4294967296\nwalsh_rank 4\n"
                                        b"flatten\ndense 4\n"),
    # CRC-valid files whose values would make eval report loss=nan
    "nan-weight": _payload(spec=DENSE_SPEC, arrays=_array([np.nan] + [0.0] * 15)
                           + _array(np.zeros(4))),
    "infinite-bias": _payload(spec=DENSE_SPEC, arrays=_array(np.zeros(16))
                              + _array([0.0, np.inf, 0.0, 0.0])),
    "negative-running-var": _payload(spec=DENSE_SPEC + b"batchnorm\n",
                                     arrays=_array(np.zeros(16)) + _array(np.zeros(4))
                                     + _array(np.ones(4)) + _array(np.zeros(4))
                                     + _array(np.zeros(4)) + _array([1.0, 1.0, -1e-3, 1.0])),
    "nan-running-mean": _payload(spec=DENSE_SPEC + b"batchnorm\n",
                                 arrays=_array(np.zeros(16)) + _array(np.zeros(4))
                                 + _array(np.ones(4)) + _array(np.zeros(4))
                                 + _array([0.0, np.nan, 0.0, 0.0]) + _array(np.ones(4))),
    "standardizer-std-zero": _payload(tail=struct.pack("<I", 1) + _array(np.zeros(4))
                                      + _array([1.0, 0.0, 1.0, 1.0])),
    "standardizer-std-negative": _payload(tail=struct.pack("<I", 1) + _array(np.zeros(4))
                                          + _array([1.0, -2.0, 1.0, 1.0])),
    "standardizer-std-infinite": _payload(tail=struct.pack("<I", 1) + _array(np.zeros(4))
                                          + _array([1.0, np.inf, 1.0, 1.0])),
    "standardizer-mean-nan": _payload(tail=struct.pack("<I", 1) + _array([np.nan, 0, 0, 0])
                                      + _array(np.ones(4))),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_payload_is_format_error(tmp_path, case, capsys):
    path = tmp_path / "m.divf"
    _write(path, MALFORMED[case])
    with pytest.raises(FormatError):
        load_checkpoint(path)

    data = tmp_path / "data.csv"
    save_signals_csv(data, LabeledDataset(samples=np.zeros((2, 4)), labels=np.array([0, 1]),
                                          class_count=2))
    assert main(["eval", "--checkpoint", str(path), "--data", str(data)]) == 5
    assert "error=format-error" in capsys.readouterr().err


def test_state_larger_than_file_is_refused_before_allocation(tmp_path):
    path = tmp_path / "m.divf"
    _write(path, _payload(spec=b"input 1048576x1x1\nwalsh_rank 1048576\nbatchnorm\nflatten\n"))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="more values than the file holds"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20      # the four running arrays alone would take 32 MiB


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "base.divf"
    norm = Standardizer.fit(np.random.default_rng(5).normal(size=(10, 4)))
    save_checkpoint(_model_1d(), make_codebook(3, 8), path, normalizer=norm)
    return path.read_bytes()[4:-4]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_payload_loads_or_is_format_error(tmp_path, fuzz_base, data):
    payload = bytearray(fuzz_base)
    # most of the payload is float data: bias the mutations towards the header
    # and the spec text, where a change alters the decoded structure
    hot = st.integers(0, min(len(payload), 200) - 1)
    anywhere = st.integers(0, len(payload) - 1)
    edits = data.draw(st.lists(st.tuples(st.one_of(hot, anywhere), st.integers(0, 255)),
                               min_size=1, max_size=4))
    for pos, value in edits:
        payload[pos] = value
    path = tmp_path / "fuzz.divf"
    _write(path, bytes(payload))
    try:
        load_checkpoint(path)
    except FormatError:
        pass
