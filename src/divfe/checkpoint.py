"""Binary model persistence: magic 'DIVF', little-endian payload, CRC-32.

Layout::

    magic   b"DIVF"
    payload version u32 | class_count u32
            spec_len u32 | model spec text, UTF-8 (divfe.modelspec format)
            every array of model.state_arrays, in order
            has_normalizer u32 (+ mean, std arrays)
    crc32   u32 of the payload

The spec text carries the architecture, input shape and Walsh rank. Every
float64 array is stored as u64 element count + raw little-endian bytes, so a
save/load round trip is bit-exact. The codebook matrix is not stored: it is
rebuilt from the rank with classes on rows 1..class_count, the only
assignment the program makes. A corrupted payload is rejected by the CRC
before any parsing, and a payload that does not decode, or holds a non-finite
value, a negative running variance or a standardizer std <= 0, raises
FormatError.
"""

import struct
import zlib

import numpy as np

from .data_io import FormatError, ParseError, Standardizer
from .layers import BatchNorm, Dense, FeatureExtractor
from .modelspec import format_model_spec, parse_model_spec
from .numerics import ContractError, ShapeError
from .walsh import WalshCodebook, make_codebook

MAGIC = b"DIVF"
VERSION = 2


def _pack_array(arr: np.ndarray) -> bytes:
    data = np.ascontiguousarray(arr, dtype="<f8")
    return struct.pack("<Q", data.size) + data.tobytes()


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def raw(self, size: int) -> bytes:
        if self.pos + size > len(self.buf):
            raise FormatError("truncated checkpoint payload")
        self.pos += size
        return self.buf[self.pos - size:self.pos]

    def take(self, fmt: str):
        values = struct.unpack(fmt, self.raw(struct.calcsize(fmt)))
        return values if len(values) > 1 else values[0]

    def array(self, shape) -> np.ndarray:
        count = self.take("<Q")
        expected = int(np.prod(shape))
        if count != expected:
            raise FormatError(f"array holds {count} values, model expects {expected}")
        arr = np.frombuffer(self.raw(count * 8), dtype="<f8").astype(np.float64)
        if not np.isfinite(arr).all():
            raise FormatError("checkpoint array holds a non-finite value")
        return arr.reshape(shape)


def _state_size(model: FeatureExtractor) -> int:
    """The values ``model.state_arrays`` will hold, from its wired layers:
    weights, a bias per convolution plane or Dense unit, and BatchNorm's
    scale, shift and running statistics per plane."""
    return model.weight_count() + sum(
        4 * layer.planes if isinstance(layer, BatchNorm)
        else layer.out_dim if isinstance(layer, Dense)
        else getattr(layer, "planes", 0)          # a convolution's; ReLU and Flatten have none
        for layer in model.layers)


def save_checkpoint(model: FeatureExtractor, codebook: WalshCodebook, path,
                    normalizer: Standardizer | None = None):
    spec = format_model_spec(model).encode("utf-8")
    payload = bytearray(struct.pack("<III", VERSION, codebook.class_count, len(spec)))
    payload += spec
    for arr in model.state_arrays:
        payload += _pack_array(arr)
    if normalizer is not None:
        payload += struct.pack("<I", 1)
        payload += _pack_array(normalizer.mean) + _pack_array(normalizer.std)
    else:
        payload += struct.pack("<I", 0)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


def load_checkpoint(path):
    """Returns (model, codebook, normalizer-or-None)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 or blob[:4] != MAGIC:
        raise FormatError(f"{path}: not a DIVF checkpoint (bad magic)")
    payload, (stored_crc,) = blob[4:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) & 0xFFFFFFFF != stored_crc:
        raise FormatError(f"{path}: CRC mismatch, file is corrupted")

    r = _Reader(payload)
    version = r.take("<I")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    class_count, spec_len = r.take("<II")
    try:
        model = parse_model_spec(r.raw(spec_len).decode("utf-8"))
        # every stored value takes 8 bytes: refuse a spec the file cannot hold
        # before allocating its state
        if 8 * _state_size(model) > len(payload):
            raise FormatError(f"{path}: the model spec needs more values than the file holds")
        model.initialize(0)
        model.restore([r.array(a.shape) for a in model.state_arrays])
        if any((layer.running_var < 0).any() for layer in model.layers
               if isinstance(layer, BatchNorm)):
            raise FormatError(f"{path}: negative batch-normalization running variance")
        codebook = make_codebook(class_count, model.rank)
        has_norm = r.take("<I")
        if has_norm not in (0, 1):
            raise FormatError(f"{path}: bad normalizer flag {has_norm}")
        normalizer = None
        if has_norm:
            normalizer = Standardizer(mean=r.array(model.sample_shape),
                                      std=r.array(model.sample_shape))
            if not (normalizer.std > 0).all():
                raise FormatError(f"{path}: standardizer std must be positive")
    except (ParseError, ShapeError, ContractError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if r.pos != len(payload):
        raise FormatError(f"{path}: {len(payload) - r.pos} trailing bytes in payload")
    return model, codebook, normalizer
