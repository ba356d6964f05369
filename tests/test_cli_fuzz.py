"""Fuzzing the command line in-process through ``cli.main``.

Each example takes valid inputs for one of the five commands, mutates one of
the files that command reads (spec text, config text, signal CSV, IDX pair,
growth template or checkpoint bytes, or one stored checkpoint array scaled by
1e300) and runs the command. Whatever the mutation, no exception may escape
``main``: a run either exits 0 with nothing on stderr, or exits non-zero with
exactly one ``error=<category>: ...`` line whose category is not ``internal``.
A scaled array holds valid values that may overflow once applied, which is a
``format-error``.
"""

import contextlib
import io
import re
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divfe.checkpoint import save_checkpoint
from divfe.cli import main
from divfe.data_io import Standardizer
from divfe.modelspec import parse_model_spec
from divfe.walsh import make_codebook

SPEC = "input 8\nwalsh_rank 4\nconv1d 3 2\nbatchnorm\nrelu\nflatten\ndense 4\n"
CONFIG = ("seed = 1\nlr = 0.01\nbatch = 4\nepochs = 2\npatience = 2\n"
          "train_fraction = 0.6\nval_fraction = 0.3\naugment_factor = 1\n")
IMAGE_SPEC = "input 4x4\nwalsh_rank 16\nconv2d 3x3 2\nrelu\nflatten\ndense 16\n"
TEMPLATE = "input 8\nwalsh_rank 4\nplanes 2\nfilters 3\n"
# replacement tokens: boundary numbers, non-numbers and other keywords' values
TOKENS = ("0", "1", "-1", "2", "0.5", "1e308", "-1e308", "nan", "inf", "", "x",
          "3x3", "same", "relu", "dense", "ÿ")


def _signals_csv():
    rng = np.random.default_rng(0)
    rows = [[label, *(rng.normal(size=8) + 2.0 * (2 * label - 1))] for label in (0, 1) * 8]
    return "".join(f"{r[0]}," + ",".join(repr(float(v)) for v in r[1:]) + "\n" for r in rows)


def _idx_pair():
    """16 4x4 images, two classes lit in opposite halves, and their labels."""
    rng = np.random.default_rng(1)
    labels = np.tile([0, 1], 8).astype(np.uint8)
    images = rng.integers(0, 64, size=(16, 4, 4)).astype(np.uint8)
    images[labels == 0, :2] += 128
    images[labels == 1, 2:] += 128
    return (struct.pack(">IIII", 0x803, 16, 4, 4) + images.tobytes(),
            struct.pack(">II", 0x801, 16) + labels.tobytes())


def _checkpoint_bytes():
    model = parse_model_spec(SPEC).initialize(0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "base.divf"
        save_checkpoint(model, make_codebook(2, 4), path,
                        normalizer=Standardizer(mean=np.zeros(8), std=np.ones(8)))
        return path.read_bytes()


BASE = {"model.spec": SPEC.encode(), "run.cfg": CONFIG.encode(),
        "signals.csv": _signals_csv().encode(), "growth.txt": TEMPLATE.encode(),
        "model.divf": _checkpoint_bytes(), "image.spec": IMAGE_SPEC.encode()}
BASE["images-idx3-ubyte"], BASE["labels-idx1-ubyte"] = _idx_pair()
BINARY = ("model.divf", "images-idx3-ubyte", "labels-idx1-ubyte")

# each command with the files it reads; ``{name}`` is that file's path
COMMANDS = {
    "train": ["train", "--model", "{model.spec}", "--data", "{signals.csv}",
              "--config", "{run.cfg}", "--out", "{out.divf}", "--metrics", "{out.csv}"],
    "train-idx": ["train", "--model", "{image.spec}", "--data", "{images-idx3-ubyte}",
                  "--format", "mnist", "--labels", "{labels-idx1-ubyte}",
                  "--config", "{run.cfg}", "--out", "{out.divf}", "--metrics", "{out.csv}"],
    "eval": ["eval", "--checkpoint", "{model.divf}", "--data", "{signals.csv}"],
    "divergence": ["divergence", "--checkpoint", "{model.divf}", "--data", "{signals.csv}",
                   "--mode", "both"],
    "grow": ["grow", "--template", "{growth.txt}", "--data", "{signals.csv}",
             "--config", "{run.cfg}", "--threshold", "1", "--max-depth", "2",
             "--out", "{out.divf}"],
    "augment": ["augment", "--data", "{signals.csv}", "--out", "{out.csv}", "--factor", "2"],
}
ERROR_LINE = re.compile(r"error=([a-z-]+): .*")


def _run(command, files):
    """Write ``files`` into a fresh directory, run ``command`` there and
    return (exit code, stderr lines)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: str(Path(tmp) / name) for name in (*BASE, "out.divf", "out.csv")}
        for name, blob in files.items():
            Path(paths[name]).write_bytes(blob)
        argv = [paths[arg[1:-1]] if arg.startswith("{") else arg for arg in COMMANDS[command]]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue().splitlines()


def _mutate_text(data, blob):
    """One token replaced, one line dropped or duplicated."""
    text = blob.decode("utf-8")
    kind = data.draw(st.sampled_from(["token", "drop-line", "duplicate-line"]))
    if kind == "token":
        parts = re.split(r"([\s,=]+)", text)
        words = [i for i, part in enumerate(parts) if part and not re.fullmatch(r"[\s,=]+", part)]
        i = data.draw(st.sampled_from(words))
        parts[i] = data.draw(st.sampled_from(TOKENS))
        return "".join(parts).encode("utf-8")
    lines = text.splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1))
    lines[i:i + 1] = [] if kind == "drop-line" else [lines[i]] * 2
    return "".join(lines).encode("utf-8")


def _mutate_bytes(data, blob, reseal):
    """Bytes overwritten, inserted or cut; with ``reseal`` the checkpoint's
    CRC is recomputed so the change reaches the payload decoder."""
    blob = bytearray(blob)
    body = slice(4, len(blob) - 4) if reseal else slice(0, len(blob))
    payload = blob[body]
    # most of a checkpoint is float data: favour the header and the spec text
    pos = data.draw(st.one_of(st.integers(0, min(len(payload), 120) - 1),
                              st.integers(0, len(payload) - 1)))
    kind = data.draw(st.sampled_from(["overwrite", "insert", "cut"]))
    chunk = data.draw(st.binary(min_size=1, max_size=8))
    if kind == "overwrite":
        payload[pos:pos + len(chunk)] = chunk
    elif kind == "insert":
        payload[pos:pos] = chunk
    else:
        del payload[pos:pos + len(chunk)]
    return _seal(payload) if reseal else bytes(payload)


def _seal(payload):
    return b"DIVF" + bytes(payload) + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


def _array_spans(blob):
    """Byte spans of the checkpoint's stored arrays: the model's state arrays,
    then the standardizer's mean and std."""
    state_arrays = len(parse_model_spec(SPEC).initialize(0).state_arrays)
    (spec_len,) = struct.unpack_from("<I", blob, 12)
    pos, spans = 16 + spec_len, []
    for i in range(state_arrays + 2):
        pos += 4 * (i == state_arrays)           # the normalizer flag
        (count,) = struct.unpack_from("<Q", blob, pos)
        spans.append(slice(pos + 8, pos + 8 + 8 * count))
        pos = spans[-1].stop
    return spans


def _scale_array(data, blob):
    """One stored array multiplied by 1e300, the CRC recomputed."""
    span = data.draw(st.sampled_from(_array_spans(blob)))
    with np.errstate(over="ignore"):
        scaled = np.frombuffer(blob[span], dtype="<f8") * 1e300
    return _seal(blob[4:span.start] + scaled.astype("<f8").tobytes() + blob[span.stop:-4])


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_unmutated_inputs_succeed(command):
    # the fuzz below starts from inputs on which every command works
    assert _run(command, BASE) == (0, [])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_inputs_exit_with_one_categorized_error(data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    readable = [arg[1:-1] for arg in COMMANDS[command] if arg[1:-1] in BASE]
    name = data.draw(st.sampled_from(readable))
    files = dict(BASE)
    scaled = name == "model.divf" and data.draw(st.integers(0, 2)) == 0
    # text files mostly get token and line edits, which keep them decodable
    if scaled:
        files[name] = _scale_array(data, files[name])
    elif name in BINARY or data.draw(st.integers(0, 3)) == 0:
        reseal = name == "model.divf" and data.draw(st.booleans())
        files[name] = _mutate_bytes(data, files[name], reseal)
    else:
        files[name] = _mutate_text(data, files[name])

    code, err = _run(command, files)

    if code == 0:
        assert err == []
    else:
        assert len(err) == 1, err
        match = ERROR_LINE.fullmatch(err[0])
        assert match and match.group(1) != "internal", err[0]
        assert not scaled or match.group(1) == "format-error", err[0]
