"""Plain-text model description, shared by spec files, checkpoints and
growth templates.

A model spec has two header lines and an optional third, then one layer per
line::

    input 28x28          # 1D length, HxW image, or CxHxW planes
    walsh_rank 16
    compute float32      # optional: float32 or float64 (the default)
    conv2d 3x3 20        # optional trailing 'same' selects zero padding
    batchnorm
    relu
    conv2d 26x26 16
    flatten

``compute`` names the dtype a forward and backward compute in (see
:class:`divfe.layers.FeatureExtractor`); parameters and checkpoints are float64
either way, and :func:`format_model_spec` writes the line only for float32.

A growth template (see :class:`divfe.trainer.GrowthTemplate`) has the first
two header lines plus ``planes N`` and an optional ``filters F...`` (lengths
for 1D input, HxW for 2D); every scheduled convolution is followed by a ReLU.

Lines end where ``open`` ends them (a form feed inside a line is whitespace).
Blank lines and '#' comments are ignored. Every size is a positive integer,
every keyword takes exactly its arguments and a header or template key appears
at most once. A line that breaks these rules is a
:class:`~divfe.data_io.ParseError` of one form, ``<path>:<n>: malformed
'<keyword>' line: <reason>`` (``line <n>:`` for text read from no file). The
parsed stack must wire to a flat output of length walsh_rank.
"""

import io

from .data_io import ParseError, read_text
from .layers import (COMPUTE_DTYPES, BatchNorm, Conv1D, Conv2D, Dense, FeatureExtractor, Flatten,
                     ReLU)
from .trainer import GrowthTemplate


_CONVOLUTIONS = {cls.kind: cls for cls in (Conv1D, Conv2D)}
# every other layer keyword -> (its class, its number of size arguments)
_LAYERS = {cls.kind: (cls, count) for cls, count in (
    (Dense, 1), (BatchNorm, 0), (ReLU, 0), (Flatten, 0))}
_TEMPLATE_KEYS = ("input", "walsh_rank", "planes", "filters")
_COMPUTE_NAMES = tuple(dtype.name for dtype in COMPUTE_DTYPES)


def _read(text, handle, path=None):
    """Calls handle(keyword, args) for every non-blank line; a ValueError it
    raises becomes the ParseError naming the file, the line and the reason."""
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        kind = tokens[0].lower()
        try:
            handle(kind, tokens[1:])
        except ValueError as exc:
            where = f"line {lineno}" if path is None else f"{path}:{lineno}"
            raise ParseError(f"{where}: malformed {kind!r} line: {exc}") from exc


def _dims(token):
    """The sizes of an ``N`` or ``AxB...`` token."""
    dims = tuple(int(d) for d in token.lower().split("x"))
    if min(dims) < 1:
        raise ValueError(f"sizes must be positive, got {token!r}")
    return dims


def _size(token):
    (size,) = _dims(token)
    return size


def _header(values, kind, args):
    """Reads an 'input', 'walsh_rank' or 'compute' line into values; an input
    of one or two sizes is a single plane."""
    if kind in values:
        raise ValueError(f"duplicate {kind!r} line")
    (token,) = args
    if kind == "input":
        dims = _dims(token)
        if len(dims) > 3:
            raise ValueError("input takes 1 to 3 dimensions")
        values[kind] = dims if len(dims) == 3 else (1,) + dims
    elif kind == "walsh_rank":
        values[kind] = int(token)
    elif token in _COMPUTE_NAMES:
        values[kind] = token
    else:
        raise ValueError(f"compute takes {' or '.join(_COMPUTE_NAMES)}, got {token!r}")


def _required(values, keys):
    for key in keys:
        if key not in values:
            raise ParseError(f"missing {key!r} line")


def parse_model_spec(text: str, path=None) -> FeatureExtractor:
    """The model ``text`` describes; ``path`` names its file in error messages."""
    header = {}
    layers = []

    def line(kind, args):
        if kind in ("input", "walsh_rank", "compute"):
            _header(header, kind, args)
        elif kind in _CONVOLUTIONS:
            extent, planes, *extra = args
            if extra not in ([], ["same"]):
                raise ValueError(f"unexpected tokens {' '.join(extra)!r}")
            layers.append(_CONVOLUTIONS[kind](*_dims(extent), _size(planes),
                                              padding="same" if extra else "valid"))
        elif kind in _LAYERS:
            cls, count = _LAYERS[kind]
            if len(args) != count:
                raise ValueError(f"takes {count} argument(s), got {len(args)}")
            layers.append(cls(*map(_size, args)))
        else:
            raise ValueError(f"unknown layer {kind!r}")

    _read(text, line, path)
    _required(header, ("input", "walsh_rank"))
    return FeatureExtractor(layers, header["input"], header["walsh_rank"],
                            header.get("compute", "float64"))


def format_model_spec(model: FeatureExtractor) -> str:
    lines = ["input " + "x".join(str(d) for d in model.sample_shape), f"walsh_rank {model.rank}"]
    if model.compute.name != "float64":
        lines.append(f"compute {model.compute.name}")
    lines += model.spec_lines()
    return "\n".join(lines) + "\n"


def load_model_spec(path) -> FeatureExtractor:
    return parse_model_spec(read_text(path)[1], path)


def parse_growth_template(text: str, path=None):
    """Returns (GrowthTemplate, walsh_rank); ``path`` names the file in error messages."""
    values = {}

    def line(kind, args):
        if kind not in _TEMPLATE_KEYS:
            raise ValueError(f"unknown growth template key {kind!r}")
        if kind in values:
            raise ValueError(f"duplicate {kind!r} line")
        if kind == "filters":
            values[kind] = [_dims(token) for token in args]
        elif kind == "planes":
            (values[kind],) = map(_size, args)
        else:
            _header(values, kind, args)
        # filters against the input, on whichever of the two lines comes second
        ndim = len(values.get("input", ())) - 1
        if ndim > 0 and any(len(f) != ndim for f in values.get("filters", ())):
            raise ValueError(f"a {ndim}D input takes {ndim}D filters")

    _read(text, line, path)
    _required(values, ("input", "walsh_rank", "planes"))
    template = GrowthTemplate(input_shape=values["input"],
                              filters=tuple(f[0] if len(f) == 1 else f
                                            for f in values.get("filters", ())),
                              planes=values["planes"])
    return template, values["walsh_rank"]
