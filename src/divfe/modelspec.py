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

Blank lines and '#' comments are ignored. Every keyword takes exactly its
arguments and a header or template key appears at most once; a line that breaks
these rules is a :class:`~divfe.data_io.ParseError` naming it. The parsed
stack must wire to a flat output of length walsh_rank.
"""

from .data_io import ParseError, read_text
from .layers import (COMPUTE_DTYPES, BatchNorm, Conv1D, Conv2D, Dense, FeatureExtractor, Flatten,
                     ReLU)
from .trainer import GrowthTemplate


_CONVOLUTIONS = {cls.kind: cls for cls in (Conv1D, Conv2D)}
# every other layer keyword -> (its class, the type of each argument)
_LAYERS = {cls.kind: (cls, types) for cls, types in (
    (Dense, (int,)), (BatchNorm, ()), (ReLU, ()), (Flatten, ()))}
_TEMPLATE_KEYS = ("input", "walsh_rank", "planes", "filters")
_COMPUTE_NAMES = tuple(dtype.name for dtype in COMPUTE_DTYPES)


def _read(text, handle):
    """Calls handle(lineno, keyword, args) for every non-blank line; any other
    ValueError it raises becomes a ParseError naming the line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        kind = tokens[0].lower()
        try:
            handle(lineno, kind, tokens[1:])
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(f"line {lineno}: malformed {kind!r} line: {raw.strip()!r}") from exc


def _dims(token, lineno):
    try:
        dims = tuple(int(d) for d in token.lower().split("x"))
    except ValueError as exc:
        raise ParseError(f"line {lineno}: bad dimensions {token!r}") from exc
    if any(d < 1 for d in dims):
        raise ParseError(f"line {lineno}: dimensions must be positive")
    return dims


def _input_shape(token, lineno):
    dims = _dims(token, lineno)
    if len(dims) > 3:
        raise ParseError(f"line {lineno}: input takes 1 to 3 dimensions")
    return dims if len(dims) == 3 else (1,) + dims


def _header(values, lineno, kind, args):
    """Reads an 'input', 'walsh_rank' or 'compute' line into values."""
    if kind in values:
        raise ParseError(f"line {lineno}: duplicate {kind!r} line")
    (token,) = args
    if kind == "input":
        values[kind] = _input_shape(token, lineno)
    elif kind == "walsh_rank":
        values[kind] = int(token)
    elif token in _COMPUTE_NAMES:
        values[kind] = token
    else:
        raise ParseError(f"line {lineno}: compute takes {' or '.join(_COMPUTE_NAMES)}, "
                         f"got {token!r}")


def _required(values, keys):
    for key in keys:
        if key not in values:
            raise ParseError(f"missing {key!r} line")


def _padding(extra, lineno):
    if not extra:
        return "valid"
    if extra == ["same"]:
        return "same"
    raise ParseError(f"line {lineno}: unexpected tokens {' '.join(extra)!r}")


def parse_model_spec(text: str) -> FeatureExtractor:
    header = {}
    layers = []

    def line(lineno, kind, args):
        if kind in ("input", "walsh_rank", "compute"):
            _header(header, lineno, kind, args)
        elif kind in _CONVOLUTIONS:
            extent, planes, *extra = args
            layers.append(_CONVOLUTIONS[kind](*map(int, extent.lower().split("x")), int(planes),
                                              padding=_padding(extra, lineno)))
        elif kind in _LAYERS:
            cls, types = _LAYERS[kind]
            layers.append(cls(*(cast(arg) for cast, arg in zip(types, args, strict=True))))
        else:
            raise ParseError(f"line {lineno}: unknown layer {kind!r}")

    _read(text, line)
    _required(header, ("input", "walsh_rank"))
    return FeatureExtractor(layers, header["input"], header["walsh_rank"],
                            header.get("compute", "float64"))


def format_model_spec(model: FeatureExtractor) -> str:
    shape = model.input_shape
    if len(shape) == 3:
        dims = shape[1:] if shape[0] == 1 else shape
    elif len(shape) == 2 and shape[0] == 1:
        dims = shape[1:]
    else:
        raise ParseError(f"input shape {shape} has no spec form "
                         "(a 1D input has a single plane)")
    lines = ["input " + "x".join(str(d) for d in dims), f"walsh_rank {model.rank}"]
    if model.compute.name != "float64":
        lines.append(f"compute {model.compute.name}")
    lines += model.spec_lines()
    return "\n".join(lines) + "\n"


def load_model_spec(path) -> FeatureExtractor:
    return parse_model_spec(read_text(path)[1])


def parse_growth_template(text: str):
    """Returns (GrowthTemplate, walsh_rank)."""
    values = {}

    def line(lineno, kind, args):
        if kind not in _TEMPLATE_KEYS:
            raise ParseError(f"line {lineno}: unknown growth template key {kind!r}")
        if kind in ("input", "walsh_rank"):
            _header(values, lineno, kind, args)
            return
        if kind in values:
            raise ParseError(f"line {lineno}: duplicate {kind!r} line")
        if kind == "filters":
            values[kind] = (lineno, [_dims(token, lineno) for token in args])
        else:   # planes
            (token,) = args
            (values[kind],) = _dims(token, lineno)

    _read(text, line)
    _required(values, ("input", "walsh_rank", "planes"))
    input_shape = values["input"]
    lineno, filters = values.get("filters", (0, []))
    if any(len(f) != len(input_shape) - 1 for f in filters):
        raise ParseError(f"line {lineno}: a {len(input_shape) - 1}D input takes "
                         f"{len(input_shape) - 1}D filters")
    template = GrowthTemplate(input_shape=input_shape,
                              filters=tuple(f[0] if len(f) == 1 else f for f in filters),
                              planes=values["planes"])
    return template, values["walsh_rank"]
