"""Plain-text model description: spec files and growth templates."""

from pathlib import Path

import numpy as np
import pytest

from divfe import modelspec
from divfe.layers import (BatchNorm, Conv1D, Conv2D, Dense, Dropout, FeatureExtractor,
                          Flatten, Layer, MaxPool, ReLU)
from divfe.modelspec import (SpecError, format_model_spec, load_model_spec,
                             parse_growth_template, parse_model_spec)
from divfe.numerics import GradientTape, ShapeError

SPECS = sorted((Path(__file__).resolve().parent.parent / "specs").glob("*.spec"))

SPEC_1D = """# four-feature signal classifier
input 4
walsh_rank 8
conv1d 2 10 same
relu
conv1d 2 10 same
relu
conv1d 2 10 same
relu
conv1d 4 10
relu
flatten
dense 8
"""

SPEC_2D = """input 6x6
walsh_rank 4
conv2d 3x3 5
batchnorm
relu
maxpool 2
dropout 0.25
conv2d 2x2 4
flatten
"""


def test_parse_1d_spec():
    model = parse_model_spec(SPEC_1D)
    assert model.input_shape == (1, 4)
    assert model.rank == 8
    assert isinstance(model.layers[0], Conv1D)
    assert model.layers[0].padding == "same"
    assert isinstance(model.layers[-1], Dense)
    assert model.weight_count() == 900


def test_parse_2d_spec():
    model = parse_model_spec(SPEC_2D)
    assert model.input_shape == (1, 6, 6)
    assert model.rank == 4
    assert isinstance(model.layers[0], Conv2D)
    assert model.output_shape == (4,)


def test_round_trip_through_formatter():
    model = parse_model_spec(SPEC_2D)
    text = format_model_spec(model)
    again = parse_model_spec(text)
    assert format_model_spec(again) == text
    assert [type(l) for l in again.layers] == [type(l) for l in model.layers]


def test_comments_and_blank_lines_ignored():
    model = parse_model_spec("input 4\n\n# hi\nwalsh_rank 2\nflatten # tail\ndense 2\n")
    assert model.rank == 2


def test_missing_headers():
    with pytest.raises(SpecError, match="input"):
        parse_model_spec("walsh_rank 8\nflatten\n")
    with pytest.raises(SpecError, match="walsh_rank"):
        parse_model_spec("input 4\nflatten\n")


def test_unknown_layer_and_bad_tokens():
    with pytest.raises(SpecError, match="unknown layer"):
        parse_model_spec("input 4\nwalsh_rank 4\nsoftmax\n")
    with pytest.raises(SpecError, match="malformed"):
        parse_model_spec("input 4\nwalsh_rank 4\nconv1d two 10\n")
    with pytest.raises(SpecError):
        parse_model_spec("input 4\nwalsh_rank 4\nconv1d 2 10 padded\n")
    with pytest.raises(SpecError):
        parse_model_spec("input 0x4\nwalsh_rank 4\nflatten\n")


def test_wiring_error_surfaces():
    with pytest.raises(ShapeError):
        parse_model_spec("input 4\nwalsh_rank 8\nflatten\n")   # 4 != rank 8


def test_load_from_file(tmp_path):
    path = tmp_path / "model.spec"
    path.write_text(SPEC_1D)
    model = load_model_spec(path)
    assert model.rank == 8
    model.initialize(np.random.default_rng(0))
    assert model.forward(np.zeros((2, 1, 4))).shape == (2, 8)


ROUND_TRIP_MODELS = {
    **{path.name: (lambda path=path: load_model_spec(path)) for path in SPECS},
    "spec-1d": lambda: parse_model_spec(SPEC_1D),
    "spec-2d": lambda: parse_model_spec(SPEC_2D),
    "multi-plane-image": lambda: FeatureExtractor(
        [Conv2D(2, 3, 4, padding="same"), BatchNorm(), ReLU(), MaxPool(2), Dropout(0.1),
         Flatten(), Dense(8)], (3, 4, 6), 8),
    "plain-1d": lambda: FeatureExtractor([Conv1D(3, 2), Flatten(), Dense(4)], (1, 5), 4),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_MODELS))
def test_format_round_trips_every_model(name):
    model = ROUND_TRIP_MODELS[name]()
    again = parse_model_spec(format_model_spec(model))
    assert again.input_shape == model.input_shape
    assert again.rank == model.rank
    assert again.spec_lines() == model.spec_lines()


def test_specs_are_found():
    assert {p.name for p in SPECS} >= {"iris.spec", "mnist.spec"}


def test_every_layer_kind_is_traceable_by_its_spec_keyword():
    # profilers wrap Layer.__subclasses__() and name backward spans by tape
    # entry, so every layer a spec can build must be a direct Layer subclass
    # whose single tape entry carries its spec keyword
    specs = (SPEC_2D, "input 8\nwalsh_rank 4\nconv1d 3 2 same\nmaxpool 2\nflatten\ndense 4\n")
    seen = set()
    for text in specs:
        model = parse_model_spec(text).initialize(np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(3,) + model.input_shape)
        tape = GradientTape()
        model.forward(x, mode="train", tape=tape)
        assert [name for *_, name in tape.entries] == [line.split()[0]
                                                       for line in model.spec_lines()]
        # a chain: every entry was called on the previous entry's output
        assert all(inputs[0] is before[0]
                   for before, (_, inputs, _, _) in zip(tape.entries, tape.entries[1:]))
        seen |= {type(layer) for layer in model.layers}
    buildable = {obj for obj in vars(modelspec).values()
                 if isinstance(obj, type) and issubclass(obj, Layer)}
    assert seen == buildable
    assert all(cls.__bases__ == (Layer,) for cls in buildable)


def test_multi_plane_1d_input_has_no_spec_form():
    model = FeatureExtractor([Conv1D(3, 2), Flatten(), Dense(4)], (2, 8), 4)
    with pytest.raises(SpecError):
        format_model_spec(model)


def test_extra_tokens_and_duplicate_headers_rejected():
    for text in ("input 4 4\nwalsh_rank 4\nflatten\n",
                 "input 4\nwalsh_rank 4 8\nflatten\n",
                 "input 4\nwalsh_rank 4\nrelu yes\nflatten\n",
                 "input 4\nwalsh_rank 4\nflatten\ndense 4 4\n",
                 "input 4\ninput 4\nwalsh_rank 4\nflatten\n"):
        with pytest.raises(SpecError):
            parse_model_spec(text)


# ---------------------------------------------------------------- growth templates

def test_growth_template_defaults_and_1d_filters():
    template, rank = parse_growth_template("input 8\nwalsh_rank 4\nplanes 6\nfilters 2 3\n")
    assert rank == 4
    assert template.input_shape == (1, 8)
    assert template.filters == (2, 3) and template.planes == 6
    assert template.use_relu and not template.use_batchnorm


def test_growth_template_2d_flags_and_comments():
    template, rank = parse_growth_template(
        "# digits\ninput 3x12x12\nwalsh_rank 16\nplanes 4\nfilters 3x3 5x4\n"
        "relu 0\nbatchnorm 1   # on\n")
    assert template.input_shape == (3, 12, 12) and rank == 16
    assert template.filters == ((3, 3), (5, 4))
    assert not template.use_relu and template.use_batchnorm


def test_growth_template_without_filters_is_depth_one():
    template, _ = parse_growth_template("input 8\nwalsh_rank 4\nplanes 6\n")
    assert template.filters == () and template.max_depth == 1


@pytest.mark.parametrize("text", [
    "input 8\nwalsh_rank 4\nplanes 6\nbatchnorn 1\n",          # misspelled key
    "input 8\nwalsh_rank 4\nplanes 6\nrelu yes\n",             # flag not 0/1
    "input 8\nwalsh_rank 4\nplanes 6\nfilters 2\nfilters 3\n",  # duplicate key
    "input 0\nwalsh_rank 4\nplanes 6\n",                        # empty input
    "input 8\nwalsh_rank 4\n",                                  # no planes
    "input 8\nwalsh_rank four\nplanes 6\n",
    "input 8\nwalsh_rank 4\nplanes 0\n",
    "input 8\nwalsh_rank 4\nplanes 6\nfilters 3x3\n",          # 2D filter, 1D input
    "input 8x8\nwalsh_rank 4\nplanes 6\nfilters 3\n",          # 1D filter, 2D input
    "input 8\nwalsh_rank 4\nplanes 6\nrelu\n",
])
def test_malformed_growth_template(text):
    with pytest.raises(SpecError):
        parse_growth_template(text)
