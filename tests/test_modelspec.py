"""Plain-text model description: spec files and growth templates."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divfe import layers, modelspec
from divfe.checkpoint import load_checkpoint, save_checkpoint
from divfe.data_io import ParseError
from divfe.layers import (BatchNorm, Conv1D, Conv2D, Dense, FeatureExtractor, Flatten,
                          Layer, ReLU, mse_loss)
from divfe.modelspec import (format_model_spec, load_model_spec, parse_growth_template,
                             parse_model_spec)
from divfe.numerics import ContractError, GradientTape, ShapeError, backward
from divfe.walsh import make_codebook

from _gradcheck import (STEP, TOL, input_gradients, input_tape, relative_error, train_forward,
                        unfolded_inference)

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
SPECS = sorted(SPEC_DIR.glob("*.spec"))

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
conv2d 4x4 4
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
    assert model.initialize(0).forward(np.zeros((2, 6, 6))).shape == (2, model.rank)


def test_round_trip_through_formatter():
    model = parse_model_spec(SPEC_2D)
    text = format_model_spec(model)
    again = parse_model_spec(text)
    assert format_model_spec(again) == text
    assert [type(l) for l in again.layers] == [type(l) for l in model.layers]


def test_lines_end_where_open_ends_them():
    # a form feed inside a line is whitespace, as it is to open(); str.splitlines
    # would end the line there
    plain = parse_model_spec(SPEC_1D)
    fed = parse_model_spec(SPEC_1D.replace("conv1d 2 10 same", "conv1d 2\x0c10 same", 1))
    assert fed.input_shape == plain.input_shape and fed.rank == plain.rank
    assert fed.spec_lines() == plain.spec_lines()


def test_comments_and_blank_lines_ignored():
    model = parse_model_spec("input 4\n\n# hi\nwalsh_rank 2\nflatten # tail\ndense 2\n")
    assert model.rank == 2


def test_missing_headers():
    with pytest.raises(ParseError, match="input"):
        parse_model_spec("walsh_rank 8\nflatten\n")
    with pytest.raises(ParseError, match="walsh_rank"):
        parse_model_spec("input 4\nflatten\n")


def test_unknown_layer_and_bad_tokens():
    for line in ("softmax", "maxpool 2", "dropout 0.5"):
        with pytest.raises(ParseError, match="unknown layer"):
            parse_model_spec(f"input 4\nwalsh_rank 4\n{line}\n")
    with pytest.raises(ParseError, match="malformed"):
        parse_model_spec("input 4\nwalsh_rank 4\nconv1d two 10\n")
    with pytest.raises(ParseError):
        parse_model_spec("input 4\nwalsh_rank 4\nconv1d 2 10 padded\n")
    with pytest.raises(ParseError):
        parse_model_spec("input 0x4\nwalsh_rank 4\nflatten\n")
    # wrong extent counts, a bad or zero extent, and wrong argument counts
    for line in ("conv1d 3x3 4", "conv2d 3 4", "conv2d 3x3x3 4", "conv2d 3xq 4",
                 "conv2d 0x3 4", "dense 4 4", "relu 1", "dense"):
        with pytest.raises(ParseError):
            parse_model_spec(f"input 6x6\nwalsh_rank 4\n{line}\n")


@pytest.mark.parametrize("text, lineno", [
    ("input 4xa\nwalsh_rank 4\nflatten\n", 1),                  # a dimension not an int
    ("input 2x2x2x2\nwalsh_rank 4\nflatten\n", 1),              # four dimensions
    ("input 4\nwalsh_rank 4\nflatten\ndense 0\n", 4),           # a zero-width dense
], ids=["input-4xa", "input-2x2x2x2", "dense-0"])
def test_bad_sizes_name_their_line(text, lineno):
    with pytest.raises(ParseError, match=f"^line {lineno}: "):
        parse_model_spec(text)


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
        [Conv2D(2, 3, 4, padding="same"), BatchNorm(), ReLU(), Flatten(), Dense(8)],
        (3, 4, 6), 8),
    "plain-1d": lambda: FeatureExtractor([Conv1D(3, 2), Flatten(), Dense(4)], (1, 5), 4),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_MODELS))
def test_format_round_trips_every_model(name):
    model = ROUND_TRIP_MODELS[name]()
    again = parse_model_spec(format_model_spec(model))
    assert again.input_shape == model.input_shape
    assert again.rank == model.rank
    assert again.compute == model.compute
    assert again.spec_lines() == model.spec_lines()


def test_specs_are_found():
    assert {p.name for p in SPECS} >= {"iris.spec", "mnist.spec"}


def test_every_layer_kind_is_traceable_by_its_spec_keyword():
    # profilers wrap Layer.__subclasses__() and name backward spans by tape
    # entry, so every layer a spec can build must be a direct Layer subclass
    # whose single tape entry carries its spec keyword
    specs = (SPEC_2D, "input 8\nwalsh_rank 4\nconv1d 3 2 same\nflatten\ndense 4\n")
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


def test_multi_plane_1d_input_has_no_spec_form(tmp_path):
    # no text was parsed: the model's input breaks the sample-shape contract
    model = FeatureExtractor([Conv1D(3, 2), Flatten(), Dense(4)], (2, 8), 4)
    with pytest.raises(ContractError, match="no sample form"):
        format_model_spec(model)
    path = tmp_path / "model.divf"
    with pytest.raises(ContractError, match="no sample form"):
        save_checkpoint(model.initialize(0), make_codebook(2, 4), path)
    assert not path.exists()


def test_extra_tokens_and_duplicate_headers_rejected():
    for text in ("input 4 4\nwalsh_rank 4\nflatten\n",
                 "input 4\nwalsh_rank 4 8\nflatten\n",
                 "input 4\nwalsh_rank 4\nrelu yes\nflatten\n",
                 "input 4\nwalsh_rank 4\nflatten\ndense 4 4\n",
                 "input 4\ninput 4\nwalsh_rank 4\nflatten\n"):
        with pytest.raises(ParseError):
            parse_model_spec(text)


@pytest.mark.parametrize("line, compute", [("", "float64"), ("compute float64\n", "float64"),
                                           ("compute float32\n", "float32")])
def test_compute_header_sets_the_dtype_and_is_written_for_float32_only(line, compute):
    model = parse_model_spec(f"input 6x6\nwalsh_rank 4\n{line}" + SPEC_2D.split("\n", 2)[2])
    assert model.compute == np.dtype(compute)
    text = format_model_spec(model)
    assert ("compute" in text) == (compute == "float32")
    assert parse_model_spec(text).compute == model.compute
    model.initialize(np.random.default_rng(0))
    assert model.forward(np.ones((2, 6, 6))).shape == (2, 4)
    assert load_model_spec(SPEC_DIR / "iris.spec").compute == np.float64
    assert load_model_spec(SPEC_DIR / "mnist.spec").compute == np.float32


@pytest.mark.parametrize("line", ["compute float16", "compute", "compute float32 float64",
                                  "compute Float32", "compute float32\ncompute float32",
                                  "compute float32\ncompute float64"])
def test_bad_compute_lines_are_spec_errors(line):
    with pytest.raises(ParseError):
        parse_model_spec(f"input 4\nwalsh_rank 4\n{line}\nflatten\n")
    with pytest.raises(ParseError):   # a growth template takes no compute line
        parse_growth_template(f"input 4\nwalsh_rank 4\nplanes 2\n{line}\n")


# ---------------------------------------------------------------- random spec chains

@st.composite
def _spec_texts(draw, computes=("float64",)):
    """Canonical spec text from the whole grammar, computing in one of
    ``computes``. Convolutions mostly match the input's dimension and the
    dense width mostly matches walsh_rank, so about a third of the draws wire;
    the rest raise ShapeError."""
    ndim = draw(st.sampled_from((1, 2)))
    rank = draw(st.sampled_from((4, 8, 16)))
    size = st.integers(1, 16 if ndim == 1 else 8)
    lines = ["input " + "x".join(str(draw(size)) for _ in range(ndim)), f"walsh_rank {rank}"]
    if draw(st.sampled_from(computes)) == "float32":
        lines.append("compute float32")
    for _ in range(draw(st.integers(1, 4))):
        conv = draw(st.sampled_from((ndim,) * 7 + (3 - ndim,)))
        extent = "x".join(str(draw(st.integers(1, 3))) for _ in range(conv))
        pad = draw(st.sampled_from(("", " same")))
        lines.append(f"conv{conv}d {extent} {draw(st.integers(1, 3))}{pad}")
        lines += draw(st.lists(st.sampled_from(("batchnorm", "relu")), max_size=2))
    lines.append("flatten")
    if draw(st.sampled_from((True, True, True, False))):
        lines.append(f"dense {draw(st.sampled_from((rank, rank, rank, 4, 8, 16)))}")
    return "\n".join(lines) + "\n"


# _DENSE_MAX as it is, or 0 so that every convolution but a spanning one takes
# the row-window kernel: at the default most drawn convolutions take the dense
# matrix (the largest one drawn has 36,864 entries)
_dense_maxes = st.sampled_from((layers._DENSE_MAX, 0))


@settings(max_examples=300, deadline=None)
@given(text=_spec_texts(), seed=st.integers(0, 2**32 - 1), dense_max=_dense_maxes)
def test_random_spec_chains(text, seed, dense_max):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(layers, "_DENSE_MAX", dense_max)
        _check_spec_chain(text, seed)


def _check_spec_chain(text, seed):
    # a spec wires or raises ShapeError; a wired one formats back to its text,
    # infers the same batched as per sample, folded as unfolded (every layer
    # run as it is, each BatchNorm by its running statistics), and the same
    # after a checkpoint
    try:
        model = parse_model_spec(text)
    except ShapeError:
        return
    assert format_model_spec(model) == text
    rng = np.random.default_rng(seed)
    model.initialize(rng)
    model.params[:] = rng.normal(size=model.params.size)
    for layer in model.layers:
        if isinstance(layer, BatchNorm):
            layer.running_mean[:] = rng.normal(size=layer.planes)
            layer.running_var[:] = rng.uniform(0.5, 2.0, size=layer.planes)
    x = rng.normal(size=(3,) + model.input_shape)
    batched = model.forward(x)
    per_sample = np.concatenate([model.forward(x[i:i + 1]) for i in range(len(x))])
    np.testing.assert_allclose(batched, per_sample, rtol=1e-9, atol=1e-9)
    unfolded = unfolded_inference(model, x)
    assert np.max(np.abs(batched - unfolded)) <= 1e-12 * np.max(np.abs(unfolded)), text
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.divf"
        save_checkpoint(model, make_codebook(2, model.rank), path)
        loaded, _, _ = load_checkpoint(path)
    np.testing.assert_array_equal(loaded.forward(x), batched)


@settings(max_examples=200, deadline=None)
@given(text=_spec_texts(), seed=st.integers(0, 2**32 - 1), dense_max=_dense_maxes)
# the second convolution's first weight draws -5.2e-4, so its plane's batch variance
# (1.7e-7) is far below BN_EPSILON: a central difference there is off by 7.4e-4
@example(text="input 16\nwalsh_rank 16\nconv1d 1 1\nbatchnorm\nconv1d 1 2\nbatchnorm\n"
              "batchnorm\nconv1d 2 2 same\nconv1d 2 2 same\nflatten\ndense 16\n",
         seed=7373, dense_max=layers._DENSE_MAX)
def test_random_spec_chain_gradients(text, seed, dense_max):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(layers, "_DENSE_MAX", dense_max)
        _check_spec_chain_gradient(text, seed)


def _check_spec_chain_gradient(text, seed):
    # one backward over the whole model's tape gives the gradient of mse_loss
    # for the input and every parameter array; fourth-order central differences
    # check a seeded sample of at most 20 coordinates of each
    try:
        model = parse_model_spec(text)
    except ShapeError:
        return
    rng = np.random.default_rng(seed)
    model.initialize(rng)
    model.params += rng.normal(scale=0.1, size=model.params.size)   # nonzero biases too
    x = rng.normal(size=(int(rng.integers(4, 7)),) + model.input_shape)
    target = rng.normal(size=(len(x), model.rank))

    def loss_at(_):
        return float(mse_loss(train_forward(model, x), target))

    tape = input_tape(x)
    loss = mse_loss(model.forward(x, mode="train", tape=tape), target, tape=tape)
    # a ReLU input near 0 could cross the kink under a step; an exact 0 is the
    # output of a ReLU before it, and stays 0
    for _, (relu_in, *_), _, name in tape.entries:
        if name == "relu" and np.any((relu_in != 0) & (np.abs(relu_in) < 1e-3)):
            return
    dx, grads = backward(tape, loss)
    for array, grad in [(x, dx)] + grads:
        for k in rng.choice(array.size, size=min(array.size, 20), replace=False):
            at = np.unravel_index(k, array.shape)
            orig = array[at]
            losses = []
            for step in (STEP, -STEP, 2 * STEP, -2 * STEP):
                array[at] = orig + step
                losses.append(loss_at(x))
            array[at] = orig
            plus, minus, plus2, minus2 = losses
            numeric = (8 * (plus - minus) - (plus2 - minus2)) / (12 * STEP)
            assert relative_error(grad[at], numeric) < TOL, (text, at)


def _step_gradients(model, x, target, tape):
    loss = mse_loss(model.forward(x, mode="train", tape=tape), target, tape=tape)
    return backward(tape, loss)


def _check_step_without_input_grad(model, x, target):
    # a training step's tape asks its first layer for no dx, and its parameter
    # gradients equal, byte for byte, those of a tape with an identity entry
    # ahead of that layer, which asks it for dx; x is in the model's compute
    # dtype, so that the identity entry's output is the first layer's input
    x = x.astype(model.compute)
    skipped, grads = _step_gradients(model, x, target, GradientTape())
    tape = input_tape(x)
    dx, ahead_grads = _step_gradients(model, x, target, tape)
    assert skipped is None and dx.shape == x.shape
    assert len(grads) == len(ahead_grads) == len(model.trainable_params)
    for (array, g), (ahead_array, ahead_g) in zip(grads, ahead_grads):
        assert ahead_array is array and ahead_g.tobytes() == g.tobytes()
    # every entry returns its input gradient in its input's dtype
    for inp, entry_dx in input_gradients(tape):
        assert entry_dx.dtype == inp.dtype


def _grown_to_depth_2():
    """A 1D growth template's depth 2: ``conv1d 9 16``, ReLU, the spanning layer."""
    template, rank = parse_growth_template("input 128\nwalsh_rank 4\nplanes 16\nfilters 9\n")
    return template.build_model(2, rank)


@pytest.mark.parametrize("make, n", [
    (lambda: load_model_spec(SPEC_DIR / "iris.spec"), 5),
    (lambda: load_model_spec(SPEC_DIR / "mnist.spec"), 2),
    (_grown_to_depth_2, 4),
], ids=["iris.spec", "mnist.spec", "growth-1d-depth-2"])
def test_training_step_without_input_gradient(make, n):
    model = make()
    rng = np.random.default_rng(n)
    model.initialize(rng)
    model.params += rng.normal(scale=0.1, size=model.params.size)
    x = rng.normal(size=(n,) + model.input_shape)
    _check_step_without_input_grad(model, x, rng.normal(size=(n, model.rank)))


@settings(max_examples=100, deadline=None)
@given(text=_spec_texts(("float64", "float32")), seed=st.integers(0, 2**32 - 1),
       dense_max=_dense_maxes)
def test_random_spec_chain_steps_without_input_gradient(text, seed, dense_max):
    try:
        model = parse_model_spec(text)
    except ShapeError:
        return
    rng = np.random.default_rng(seed)
    model.initialize(rng)
    model.params += rng.normal(scale=0.1, size=model.params.size)
    x = rng.normal(size=(int(rng.integers(2, 5)),) + model.input_shape)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(layers, "_DENSE_MAX", dense_max)
        _check_step_without_input_grad(model, x, rng.normal(size=(len(x), model.rank)))


# ---------------------------------------------------------------- growth templates

def test_growth_template_defaults_and_1d_filters():
    template, rank = parse_growth_template("input 8\nwalsh_rank 4\nplanes 6\nfilters 2 3\n")
    assert rank == 4
    assert template.input_shape == (1, 8)
    assert template.filters == (2, 3) and template.planes == 6


def test_growth_template_2d_flags_and_comments():
    template, rank = parse_growth_template(
        "# digits\ninput 3x12x12\nwalsh_rank 16\nplanes 4   # per layer\nfilters 3x3 5x4\n")
    assert template.input_shape == (3, 12, 12) and rank == 16
    assert template.filters == ((3, 3), (5, 4))


def test_growth_template_without_filters_is_depth_one():
    template, _ = parse_growth_template("input 8\nwalsh_rank 4\nplanes 6\n")
    assert template.filters == () and template.max_depth == 1


@pytest.mark.parametrize("text", [
    "input 8\nwalsh_rank 4\nplanes 6\nbatchnorn 1\n",          # misspelled key
    "input 8\nwalsh_rank 4\nplanes 6\nrelu yes\n",             # removed keys
    "input 8\nwalsh_rank 4\nplanes 6\nrelu 1\n",
    "input 8\nwalsh_rank 4\nplanes 6\nbatchnorm 0\n",
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
    with pytest.raises(ParseError):
        parse_growth_template(text)
