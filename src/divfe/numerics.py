"""Reverse-mode gradient bookkeeping.

Tensors are plain numpy float64 arrays. Gradient shapes are checked
explicitly and never broadcast implicitly: in a hand-wired network a silent
broadcast is almost always a wiring bug.

The :class:`GradientTape` is a Wengert list. Every differentiable operation
executed in training mode appends one entry holding its inputs, its output
and a backward closure. :func:`backward` replays the entries in reverse,
accumulating dLoss/dx for every array that participated (parameters
included), keyed by array identity.
"""

import numpy as np


class ShapeError(ValueError):
    pass


class ContractError(ValueError):
    pass


class TapeEntry:
    """One executed operation: output, inputs and the backward closure.

    ``backward_fn(upstream)`` returns one gradient per input, aligned with
    ``inputs``. A ``None`` gradient marks a non-differentiable input.
    """

    __slots__ = ("output", "inputs", "backward_fn", "name")

    def __init__(self, output, inputs, backward_fn, name=""):
        self.output = output
        self.inputs = tuple(inputs)
        self.backward_fn = backward_fn
        self.name = name


class GradientTape:
    """Ordered record of executed differentiable operations."""

    def __init__(self):
        self.entries: list[TapeEntry] = []

    def record(self, output, inputs, backward_fn, name=""):
        self.entries.append(TapeEntry(output, inputs, backward_fn, name))
        return output

    def __len__(self):
        return len(self.entries)


def backward(tape: GradientTape, loss: np.ndarray) -> dict:
    """Reverse-accumulate gradients of a scalar loss over a tape.

    Returns a dict keyed by ``id(array)`` mapping to dLoss/d(array) for every
    input touched by a recorded operation. Entry arrays stay referenced by
    the tape, so the id keys remain valid while the tape is alive.
    """
    loss = np.asarray(loss)
    if loss.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss, dtype=np.float64)}
    for entry in reversed(tape.entries):
        upstream = grads.get(id(entry.output))
        if upstream is None:
            continue
        input_grads = entry.backward_fn(upstream)
        if len(input_grads) != len(entry.inputs):
            raise ContractError(f"{entry.name}: backward returned {len(input_grads)} grads "
                                f"for {len(entry.inputs)} inputs")
        for inp, g in zip(entry.inputs, input_grads):
            if g is None:
                continue
            if g.shape != inp.shape:
                raise ShapeError(f"{entry.name}: gradient shape {g.shape} != input {inp.shape}")
            key = id(inp)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g
    return grads
