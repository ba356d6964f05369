"""Reverse-mode gradients down a chain of layers.

Tensors are plain numpy float64 arrays. Gradient shapes are checked
explicitly and never broadcast implicitly: in a hand-wired network a silent
broadcast is almost always a wiring bug.

The model is a plain chain: in training mode every layer that computes
something records one entry on a :class:`GradientTape`, called on the
previous entry's output, and the loss records the last one. :func:`backward`
walks the chain once in reverse, passing each entry's input gradient on as
the upstream gradient of the entry before it.
"""

import numpy as np


class ShapeError(ValueError):
    pass


class ContractError(ValueError):
    pass


class GradientTape:
    """The executed chain of one step: ``(output, inputs, backward_fn, name)``
    tuples in execution order.

    ``inputs[0]`` is the array the operation was called on; the others are
    its trainable arrays. ``backward_fn(upstream)`` returns one gradient per
    input, aligned with ``inputs``.
    """

    def __init__(self):
        self.entries = []

    def record(self, output, inputs, backward_fn, name=""):
        self.entries.append((output, tuple(inputs), backward_fn, name))
        return output


def backward(tape: GradientTape, loss: np.ndarray):
    """Gradients of a scalar loss, walking the tape's chain in reverse.

    Returns ``(dx, [(array, grad), ...])``: the gradient of the first entry's
    first input, then every other recorded input with its gradient, in
    recording order. Raises :class:`ContractError` unless the loss is the last
    entry's output and every entry was called on the previous entry's output.
    """
    loss = np.asarray(loss)
    if loss.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    if not tape.entries:
        raise ContractError("the tape is empty")

    upstream, consumed, per_entry = np.ones_like(loss, dtype=np.float64), loss, []
    for output, inputs, backward_fn, name in reversed(tape.entries):
        if output is not consumed:
            raise ContractError(f"the tape is not a chain: {name}'s output is neither the "
                                "loss nor the input of the next entry")
        grads = backward_fn(upstream)
        if len(grads) != len(inputs):
            raise ContractError(f"{name}: backward returned {len(grads)} grads "
                                f"for {len(inputs)} inputs")
        for inp, g in zip(inputs, grads):
            if g.shape != inp.shape:
                raise ShapeError(f"{name}: gradient shape {g.shape} != input {inp.shape}")
        per_entry.append(zip(inputs[1:], grads[1:]))
        upstream, consumed = grads[0], inputs[0]
    return upstream, [pair for pairs in reversed(per_entry) for pair in pairs]
