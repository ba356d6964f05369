"""Reverse-mode gradients down a chain of layers.

Tensors are plain numpy arrays: float64, or float32 between the layers of a
model whose spec computes in float32 (the loss and the parameters stay
float64). Gradient shapes are checked explicitly and never broadcast
implicitly: in a hand-wired network a silent broadcast is almost always a
wiring bug, a :class:`ShapeError`. Any other broken precondition is a
:class:`ContractError`, and :func:`allocate` is the one place that turns
numpy's refusal of an impossible size into a ``MemoryError``.

The model is a plain chain: in training mode every layer records one entry
on a :class:`GradientTape`, called on the previous entry's output, and the
loss records the last one. :func:`backward` walks the chain once in reverse,
passing each entry's input gradient on as the upstream gradient of the entry
before it. The first entry may skip its own: nothing before it needs one.
"""

import numpy as np


class ShapeError(ValueError):
    pass


class ContractError(ValueError):
    pass


def allocate(make, *args, **kwargs):
    """``make(*args, **kwargs)``, with numpy's ``ValueError`` for a size beyond any
    address space raised as the ``MemoryError`` it stands for."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise MemoryError(str(exc)) from exc


class GradientTape:
    """The executed chain of one step: ``(output, inputs, backward_fn, name)``
    tuples in execution order.

    ``inputs[0]`` is the array the operation was called on; the others are
    its trainable arrays. ``backward_fn(upstream)`` returns one gradient per
    input, aligned with ``inputs`` (the first entry's may be ``None`` for ``inputs[0]``).
    """

    def __init__(self):
        self.entries = []

    def record(self, output, inputs, backward_fn, name=""):
        self.entries.append((output, tuple(inputs), backward_fn, name))
        return output


def backward(tape: GradientTape, loss: np.ndarray):
    """Gradients of a scalar loss, walking the tape's chain in reverse.

    Returns ``(dx, [(array, grad), ...])``: the gradient of the first entry's
    first input (``None`` if that entry skipped it), then every other recorded
    input with its gradient, in recording order. Raises :class:`ContractError`
    unless the loss is the last entry's output, every entry was called on the
    previous entry's output and every later entry returned its input gradient.
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
        pairs = zip(inputs, grads)
        if grads[0] is None:   # only the last entry walked, the first recorded
            if len(per_entry) < len(tape.entries) - 1:
                raise ContractError(f"{name}: backward returned no input gradient")
            next(pairs)
        for inp, g in pairs:
            if g.shape != inp.shape:
                raise ShapeError(f"{name}: gradient shape {g.shape} != input {inp.shape}")
        per_entry.append(zip(inputs[1:], grads[1:]))
        upstream, consumed = grads[0], inputs[0]
    return upstream, [pair for pairs in reversed(per_entry) for pair in pairs]
