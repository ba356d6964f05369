"""Minimum-distance classification over a Walsh codebook.

Each class prototype is its assigned codebook row; an output vector is
labeled with the class whose prototype is nearest in squared Euclidean
distance. Ties break toward the lowest class index. No trainable state.
"""

import numpy as np

from .numerics import ShapeError
from .walsh import WalshCodebook


def classify_batch(outputs: np.ndarray, codebook: WalshCodebook) -> np.ndarray:
    """Class index of the nearest prototype for each row of a (N, rank)
    batch of outputs (lowest index on ties)."""
    outputs = np.asarray(outputs, dtype=np.float64)
    if outputs.ndim != 2 or outputs.shape[1] != codebook.rank:
        raise ShapeError(f"outputs shape {outputs.shape} does not match rank {codebook.rank}")
    diff = outputs[:, None, :] - codebook.targets()[None, :, :]
    d = np.einsum("nkj,nkj->nk", diff, diff)
    return d.argmin(axis=1)
