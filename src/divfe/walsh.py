"""Walsh codebook construction and class-target assignment.

The classifier prototypes are rows of a modified (0/1) Walsh matrix built by
the Sylvester recursion. Row 0 is all ones and is never handed out as a class
target; any two distinct rows differ in exactly rank/2 positions, so class
centers sit at equal, maximal Hamming distances from each other.
"""

from dataclasses import dataclass

import numpy as np


class WalshError(ValueError):
    pass


def build_modified_walsh(rank: int) -> np.ndarray:
    """0/1 Walsh matrix of the Sylvester-ordered Hadamard matrix.

    H(2n) = [[H(n), H(n)], [H(n), -H(n)]] from H(2) = [[1, 1], [1, -1]],
    with +1 -> 1 and -1 -> 0.
    """
    if (not isinstance(rank, (int, np.integer)) or rank < 2
            or (int(rank) & (int(rank) - 1)) != 0):
        raise WalshError(f"rank must be a power of 2 and >= 2, got {rank!r}")
    h = np.array([[1, 1], [1, -1]], dtype=np.int64)
    while h.shape[0] < rank:
        h = np.block([[h, h], [h, -h]])
    return (h > 0).astype(np.int64)


@dataclass(frozen=True)
class WalshCodebook:
    """A 0/1 Walsh matrix whose rows 1..class_count are the class targets.

    Class k (0-based) maps to matrix row k+1; the all-ones row 0 is reserved
    and never assigned.
    """

    rank: int
    matrix: np.ndarray
    class_count: int

    @property
    def class_rows(self) -> tuple:
        return tuple(range(1, self.class_count + 1))

    def targets(self) -> np.ndarray:
        """(class_count, rank) float64 matrix of all class targets."""
        return self.matrix[1:self.class_count + 1].astype(np.float64)


def make_codebook(class_count: int, rank: int) -> WalshCodebook:
    """Build the rank-``rank`` modified Walsh matrix and assign rows
    1..class_count as class targets, so a codebook holds at most rank-1
    classes."""
    matrix = build_modified_walsh(rank)
    if class_count > rank - 1:
        raise WalshError(
            f"{class_count} classes exceed capacity {rank - 1} of a rank-{rank} codebook"
        )
    if class_count < 1:
        raise WalshError("class_count must be >= 1")
    return WalshCodebook(rank=matrix.shape[0], matrix=matrix, class_count=class_count)
