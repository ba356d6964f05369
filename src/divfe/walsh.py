"""Walsh codebook construction and class-target assignment.

The classifier prototypes are rows of the modified (0/1) Walsh matrix of the
Sylvester-ordered Hadamard matrix, whose entry (k, j) is 1 iff k & j has an
even number of set bits. Row 0 is all ones and is never handed out as a class
target; any two distinct rows differ in exactly rank/2 positions, so class
centers sit at equal, maximal Hamming distances from each other. A rank that
is not a power of 2 of at least 2, or a class count outside 1..rank-1, is a
:class:`~divfe.numerics.ContractError`.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import ContractError, allocate


@dataclass(frozen=True)
class WalshCodebook:
    """Rows 0..class_count of a 0/1 Walsh matrix: row 0 and the class targets.

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
    """Assign rows 1..class_count of the rank-``rank`` modified Walsh matrix as
    class targets (at most rank-1 classes). Only rows 0..class_count are built:
    entry (k, j) is 1 iff k & j has an even number of set bits."""
    if (not isinstance(rank, (int, np.integer)) or rank < 2
            or (int(rank) & (int(rank) - 1)) != 0):
        raise ContractError(f"rank must be a power of 2 and >= 2, got {rank!r}")
    if class_count > rank - 1:
        raise ContractError(
            f"{class_count} classes exceed capacity {rank - 1} of a rank-{rank} codebook"
        )
    if class_count < 1:
        raise ContractError("class_count must be >= 1")
    matrix = allocate(np.empty, (class_count + 1, rank), dtype=np.int64)
    np.bitwise_and(np.arange(class_count + 1)[:, None], np.arange(rank), out=matrix)
    for shift in (32, 16, 8, 4, 2, 1):   # fold the bits of k & j onto bit 0 by xor
        matrix ^= matrix >> shift
    matrix = (matrix & 1) ^ 1
    return WalshCodebook(rank=int(rank), matrix=matrix, class_count=class_count)
