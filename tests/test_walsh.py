"""Walsh codebook construction and class-target assignment."""

import tracemalloc

import numpy as np
import pytest

from divfe.numerics import ContractError
from divfe.walsh import WalshCodebook, make_codebook

# Known-good 8x8 modified (0/1) Walsh matrix under the Sylvester ordering.
WALSH_8 = np.array([
    [1, 1, 1, 1, 1, 1, 1, 1],
    [1, 0, 1, 0, 1, 0, 1, 0],
    [1, 1, 0, 0, 1, 1, 0, 0],
    [1, 0, 0, 1, 1, 0, 0, 1],
    [1, 1, 1, 1, 0, 0, 0, 0],
    [1, 0, 1, 0, 0, 1, 0, 1],
    [1, 1, 0, 0, 0, 0, 1, 1],
    [1, 0, 0, 1, 0, 1, 1, 0],
])


def _sylvester(rank):
    """The oracle for :func:`make_codebook`: the 0/1 Walsh matrix by the
    Sylvester recursion, H(2n) = [[H(n), H(n)], [H(n), -H(n)]] from
    H(2) = [[1, 1], [1, -1]], with +1 -> 1 and -1 -> 0."""
    h = np.array([[1, 1], [1, -1]], dtype=np.int64)
    while h.shape[0] < rank:
        h = np.block([[h, h], [h, -h]])
    return (h > 0).astype(np.int64)


def _walsh(rank):
    """The whole rank-``rank`` matrix as :func:`make_codebook` builds it."""
    return make_codebook(rank - 1, rank).matrix


def test_hadamard_base_case():
    np.testing.assert_array_equal(_walsh(2), [[1, 1], [1, 0]])


def test_hadamard_orthogonality():
    # mapping 1 -> +1 and 0 -> -1 recovers the Hadamard matrix: H H^T = rank I
    for rank in (2, 4, 8, 16, 32):
        h = 2 * _walsh(rank) - 1
        np.testing.assert_array_equal(h @ h.T, rank * np.eye(rank, dtype=np.int64))


def test_modified_walsh_8x8_matches_reference():
    np.testing.assert_array_equal(_walsh(8), WALSH_8)
    np.testing.assert_array_equal(_sylvester(8), WALSH_8)


def test_modified_walsh_rank16_first_rows():
    w = _walsh(16)
    np.testing.assert_array_equal(w[0], np.ones(16, dtype=np.int64))
    np.testing.assert_array_equal(w[1], [1, 0] * 8)
    np.testing.assert_array_equal(w[2], [1, 1, 0, 0] * 4)


def test_pairwise_hamming_distance_is_half_rank():
    for rank in (2, 4, 8, 16, 32):
        w = _walsh(rank)
        for i in range(rank):
            for j in range(i + 1, rank):
                assert np.count_nonzero(w[i] != w[j]) == rank // 2


def test_invalid_ranks_rejected():
    for bad in (0, 1, 3, 6, 12, -4, 2.5, "8"):
        with pytest.raises(ContractError):
            make_codebook(1, bad)


def test_assignment_skips_all_ones_row():
    cb = make_codebook(3, 8)
    assert cb.class_rows == (1, 2, 3)
    assert cb.class_count == 3
    # row 0 is never a target
    for label in range(3):
        assert not np.all(cb.targets()[label] == 1.0)


def test_targets_are_float64_matrix_rows():
    cb = make_codebook(4, 16)
    t = cb.targets()
    assert t.shape == (4, 16) and t.dtype == np.float64
    np.testing.assert_array_equal(t, cb.matrix[1:5].astype(np.float64))
    np.testing.assert_array_equal(t, cb.matrix[list(cb.class_rows)])


def test_codebook_rows_are_the_walsh_matrix_rows():
    for rank in (2 ** k for k in range(1, 9)):
        w = _sylvester(rank)
        for class_count in range(1, rank):
            cb = make_codebook(class_count, rank)
            assert cb.rank == rank and cb.matrix.dtype == np.int64
            np.testing.assert_array_equal(cb.matrix, w[:class_count + 1])
            np.testing.assert_array_equal(cb.targets(), w[1:class_count + 1])


def test_codebook_builds_only_its_class_rows():
    # the whole rank-4096 matrix would be 128 MiB; three of its rows are 96 KiB
    tracemalloc.start()
    try:
        make_codebook(2, 4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_capacity_limit_is_rank_minus_one():
    assert make_codebook(15, 16).class_count == 15
    with pytest.raises(ContractError):
        make_codebook(16, 16)
    with pytest.raises(ContractError):
        make_codebook(8, 8)


def test_codebook_beyond_any_address_space_is_memory_error_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError):
            make_codebook(2 ** 40, 2 ** 41)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_class_count_must_be_positive():
    with pytest.raises(ContractError):
        make_codebook(0, 8)


def test_codebook_is_immutable():
    cb = make_codebook(2, 8)
    with pytest.raises(AttributeError):
        cb.rank = 4


def test_targets_pairwise_squared_distance_is_half_rank():
    # squared Euclidean distance between 0/1 rows equals the Hamming distance
    cb = make_codebook(7, 16)
    t = cb.targets()
    for i in range(7):
        for j in range(i + 1, 7):
            assert float(np.sum((t[i] - t[j]) ** 2)) == 8.0


def test_isinstance_of_dataclass():
    cb = make_codebook(2, 4)
    assert isinstance(cb, WalshCodebook)
