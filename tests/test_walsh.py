"""Walsh codebook construction and class-target assignment."""

import numpy as np
import pytest

from divfe.walsh import WalshCodebook, WalshError, build_modified_walsh, make_codebook

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


def test_hadamard_base_case():
    np.testing.assert_array_equal(build_modified_walsh(2), [[1, 1], [1, 0]])


def test_hadamard_orthogonality():
    # mapping 1 -> +1 and 0 -> -1 recovers the Hadamard matrix: H H^T = rank I
    for rank in (2, 4, 8, 16, 32):
        h = 2 * build_modified_walsh(rank) - 1
        np.testing.assert_array_equal(h @ h.T, rank * np.eye(rank, dtype=np.int64))


def test_modified_walsh_8x8_matches_reference():
    np.testing.assert_array_equal(build_modified_walsh(8), WALSH_8)


def test_modified_walsh_rank16_first_rows():
    w = build_modified_walsh(16)
    np.testing.assert_array_equal(w[0], np.ones(16, dtype=np.int64))
    np.testing.assert_array_equal(w[1], [1, 0] * 8)
    np.testing.assert_array_equal(w[2], [1, 1, 0, 0] * 4)


def test_pairwise_hamming_distance_is_half_rank():
    for rank in (2, 4, 8, 16, 32):
        w = build_modified_walsh(rank)
        for i in range(rank):
            for j in range(i + 1, rank):
                assert np.count_nonzero(w[i] != w[j]) == rank // 2


def test_invalid_ranks_rejected():
    for bad in (0, 1, 3, 6, 12, -4, 2.5, "8"):
        with pytest.raises(WalshError):
            build_modified_walsh(bad)
        with pytest.raises(WalshError):
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


def test_capacity_limit_is_rank_minus_one():
    assert make_codebook(15, 16).class_count == 15
    with pytest.raises(WalshError):
        make_codebook(16, 16)
    with pytest.raises(WalshError):
        make_codebook(8, 8)


def test_class_count_must_be_positive():
    with pytest.raises(WalshError):
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
