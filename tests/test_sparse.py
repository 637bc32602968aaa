import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from shiftkrylov import (
    CsrMatrix,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidDimensions,
    identity,
)


def small_matrix():
    # [[2, 0, 1],
    #  [0, 3, 0],
    #  [4, 0, 5]]
    return CsrMatrix.from_triplets(
        [0, 0, 1, 2, 2], [0, 2, 1, 0, 2], [2.0, 1.0, 3.0, 4.0, 5.0], (3, 3)
    )


def test_from_triplets_csr_layout():
    A = small_matrix()
    assert A.shape == (3, 3)
    assert A.nnz == 5
    assert_array_equal(A.row_ptr, [0, 2, 3, 5])
    assert_array_equal(A.col_idx, [0, 2, 1, 0, 2])
    assert_allclose(A.values, [2.0, 1.0, 3.0, 4.0, 5.0])


def test_from_triplets_sums_duplicates():
    A = CsrMatrix.from_triplets([0, 0, 0], [1, 1, 0], [2.0, 3.0, 1.0], (2, 2))
    assert A.nnz == 2
    assert_allclose(A.toarray(), [[1.0, 5.0], [0.0, 0.0]])


def test_from_triplets_validation():
    with pytest.raises(IndexOutOfRange):
        CsrMatrix.from_triplets([0, 2], [0, 0], [1.0, 1.0], (2, 2))
    with pytest.raises(IndexOutOfRange):
        CsrMatrix.from_triplets([0], [-1], [1.0], (2, 2))
    with pytest.raises(InvalidDimensions):
        CsrMatrix.from_triplets([], [], [], (0, 3))
    with pytest.raises(DimensionMismatch):
        CsrMatrix.from_triplets([0, 1], [0], [1.0, 2.0], (2, 2))


def test_matvec_and_counter():
    A = small_matrix()
    x = np.array([1.0, 2.0, 3.0])
    assert A.counter.count == 0
    y = A @ x
    assert_allclose(y, [5.0, 6.0, 19.0])
    assert A.counter.count == 1
    # the private apply is for diagnostics and must not tick the counter
    assert_allclose(A._apply(x), y)
    assert A.counter.count == 1
    A.counter.reset()
    assert A.counter.count == 0


def test_matvec_dimension_check():
    A = small_matrix()
    with pytest.raises(DimensionMismatch):
        A @ np.ones(4)


def test_shifted_subtracts_sigma_on_diagonal():
    A = small_matrix()
    B = A.shifted(0.5)
    assert_allclose(B.toarray(), A.toarray() - 0.5 * np.eye(3))
    # complex shift promotes the dtype
    C = A.shifted(1j)
    assert np.iscomplexobj(C.values)
    assert_allclose(C.toarray(), A.toarray() - 1j * np.eye(3))
    # fresh counter on the shifted copy
    _ = A @ np.ones(3)
    assert B.counter.count == 0


def test_norm_inf_is_max_abs_row_sum():
    A = small_matrix()
    assert A.norm_inf() == 9.0
    B = CsrMatrix.from_triplets([0, 1], [0, 0], [-3.0 + 4.0j, 1.0], (2, 2))
    assert_allclose(B.norm_inf(), 5.0)


def test_conjugate_transpose():
    B = CsrMatrix.from_triplets([0, 1], [1, 0], [1.0 + 2.0j, 3.0], (2, 3))
    Bh = B.conjugate_transpose()
    assert Bh.shape == (3, 2)
    assert_allclose(Bh.toarray(), B.toarray().conj().T)


def test_identity():
    I = identity(4)
    assert_allclose(I.toarray(), np.eye(4))
    x = np.arange(4.0)
    assert_allclose(I @ x, x)
