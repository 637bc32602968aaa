import doctest

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import shiftkrylov.sparse
from shiftkrylov import (
    CsrMatrix,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidDimensions,
    gen_convdiff3d,
    gen_laplace2d,
    identity,
    load_matrix_market,
    save_matrix_market,
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


def test_identity():
    I = identity(4)
    assert_allclose(I.toarray(), np.eye(4))
    x = np.arange(4.0)
    assert_allclose(I @ x, x)


# -- the product kernel ---------------------------------------------------


@st.composite
def banded_triplets(draw):
    """Entries on a few diagonals of a square or rectangular matrix, real
    or complex, with holes and explicit zeros: ``(rows, cols, vals,
    shape)``, each position once."""
    nrows, ncols = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    offsets = draw(st.lists(st.integers(1 - nrows, ncols - 1), min_size=1, max_size=5,
                            unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hole = draw(st.sampled_from([0.0, 0.1, 0.4]))
    diagonals = [np.arange(max(0, -k), min(nrows, ncols - k)) for k in offsets]
    rows = np.concatenate(diagonals)
    cols = np.concatenate([i + k for i, k in zip(diagonals, offsets)])
    kept = rng.random(rows.size) >= hole
    rows, cols = rows[kept], cols[kept]
    vals = rng.standard_normal(rows.size)
    if draw(st.booleans()):
        vals = vals + 1j * rng.standard_normal(rows.size)
    vals[rng.random(rows.size) < 0.2] = 0.0
    return rows, cols, vals, (nrows, ncols)


def vector(rng, n, complex_):
    x = rng.standard_normal(n)
    return x + 1j * rng.standard_normal(n) if complex_ else x


@settings(max_examples=150, derandomize=True, deadline=None)
@given(banded_triplets(), st.booleans())
def test_products_are_bitwise_those_of_the_csr_kernel(triplets, complex_x):
    rows, cols, vals, shape = triplets
    A = CsrMatrix.from_triplets(rows, cols, vals, shape)
    S = sp.csr_matrix((vals, (rows, cols)), shape=shape)
    S.sort_indices()
    x = vector(np.random.default_rng(rows.size), shape[1], complex_x)
    for y in (A @ x, A._apply(x)):
        z = S @ x
        assert y.dtype == z.dtype and y.tobytes() == z.tobytes()


@settings(max_examples=100, derandomize=True, deadline=None)
@given(banded_triplets(), st.booleans(), st.data())
def test_an_infinite_entry_spoils_at_least_the_rows_it_spoils_in_csr(triplets, complex_x,
                                                                    data):
    rows, cols, vals, shape = triplets
    A = CsrMatrix.from_triplets(rows, cols, vals, shape)
    S = sp.csr_matrix((vals, (rows, cols)), shape=shape)
    x = vector(np.random.default_rng(rows.size), shape[1], complex_x)
    x[data.draw(st.integers(0, shape[1] - 1))] = data.draw(st.sampled_from([np.inf, -np.inf]))
    with np.errstate(invalid="ignore"):
        y, z = A @ x, S @ x
    assert np.all(~np.isfinite(y)[~np.isfinite(z)])


def test_a_padded_slot_times_inf_is_nan_on_the_diagonal_kernel():
    # tridiagonal with a hole at (0, 1): the padded slot meets x[1] = inf
    A = CsrMatrix.from_triplets([0, 1, 1, 1, 2, 2], [0, 0, 1, 2, 1, 2],
                                [2.0, -1.0, 2.0, -1.0, -1.0, 2.0], (3, 3))
    assert repr(A).endswith("3 diagonals>")
    x = np.array([1.0, np.inf, 1.0])
    with np.errstate(invalid="ignore"):
        y = A @ x
    assert np.isfinite(sp.csr_matrix(A.toarray()) @ x)[0]
    assert np.isnan(y[0]) and np.all(~np.isfinite(y[1:]))


def scattered(seed, n=80, density=0.08):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    M += np.diag(6.0 + rng.standard_normal(n))
    rows, cols = np.nonzero(M)
    return CsrMatrix.from_triplets(rows, cols, M[rows, cols], M.shape)


def test_the_kernel_follows_the_pattern(tmp_path):
    conv = gen_convdiff3d(30, 1.0, (0.0, 111.8, 223.6), 400.0)
    assert repr(conv) == "<CsrMatrix 27000x27000, nnz=183600, dtype=float64, 7 diagonals>"
    path = tmp_path / "lap.mtx"
    save_matrix_market(gen_laplace2d(40), path)
    lap = load_matrix_market(path)
    assert repr(lap) == "<CsrMatrix 1600x1600, nnz=7840, dtype=float64, 5 diagonals>"
    assert repr(scattered(0)).endswith(", CSR>")
    # the padding bound: 2 diagonals of a 4 x 4 matrix need 4 entries
    assert repr(CsrMatrix.from_triplets([0, 1, 2, 3], [0, 1, 2, 2], np.ones(4), (4, 4))
                ).endswith("2 diagonals>")
    assert repr(CsrMatrix.from_triplets([0, 1, 3], [0, 1, 2], np.ones(3), (4, 4))
                ).endswith(", CSR>")


def test_either_kernel_counts_one_per_product():
    for A in (small_matrix(), scattered(1)):
        x = np.ones(A.shape[1])
        for count in (1, 2, 3):
            _ = A @ x
            assert A.counter.count == count
        _ = A._apply(x)
        assert A.counter.count == 3


@pytest.mark.parametrize("kernel", ["diagonals", "CSR"])
def test_the_direct_kernel_call_is_bitwise_scipys_product(kernel):
    # a product calls scipy.sparse's compiled kernel itself, without the
    # dispatch of its @; this pins it to that public @ on the same storage,
    # should a scipy upgrade change the private kernels
    A0 = gen_laplace2d(9) if kernel == "diagonals" else scattered(2)
    rng = np.random.default_rng(3)
    rows = np.repeat(np.arange(A0.shape[0]), np.diff(A0.row_ptr))
    n = A0.shape[1]
    z = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    # real, complex, strided, integer and single-precision vectors
    xs = (z.real[:n], z[:n], z.real[::2], z[::2], np.arange(n), z.real[:n].astype(np.float32))
    for vals in (A0.values, A0.values + 1j * rng.standard_normal(A0.nnz)):
        A = CsrMatrix.from_triplets(rows, A0.col_idx, vals, A0.shape)
        assert repr(A).endswith(f"{kernel}>")
        for x in xs:
            y, ref = A @ x, A._kernel @ x
            assert y.dtype == ref.dtype and y.tobytes() == ref.tobytes()


def test_direct_products_are_fresh_arrays_counted_once_and_shape_checked():
    for A in (small_matrix(), scattered(1)):  # the diagonal and the CSR kernel
        x = np.ones(A.shape[1])
        y1, y2 = A @ x, A @ x
        assert not np.shares_memory(y1, y2) and not np.shares_memory(y1, x)
        y1[:] = 0.0
        assert_array_equal(y2, A._apply(x))
        assert A.counter.count == 2
        for bad in (np.ones(A.shape[1] + 1), np.ones((A.shape[1], 1)), np.float64(1.0)):
            with pytest.raises(DimensionMismatch):
                _ = A @ bad
        assert A.counter.count == 2


def test_the_csr_views_are_read_only():
    # the diagonal copy and the cached norm derive from them
    A = small_matrix()
    for view in (A.row_ptr, A.col_idx, A.values):
        with pytest.raises(ValueError):
            view[0] = 0
    assert A.norm_inf() == A.norm_inf() == 9.0


def test_the_docstring_examples_run():
    failed, attempted = doctest.testmod(shiftkrylov.sparse)
    assert attempted > 0 and failed == 0
