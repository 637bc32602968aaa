import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose, assert_array_equal

from shiftkrylov import (
    CsrMatrix,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidDimensions,
    NonFiniteInput,
    ZeroStartVector,
    gen_laplace2d,
    identity,
    pivot_select,
    run_arnoldi,
    run_hessenberg,
    verify_decomposition,
)
from shiftkrylov.processes import _EPS, _check_start, _operator_norm_scale


def csr_from_dense(M):
    rows, cols = np.nonzero(M)
    return CsrMatrix.from_triplets(rows, cols, np.asarray(M)[rows, cols], M.shape)


def random_sparse(rng, n, density=0.1):
    M = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    M += np.diag(rng.standard_normal(n) + 4.0)
    return csr_from_dense(M)


def test_pivot_select_first_max_and_window():
    u = np.array([1.0, -3.0, 3.0, 0.5])
    # ties resolve to the first position with maximal magnitude
    assert pivot_select(u) == 1
    assert pivot_select(u, start=2) == 2
    with pytest.raises(IndexOutOfRange):
        pivot_select(u, start=4)


def test_hand_worked_2x2():
    # A = [[2, 1], [1, 2]], v = (1, 2): the largest entry of v is v_2, so
    # beta = 2 and the permutation starts as (2, 1).  One elimination step
    # gives the values below; the second step exhausts the space.
    A = csr_from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
    dec = run_hessenberg(A, np.array([1.0, 2.0]), 2)
    assert dec.beta == 2.0
    assert_array_equal(dec.perm, [1, 0])
    assert dec.steps == 2
    assert dec.breakdown
    assert_allclose(dec.basis, [[0.5, 1.0], [1.0, 0.0]], atol=0)
    assert_allclose(dec.hbar, [[2.5, 1.0], [0.75, 1.5], [0.0, 0.0]], atol=0)
    assert verify_decomposition(A, dec) == 0.0


def test_unit_triangular_structure_is_exact():
    # rows of the basis in pivot order form a unit lower triangular matrix
    # with exact 1.0 and exact 0.0 entries, not merely approximate ones
    rng = np.random.default_rng(11)
    A = random_sparse(rng, 40)
    v = rng.standard_normal(40)
    m = 12
    dec = run_hessenberg(A, v, m)
    L = dec.basis[dec.perm[: m + 1], :]
    for j in range(m + 1):
        assert L[j, j] == 1.0
        for i in range(j):
            assert L[i, j] == 0.0


def test_decomposition_identity_small():
    rng = np.random.default_rng(5)
    A = random_sparse(rng, 30)
    v = rng.standard_normal(30)
    dec = run_hessenberg(A, v, 10)
    scale = np.linalg.norm(dec.hbar) * np.linalg.norm(dec.basis)
    assert verify_decomposition(A, dec) <= 1e-13 * max(scale, 1.0)


def test_start_vector_scaling():
    # first basis vector is v / beta with unit entry at the pivot position
    rng = np.random.default_rng(2)
    A = random_sparse(rng, 20)
    v = rng.standard_normal(20)
    dec = run_hessenberg(A, v, 5)
    i0 = dec.perm[0]
    assert abs(v[i0]) == np.max(np.abs(v))
    assert dec.beta == v[i0]
    assert_allclose(dec.basis[:, 0], v / dec.beta, atol=0)


def test_breakdown_on_eigenvector():
    # starting from an eigenvector the first residual vanishes: one step,
    # happy breakdown, and the 1x1 reduced matrix holds the eigenvalue
    A = csr_from_dense(np.diag([3.0, 1.0, 1.0]))
    v = np.array([1.0, 0.0, 0.0])
    dec = run_hessenberg(A, v, 3)
    assert dec.breakdown
    assert dec.steps == 1
    assert_allclose(dec.square_h, [[3.0]])


def test_zero_and_bad_inputs():
    A = csr_from_dense(np.eye(3))
    with pytest.raises(ZeroStartVector):
        run_hessenberg(A, np.zeros(3), 2)
    with pytest.raises(DimensionMismatch):
        run_hessenberg(A, np.ones(4), 2)
    with pytest.raises(InvalidDimensions):
        run_hessenberg(A, np.ones(3), 0)
    with pytest.raises(InvalidDimensions):
        run_hessenberg(A, np.ones(3), 5)


def test_arnoldi_orthonormal_basis():
    rng = np.random.default_rng(20)
    A = random_sparse(rng, 35)
    v = rng.standard_normal(35)
    m = 12
    dec = run_arnoldi(A, v, m)
    Q = dec.basis
    # single-pass modified Gram-Schmidt: orthogonality to a few ulps times
    # the iteration count, not to machine precision
    assert_allclose(Q.conj().T @ Q, np.eye(m + 1), atol=1e-10)
    assert dec.beta == np.linalg.norm(v)
    scale = np.linalg.norm(dec.hbar)
    assert verify_decomposition(A, dec) <= 1e-13 * max(scale, 1.0)


def test_both_processes_span_the_same_space():
    # different bases, same Krylov subspace: columns of one must be exactly
    # representable in the other up to roundoff
    rng = np.random.default_rng(31)
    A = random_sparse(rng, 25)
    v = rng.standard_normal(25)
    m = 8
    dh = run_hessenberg(A, v, m)
    da = run_arnoldi(A, v, m)
    Q = da.basis[:, : m + 1]
    L = dh.basis[:, : m + 1]
    # project L onto span(Q); the residual must vanish
    proj = Q @ (Q.conj().T @ L)
    assert np.linalg.norm(proj - L) <= 1e-10 * np.linalg.norm(L)


def test_complex_matrix():
    rng = np.random.default_rng(8)
    n = 18
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    M *= rng.random((n, n)) < 0.2
    M += np.diag(4.0 + rng.standard_normal(n))
    A = csr_from_dense(M)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    dec = run_hessenberg(A, v, 6)
    scale = np.linalg.norm(dec.hbar) * np.linalg.norm(dec.basis)
    assert verify_decomposition(A, dec) <= 1e-13 * scale
    L = dec.basis[dec.perm[:7], :]
    assert np.all(np.diag(L) == 1.0)


def _reference_run_hessenberg(A, v, m):
    """The two-copy pivoted Hessenberg loop, kept as a bitwise reference.

    Holds the basis twice, in natural order and with rows in pivot order,
    and gathers each product into pivot order before eliminating.
    """
    v, n, m, dtype = _check_start(A, v, m)
    norm_scale = _operator_norm_scale(A)

    perm = np.arange(n)
    i0 = pivot_select(v, start=0)
    beta = v[i0]
    perm[0], perm[i0] = perm[i0], perm[0]
    basis_nat = np.zeros((n, m + 1), dtype=dtype, order="F")
    basis_perm = np.zeros((n, m + 1), dtype=dtype, order="F")
    basis_nat[:, 0] = v / beta
    basis_nat[i0, 0] = 1.0
    basis_perm[:, 0] = basis_nat[perm, 0]
    hbar = np.zeros((m + 1, m), dtype=dtype)

    steps = m
    breakdown = False
    for j in range(m):
        u = A @ basis_nat[:, j]
        up = np.asarray(u, dtype=dtype)[perm]
        for i in range(j + 1):
            h = up[i]
            hbar[i, j] = h
            if h != 0:
                up[i:] -= h * basis_perm[i:, i]
        if j + 1 < n:
            piv_pos = pivot_select(up, start=j + 1)
            piv = up[piv_pos]
            scale = norm_scale if norm_scale is not None else float(
                np.abs(u).max(initial=0.0)
            )
            if abs(piv) > n * _EPS * scale:
                hbar[j + 1, j] = piv
                lp = up / piv
                lp[piv_pos] = 1.0
                if piv_pos != j + 1:
                    perm[j + 1], perm[piv_pos] = perm[piv_pos], perm[j + 1]
                    lp[j + 1], lp[piv_pos] = lp[piv_pos], lp[j + 1]
                    basis_perm[[j + 1, piv_pos], : j + 1] = basis_perm[
                        [piv_pos, j + 1], : j + 1
                    ]
                basis_perm[:, j + 1] = lp
                basis_nat[perm, j + 1] = lp
                continue
        steps = j + 1
        breakdown = True
        break

    ncols = steps if breakdown else steps + 1
    return basis_nat[:, :ncols], hbar[: steps + 1, :steps], perm, beta, steps, breakdown


def relative_gap(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def assert_matches_reference(A, v, m):
    # the blocked step sums each column in another order than the
    # reference's axpys, so values agree to roundoff; pivots and the
    # step count are decided far from any tie here and stay exact
    dec = run_hessenberg(A, v, m)
    basis, hbar, perm, beta, steps, breakdown = _reference_run_hessenberg(A, v, m)
    assert_array_equal(dec.perm, perm)
    assert dec.beta == beta
    assert (dec.steps, dec.breakdown) == (steps, breakdown)
    assert dec.basis.shape == basis.shape
    assert relative_gap(dec.basis, basis) <= 1e-12
    assert relative_gap(dec.hbar, hbar) <= 1e-12
    return dec


def test_one_basis_loop_matches_two_copy_reference():
    rng = np.random.default_rng(101)
    for _ in range(20):
        n = int(rng.integers(10, 60))
        A = random_sparse(rng, n, density=rng.uniform(0.05, 0.4))
        assert_matches_reference(A, rng.standard_normal(n), int(rng.integers(1, n + 1)))


def test_one_basis_loop_matches_reference_on_complex_matrix():
    rng = np.random.default_rng(102)
    n = 40
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    M *= rng.random((n, n)) < 0.15
    M += np.diag(4.0 + rng.standard_normal(n))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert_matches_reference(csr_from_dense(M), v, 15)
    # a real start vector on a complex operator promotes the basis
    assert_matches_reference(csr_from_dense(M), v.real, 15)


def test_one_basis_loop_matches_reference_on_tied_magnitudes():
    # the Laplacian with b = ones produces many candidates equal up to an
    # ulp or two, so the two loops' roundoff breaks some ties differently
    # and the pivot orders part; both must still be valid pivoted bases
    # of the same Krylov space.  On the 10 x 10 grid, ones meets only 15
    # distinct eigenvalues (odd modes, symmetric in x and y), so columns
    # past the 15th span roundoff, not the Krylov space, and are not compared
    for A, m, dim in ((gen_laplace2d(20), 30, 31), (gen_laplace2d(10), 40, 15)):
        v = np.ones(A.shape[0])
        dec = run_hessenberg(A, v, m)
        ref_basis = _reference_run_hessenberg(A, v, m)[0]
        assert not dec.breakdown
        L = dec.basis[dec.perm[: m + 1], :]
        assert np.array_equal(np.diag(L), np.ones(m + 1))
        assert not np.any(np.triu(L, k=1))
        assert np.abs(dec.basis).max() <= 1.0
        assert verify_decomposition(A, dec) <= 1e-14 * A.norm_inf() * np.linalg.norm(dec.basis)
        Q = np.linalg.qr(ref_basis[:, :dim])[0]
        B = dec.basis[:, :dim]
        assert relative_gap(Q @ (Q.T @ B), B) <= 1e-10


def test_pivot_tie_goes_to_the_first_candidate_in_pivot_order():
    # after one step the candidates are 2 at row 0 and -2 at row 1; row 1
    # comes first in pivot order (perm = 3, 1, 2, 0), row 0 in natural order
    M = np.zeros((4, 4))
    M[:, 3] = [3.0, -2.0, 0.0, 2.0]
    M[:, 1] = [1.0, 0.0, 0.0, 0.0]
    dec = run_hessenberg(csr_from_dense(M), np.array([0.5, 0.0, 0.0, 1.0]), 2)
    assert_array_equal(dec.perm[:2], [3, 1])


def test_one_basis_loop_matches_reference_on_breakdowns():
    n = 12
    dec = assert_matches_reference(identity(n), np.linspace(1.0, 2.0, n), 5)
    assert dec.breakdown and dec.steps == 1
    A = csr_from_dense(np.diag([3.0, 1.0, 1.0]))
    dec = assert_matches_reference(A, np.array([1.0, 0.0, 0.0]), 3)
    assert dec.breakdown and dec.steps == 1
    # the Krylov space is exhausted after n steps
    A = csr_from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
    dec = assert_matches_reference(A, np.array([1.0, 2.0]), 2)
    assert dec.breakdown and dec.steps == 2


@pytest.mark.parametrize("process", [run_hessenberg, run_arnoldi])
def test_nan_in_operator_is_not_a_breakdown(process):
    # the NaN product used to end the hessenberg process as a happy
    # breakdown after one step
    M = np.eye(5)
    M[2, 2] = np.nan
    with pytest.raises(NonFiniteInput):
        process(csr_from_dense(M), np.arange(1.0, 6.0), 3)


@pytest.mark.parametrize("process", [run_hessenberg, run_arnoldi])
def test_breakdown_without_operator_norm(process):
    # an operator without norm_inf takes its breakdown scale from the
    # product, before the elimination shrinks it to roundoff
    M = np.diag(np.arange(1.0, 51.0))
    v = np.zeros(50)
    v[:3] = [1.0, 0.7, 0.3]
    ref = process(csr_from_dense(M), v, 10)
    dec = process(sp.csr_matrix(M), v, 10)
    assert ref.breakdown and ref.steps == 3
    assert dec.breakdown and dec.steps == 3
