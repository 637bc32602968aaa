import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import get_lapack_funcs, lu_factor, solve_triangular

from shiftkrylov import (
    CsrMatrix,
    DimensionMismatch,
    HessenbergDecomposition,
    IndexOutOfRange,
    InvalidDimensions,
    NonFiniteInput,
    SolverConfig,
    ZeroStartVector,
    gen_convdiff3d,
    gen_laplace2d,
    gen_shifts,
    identity,
    run_arnoldi,
    run_hessenberg,
    solve_shifted_hessen,
    thick_restart,
    verify_decomposition,
)
from shiftkrylov.processes import (
    _EPS,
    _breakdown_threshold,
    _check_start,
    _count,
    _krylov_schur,
    _operator_norm_scale,
    _pivot_column,
)


def csr_from_dense(M):
    rows, cols = np.nonzero(M)
    return CsrMatrix.from_triplets(rows, cols, np.asarray(M)[rows, cols], M.shape)


def pivot_select(u, start=0):
    """The pivoting rule's reference: the first position, from ``start``
    on, whose entry has maximal magnitude.  Applied to a vector stored in
    pivot order, it returns a position in that order."""
    u = np.asarray(u)
    n = u.shape[0]
    if not 0 <= start < n:
        raise IndexOutOfRange(
            f"start position {start} leaves no candidate in a vector of length {n}"
        )
    return start + int(np.argmax(np.abs(u[start:])))


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


@pytest.mark.parametrize("u, perm, col", [
    # a tie at the last entry, and a last entry that is the only maximum
    ([0.0, 1.0, 3.0, 2.0, -3.0], [0, 1, 2, 3, 4], 0),
    ([1.0, -2.0, 5.0], [0, 1, 2], 0),
    # +p against -p, in either pivot order, real and complex
    ([0.5, -2.0, 1.0, 2.0], [0, 1, 2, 3], 0),
    ([0.5, -2.0, 1.0, 2.0], [3, 2, 1, 0], 0),
    ([2j, 1.0, -2j], [0, 1, 2], 0),
    # all magnitudes equal, before and after a pivot row
    ([1.0, -1.0, 1.0, -1.0], [2, 0, 3, 1], 0),
    ([1.0, -1.0, 0.0, -1.0], [2, 0, 3, 1], 1),
    # a tie in which the later row comes first in pivot order
    ([3.0, 1.0, 3.0], [2, 1, 0], 0),
    ([0.0, 4.0, 1.0, -4.0], [0, 3, 2, 1], 1),
])
def test_pivot_column_takes_the_first_maximum_in_pivot_order(u, perm, col):
    u, perm = np.array(u), np.array(perm)
    n = u.size
    inv = np.empty_like(perm)
    inv[perm] = np.arange(n)
    # the reference reads u in pivot order
    row = perm[pivot_select(u[perm], start=col)]
    want = perm.copy()
    want[[col, inv[row]]] = want[[inv[row], col]]
    before = u.copy()
    piv = _pivot_column(u, np.empty(n), col, perm, inv, 0.0)
    assert piv == before[row] and u[row] == 1.0
    assert_allclose(u, before / piv, rtol=1e-15)
    assert_array_equal(perm, want)
    assert_array_equal(inv[perm], np.arange(n))


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
    v, n, m, dtype, norm_scale = _check_start(A, v, m)

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


def planted_ties(rng, n):
    """A diagonally dominant sparse operator and a start vector with rows
    of both copied up to sign."""
    M = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2)
    M += np.diag(rng.standard_normal(n) + 4.0)
    v = rng.standard_normal(n)
    for src in rng.choice(n, 6, replace=False):
        for dst in rng.choice(n, 2, replace=False):
            if dst != src:
                sign = rng.choice([-1.0, 1.0])
                M[dst] = sign * M[src]
                v[dst] = sign * v[src]
    return csr_from_dense(M), v


def test_planted_ties_follow_pivot_select_in_pivot_order():
    # a row copied up to sign, with the start entry copied alike, keeps
    # its product entries equal in magnitude to the source's at every
    # step, so the pivot scan meets exact ties; on real data every tied
    # maximum of a normalized candidate column is exactly 1 in magnitude,
    # so each step's choice can be replayed from the decomposition
    rng = np.random.default_rng(7)
    n = 40
    tie_steps = not_first_natural = 0
    for _ in range(30):
        dec = run_hessenberg(*planted_ties(rng, n), 20)
        assert not dec.breakdown
        perm = np.arange(n)
        perm[0], perm[dec.perm[0]] = dec.perm[0], 0
        for j in range(dec.steps):
            cand = dec.basis[:, j + 1]
            row = dec.perm[j + 1]
            pos = int(np.flatnonzero(perm == row)[0])
            assert pivot_select(cand[perm], start=j + 1) == pos
            ties = np.flatnonzero(np.abs(cand) == 1.0)
            tie_steps += ties.size > 1
            not_first_natural += ties[0] != row
            perm[j + 1], perm[pos] = row, perm[j + 1]
    # the planted ties are met, and often enough the first maximum in
    # natural order is not the first in pivot order
    assert tie_steps >= 50 and not_first_natural >= 20


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
    # breakdown after one step; then both runners spent that product
    # before they raised
    M = np.eye(5)
    M[2, 2] = np.nan
    A = csr_from_dense(M)
    with pytest.raises(NonFiniteInput):
        process(A, np.arange(1.0, 6.0), 3)
    assert A.counter.count == 0


@pytest.mark.parametrize("process", [run_hessenberg, run_arnoldi])
def test_overflowing_operator_norm_is_rejected_before_any_product(process):
    # every entry is finite (the largest 9.7e307), but the row sums
    # overflow: the hessenberg process read the inf breakdown threshold as
    # a happy breakdown at step 1
    A = csr_from_dense(gen_laplace2d(10).toarray() * 2e305)
    assert np.all(np.isfinite(A.toarray())) and A.norm_inf() == np.inf
    with pytest.raises(NonFiniteInput, match="overflow"):
        process(A, np.ones(100), 10)
    assert A.counter.count == 0
    # a dense operator's row sums too, with no overflow warning (tier-1
    # makes a RuntimeWarning an error)
    with pytest.raises(NonFiniteInput, match="overflow"):
        process(A.toarray(), np.ones(100), 10)


@pytest.mark.parametrize("process", [run_hessenberg, run_arnoldi])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_start_vector_is_rejected_before_any_product(process, bad):
    # it used to cost one product and then fail on the pivot candidate or
    # the subdiagonal of step 1
    A = csr_from_dense(np.diag(np.arange(1.0, 6.0)))
    v = np.arange(1.0, 6.0)
    v[2] = bad
    with pytest.raises(NonFiniteInput):
        process(A, v, 3)
    assert A.counter.count == 0


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


@pytest.mark.parametrize("process", [run_hessenberg, run_arnoldi])
def test_dense_operator_is_scaled_like_its_csr_copy(process):
    # a dense array has no norm_inf; its scale is the same infinity norm
    # (entries in quarters, so every row sum is exact in either order)
    rng = np.random.default_rng(105)
    M = rng.integers(-8, 9, (30, 30)) * (rng.random((30, 30)) < 0.2) / 4.0
    assert _operator_norm_scale(M) == csr_from_dense(M).norm_inf() > 0
    # so it breaks down at the same step as its CsrMatrix copy
    D = np.diag(np.arange(1.0, 51.0))
    v = np.zeros(50)
    v[:3] = [1.0, 0.7, 0.3]
    ref = process(csr_from_dense(D), v, 10)
    dec = process(D, v, 10)
    assert ref.breakdown and ref.steps == 3
    assert dec.breakdown and dec.steps == 3
    for name in ("basis", "hbar", "perm"):
        assert np.array_equal(getattr(dec, name), getattr(ref, name))


class ReturnsItsArgument:
    """The identity of order 6 as an operator whose product is a view: it
    returns its argument, the basis column itself."""

    shape = (6, 6)
    dtype = np.dtype(np.float64)

    def __matmul__(self, x):
        return x


@pytest.mark.parametrize("process", [run_hessenberg, run_arnoldi])
def test_operator_returning_its_argument(process):
    # a step working in place on the product used to overwrite the basis
    # column it multiplied, zeroing Arnoldi's start vector
    v = np.arange(1.0, 7.0)
    dec = process(ReturnsItsArgument(), v, 3)
    assert np.array_equal(dec.basis[:, 0], v / dec.beta)
    assert dec.breakdown and dec.steps == 1
    assert dec.hbar[0, 0] == 1.0


class ReportsItsNormAs:
    """An operator that multiplies like ``A`` but reports ``norm`` as its
    infinity norm, which scales the runners' breakdown threshold."""

    def __init__(self, A, norm):
        self.A, self.norm = A, norm
        self.shape, self.dtype = A.shape, A.dtype

    def norm_inf(self):
        return self.norm

    def __matmul__(self, x):
        return self.A @ x


@pytest.mark.parametrize("process", [run_hessenberg, run_arnoldi])
def test_norm_scale_is_the_operator_norm(process):
    # reporting the matrix's own norm is the plain run, bit for bit
    rng = np.random.default_rng(104)
    n = 40
    A = random_sparse(rng, n)
    v = rng.standard_normal(n)
    ref = process(A, v, 12)
    dec = process(ReportsItsNormAs(A, A.norm_inf()), v, 12)
    for name in ("basis", "hbar", "perm"):
        assert np.array_equal(getattr(dec, name), getattr(ref, name))
    assert (dec.beta, dec.steps, dec.breakdown) == (ref.beta, ref.steps, ref.breakdown)
    # the threshold is n * eps * ||A||_inf: twice the norm that makes it
    # the first subdiagonal ends the run there; half the one that makes it
    # the smallest subdiagonal ends no step
    sub = np.abs(np.diag(ref.hbar, -1)) / (n * _EPS)
    assert process(ReportsItsNormAs(A, 2.0 * sub[0]), v, 12).steps == 1
    dec = process(ReportsItsNormAs(A, 0.5 * sub.min()), v, 12)
    assert dec.steps == 12 and not dec.breakdown


def test_decomposition_trims_its_buffers():
    basis, hbar, perm = np.ones((5, 4)), np.ones((4, 3)), np.arange(5)
    dec = HessenbergDecomposition(basis, hbar, perm, 1.0, 2)
    assert dec.basis.shape == (5, 3) and dec.hbar.shape == (3, 2)
    # a scalar start coordinate is the fresh run's normalization
    assert_array_equal(dec.g, [1.0])
    assert dec.beta == 1.0
    dec = HessenbergDecomposition(basis, hbar, perm, 1.0, 2, breakdown=True)
    assert dec.basis.shape == (5, 2) and dec.hbar.shape == (3, 2)
    again = HessenbergDecomposition(dec.basis, dec.hbar, perm, 1.0, 2, breakdown=True)
    assert again.basis.shape == (5, 2) and again.hbar.shape == (3, 2)


# -- thick restart ----------------------------------------------------------


def thick_cases(runner=run_hessenberg):
    """A symmetric operator (real Ritz values) and a convection-dominated
    one (complex pairs among the smallest), with m = 30 decompositions."""
    rng = np.random.default_rng(5)
    lap = gen_laplace2d(20)
    conv = gen_convdiff3d(9, 1.0, (0.0, 111.8, 223.6), 400.0)
    for A in (lap, conv):
        v = rng.standard_normal(A.shape[0])
        yield A, v, runner(A, v, 30)


# each process with the restart that seeds it
RESTARTS = ((run_hessenberg, thick_restart), (run_arnoldi, _krylov_schur))


def orthonormality_loss(basis):
    return np.linalg.norm(basis.conj().T @ basis - np.eye(basis.shape[1]))


def assert_exact_unit_lower(dec, cols):
    T = dec.basis[dec.perm[:cols], :cols]
    assert_array_equal(np.diag(T), 1.0)
    assert_array_equal(np.triu(T, 1), 0.0)


@pytest.mark.parametrize("k", [5, 10])
def test_thick_restart_keeps_the_decomposition_and_the_basis_structure(k):
    for A, _, dec in thick_cases():
        fro = np.linalg.norm(A.values)
        seed = thick_restart(dec, k)
        # a conjugate pair is kept whole
        assert seed.steps in (k, k + 1)
        assert seed.basis.shape == (A.shape[0], seed.steps + 1)
        assert verify_decomposition(A, seed) <= 1e-12 * fro
        assert_exact_unit_lower(seed, seed.steps + 1)
        # the old last vector is the seed's start vector, in g coordinates
        v = dec.last_vector
        assert seed.g.size == seed.steps + 1
        assert_allclose(seed.basis @ seed.g, v, rtol=0, atol=1e-13 * np.abs(v).max())
        # continuing pays m - k products and keeps every guarantee
        A.counter.reset()
        cont = run_hessenberg(A, v, 30, start=seed)
        assert A.counter.count == 30 - seed.steps
        assert cont.steps == 30 and not cont.breakdown
        assert verify_decomposition(A, cont) <= 1e-12 * fro
        assert_exact_unit_lower(cont, 31)
        assert_array_equal(cont.g, seed.g)
        # Hessenberg after the kept block: the last row couples one column
        assert_array_equal(cont.hbar[30, :29], 0.0)
        assert_array_equal(np.tril(cont.hbar[:, seed.steps:], -seed.steps - 2), 0.0)


@pytest.mark.parametrize("k", [5, 10])
def test_krylov_schur_seed_of_an_arnoldi_run(k):
    for A, _, dec in thick_cases(run_arnoldi):
        fro = np.linalg.norm(A.values)
        seed = _krylov_schur(dec, k)
        assert seed.steps in (k, k + 1)
        assert seed.basis.shape == (A.shape[0], seed.steps + 1)
        assert verify_decomposition(A, seed) <= 1e-12 * fro
        # the old last vector is the seed's last column, g = e_{k+1}
        v = dec.last_vector
        assert_array_equal(seed.basis @ seed.g, v)
        # V Q_k is no further from orthonormal than V; the continued basis
        # is not pinned, one-pass MGS loses orthogonality against V Q_k
        assert orthonormality_loss(seed.basis) <= orthonormality_loss(dec.basis)
        A.counter.reset()
        cont = run_arnoldi(A, v, 30, start=seed)
        assert A.counter.count == 30 - seed.steps
        assert cont.steps == 30 and not cont.breakdown
        assert verify_decomposition(A, cont) <= 1e-12 * fro
        assert_array_equal(cont.g, seed.g)
        assert_array_equal(cont.basis[:, : seed.steps + 1], seed.basis)
        assert_array_equal(cont.hbar[30, :29], 0.0)
        assert_array_equal(np.tril(cont.hbar[:, seed.steps:], -seed.steps - 2), 0.0)


def test_thick_restart_keeps_real_data_real():
    for runner, restart in RESTARTS:
        for A, v, dec in thick_cases(runner):
            seed = restart(dec, 10)
            cont = runner(A, dec.last_vector, 30, start=seed)
            for d in (seed, cont):
                assert d.basis.dtype == np.float64 and d.hbar.dtype == np.float64


def test_thick_restart_of_a_complex_decomposition():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))
    A = csr_from_dense(M * (rng.random((60, 60)) < 0.2) + 6.0 * np.eye(60))
    dec = run_hessenberg(A, rng.standard_normal(60) + 0j, 20)
    seed = thick_restart(dec, 6)
    assert seed.steps == 6 and seed.basis.dtype == np.complex128
    cont = run_hessenberg(A, dec.last_vector, 20, start=seed)
    assert verify_decomposition(A, cont) <= 1e-12 * np.linalg.norm(A.values)
    assert_exact_unit_lower(cont, 21)


def test_continuing_a_fresh_run_is_the_longer_run():
    # the start contract: a j-step decomposition continued to m steps is
    # bitwise the m-step run
    rng = np.random.default_rng(12)
    A = random_sparse(rng, 120)
    v = rng.standard_normal(120)
    for runner, _ in RESTARTS:
        full = runner(A, v, 25)
        for j in (1, 12, 24):
            cont = runner(A, v, 25, start=runner(A, v, j))
            assert_array_equal(cont.basis, full.basis)
            assert_array_equal(cont.hbar, full.hbar)
            assert_array_equal(cont.perm, full.perm)
            assert_array_equal(cont.g, full.g)
            assert cont.beta == full.beta and cont.steps == full.steps


def test_start_that_cannot_be_continued_is_rejected():
    rng = np.random.default_rng(13)
    A = random_sparse(rng, 40)
    v = rng.standard_normal(40)
    for runner, _ in RESTARTS:
        dec = runner(A, v, 10)
        for m in (10, 5):
            with pytest.raises(InvalidDimensions):
                runner(A, v, m, start=dec)
        broken = runner(identity(40), v, 5)
        assert broken.breakdown
        with pytest.raises(InvalidDimensions):
            runner(identity(40), v, 10, start=broken)
        # a basis of another length
        with pytest.raises(InvalidDimensions):
            runner(random_sparse(rng, 41), np.ones(41), 12, start=dec)


def rotation_blocks(n=40):
    """Block diagonal 2 x 2 rotations and scalings: every eigenvalue, and
    every Ritz value of a short run, is one of a conjugate pair."""
    M = np.zeros((n, n))
    for i in range(0, n, 2):
        M[i : i + 2, i : i + 2] = [[1.0 + i, -0.5 - i], [0.5 + i, 1.0 + i]]
    return csr_from_dense(M)


def test_thick_restart_keeps_pairs_whole_or_falls_back():
    A = rotation_blocks()
    dec = run_hessenberg(A, np.random.default_rng(0).standard_normal(40), 8)
    for k in range(1, 7):
        seed = thick_restart(dec, k)
        assert seed.steps == k + k % 2
        ritz = np.linalg.eigvals(seed.square_h)
        assert_allclose(np.sort_complex(ritz), np.sort_complex(ritz.conj()), atol=1e-12)
    # the pair at the cut would keep all 8 columns: a plain restart instead
    assert thick_restart(dec, 7) is None
    for k in (0, 8, 2.5):
        with pytest.raises(InvalidDimensions):
            thick_restart(dec, k)
    with pytest.raises(InvalidDimensions):
        thick_restart(run_hessenberg(identity(40), np.ones(40), 5), 1)


@pytest.mark.parametrize("runner, restart", RESTARTS)
def test_restart_shares_the_cached_schur_form(runner, restart):
    # the restart reads the decomposition's one Schur form, computed on
    # first use, without modifying it; a failed form, info > 0 as gees
    # reports it, gives the plain restart
    _, _, dec = next(thick_cases(runner))
    assert "schur" not in vars(dec)
    T, Q, lam, info = dec.schur
    copies = [a.copy() for a in (T, Q, lam)]
    seed = restart(dec, 10)
    assert seed is not None and dec.schur[0] is T
    for a, b in zip((T, Q, lam), copies):
        assert_array_equal(a, b)
    assert_same_decomposition(restart(dec, 10), seed)
    dec.schur = (T, Q, lam, 1)
    assert restart(dec, 10) is None


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_thick_restart_of_a_non_finite_last_vector_falls_back(bad):
    # a step raises NonFiniteInput on such a candidate; the restart
    # leaves it to the plain restart that follows
    _, _, dec = next(thick_cases())
    dec.basis[3, dec.steps] = bad
    assert thick_restart(dec, 10) is None


# -- the thick restart against its plain reference --------------------------


def _reference_thick_restart(dec, k):
    """The thick restart written plainly, kept as a bitwise reference.

    Forms ``V Q_k`` column-major in an array of its own, as the restart
    forms it in its seed, lets ``lu_factor`` copy it, gathers all n rows
    of ``W = P L`` and stacks ``[W, w]`` row-major.
    """
    m = dec.steps
    message = f"cannot keep {k!r} of the {m} columns of {dec!r}"
    k = _count(k, 1, InvalidDimensions, message)
    if dec.breakdown or k >= m:
        raise InvalidDimensions(message)
    H = dec.square_h
    v = dec.last_vector
    n = v.shape[0]
    gees, trsen = get_lapack_funcs(("gees", "trsen"), (H,))
    # real gees returns the Ritz values as (wr, wi), complex gees as w
    T, _, *ritz, Q, _, info = gees(lambda *ritz: None, H)
    if info:
        return None
    mod = np.hypot(*ritz) if len(ritz) == 2 else np.abs(ritz[0])
    order = np.sort(mod)
    # a conjugate pair, like any exact tie of modulus, is kept whole
    while k < m and order[k] == order[k - 1]:
        k += 1
    if k >= m:
        return None
    T, Q, *_, info = trsen((mod <= order[k - 1]).astype(np.int32), T, Q, job="N")
    if info:
        return None
    VQ = np.empty((n, k), dtype=np.result_type(dec.basis, Q), order="F")
    np.matmul(dec.basis[:, :m], Q[:, :k], out=VQ)
    lu, piv = lu_factor(VQ, check_finite=False)
    U = np.triu(lu[:k])
    if np.abs(np.diagonal(U)).min() <= _breakdown_threshold(None, n, U):
        return None
    perm = np.arange(n)
    for i, p in enumerate(piv):
        perm[i], perm[p] = perm[p], perm[i]
    # W = P L in natural row order, pinned to exact zeros and ones on its
    # pivot rows
    lu[:k] = np.tril(lu[:k], -1) + np.eye(k)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(n)
    W = lu[inv]
    c = solve_triangular(lu[:k], v[perm[:k]], lower=True, unit_diagonal=True,
                         check_finite=False)
    u = v - W @ c
    u[perm[:k]] = 0.0
    pos = pivot_select(u[perm], start=k)
    s = u[perm[pos]]
    if not abs(s) > _breakdown_threshold(None, n, v):
        return None
    perm[k], perm[pos] = perm[pos], perm[k]
    w = u / s
    w[perm[k]] = 1.0
    # b_hat^T = b^T Q_k U^{-1} and U T_k U^{-1}, by solves with U^T
    bhat = solve_triangular(U, dec.hbar[m] @ Q[:, :k], trans="T", check_finite=False)
    hbar = np.empty((k + 1, k), dtype=lu.dtype)
    UTU = solve_triangular(U, (U @ T[:k, :k]).T, trans="T", check_finite=False).T
    hbar[:k] = UTU + np.outer(c, bhat)
    hbar[k] = s * bhat
    return HessenbergDecomposition(np.column_stack((W, w)), hbar, perm, np.append(c, s), k)


def flat_decomposition():
    """A 10-step decomposition whose basis repeats one column: ``V Q_k``
    has rank one, so a restart keeping more than one column meets a
    singular U, and one keeping a single column leaves v no remainder."""
    dec = run_hessenberg(gen_laplace2d(8), np.random.default_rng(3).standard_normal(64), 10)
    basis = np.repeat(dec.basis[:, :1], 11, axis=1)
    return HessenbergDecomposition(basis, dec.hbar.copy(), dec.perm.copy(), dec.g.copy(), 10)


def planted_tie_restart():
    """A decomposition whose restart meets an exact tie in its new vector,
    and the kept count to restart it with: the copied rows keep their
    entries equal in magnitude through ``V Q_k``, ``W`` and the remainder
    of v."""
    return run_hessenberg(*planted_ties(np.random.default_rng(10), 40), 20), 6


def test_planted_ties_meet_the_restart_in_pivot_order():
    new = thick_restart(*planted_tie_restart())
    # on real data a tied maximum of the normalized new vector is exactly
    # 1 in magnitude; the pivot is not the first of them in natural order
    ties = np.flatnonzero(np.abs(new.basis[:, new.steps]) == 1.0)
    assert ties.size > 1
    assert ties[0] != new.perm[new.steps]


def restart_cases():
    """Decompositions and the kept counts to restart them with: real and
    complex Ritz values, a complex basis, pairs at every cut, planted
    ties, and the three fallbacks."""
    for A, _, dec in thick_cases():
        for k in (5, 10):
            yield dec, k
    rng = np.random.default_rng(11)
    M = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))
    A = csr_from_dense(M * (rng.random((60, 60)) < 0.2) + 6.0 * np.eye(60))
    yield run_hessenberg(A, rng.standard_normal(60) + 0j, 20), 6
    dec = run_hessenberg(rotation_blocks(), np.random.default_rng(0).standard_normal(40), 8)
    for k in range(1, 8):
        yield dec, k
    yield planted_tie_restart()
    flat = flat_decomposition()
    yield flat, 1
    yield flat, 3


def assert_same_decomposition(dec, ref):
    if ref is None:
        assert dec is None
        return
    for name in ("basis", "hbar", "perm", "g"):
        assert_array_equal(getattr(dec, name), getattr(ref, name))
        assert getattr(dec, name).dtype == getattr(ref, name).dtype
    assert (dec.steps, dec.breakdown) == (ref.steps, ref.breakdown)


@pytest.fixture
def poisoned_empty(monkeypatch):
    """``np.empty`` filling what it returns with NaN (-1 for integers), so
    an entry that is returned without being written shows."""
    empty = np.empty

    def poisoned(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.fill(np.nan if out.dtype.kind in "fc" else -1)
        return out

    monkeypatch.setattr(np, "empty", poisoned)


def test_thick_restart_matches_the_row_major_reference(poisoned_empty):
    nones = 0
    for dec, k in restart_cases():
        ref = _reference_thick_restart(dec, k)
        assert_same_decomposition(thick_restart(dec, k), ref)
        nones += ref is None
    # the pair at the cut of k = 7 on the rotation blocks, the singular U
    # and the vanishing remainder of the flat basis
    assert nones == 3


class ReusesItsOutput:
    """``A`` as an operator that overwrites and returns one array it keeps
    on every call."""

    def __init__(self, A):
        self.A, self.shape, self.dtype = A, A.shape, A.dtype
        self.out = np.empty(A.shape[0], dtype=A.dtype)

    def norm_inf(self):
        return self.A.norm_inf()

    def __matmul__(self, x):
        self.out[:] = self.A @ x
        return self.out


def test_operator_reusing_one_output_buffer():
    # each product is copied once into its basis column before any work
    # in place, so the next product cannot overwrite a basis vector
    for runner, restart in RESTARTS:
        for A, _, dec in thick_cases(runner):
            reused = ReusesItsOutput(A)
            v = dec.last_vector
            assert_same_decomposition(runner(reused, v, 30), runner(A, v, 30))
            seed = restart(dec, 10)
            assert_same_decomposition(runner(reused, v, 30, start=seed),
                                      runner(A, v, 30, start=seed))


def test_thick_restart_leaves_its_input_unchanged():
    for dec, k in restart_cases():
        before = {name: getattr(dec, name).copy() for name in ("basis", "hbar", "perm", "g")}
        thick_restart(dec, k)
        for name, value in before.items():
            assert_array_equal(getattr(dec, name), value)
            assert getattr(dec, name).dtype == value.dtype
    # the late fallbacks come after the seed's buffer is written
    flat = flat_decomposition()
    assert thick_restart(flat, 1) is None and thick_restart(flat, 3) is None


def test_continued_runs_return_only_written_columns(poisoned_empty):
    # the runner's basis is not zeroed; every column it returns, the
    # seed's included, must be written
    for A, _, dec in thick_cases():
        seed = _reference_thick_restart(dec, 10)
        cont = run_hessenberg(A, dec.last_vector, 30, start=seed)
        assert np.all(np.isfinite(cont.basis))
        assert_array_equal(cont.basis[:, : seed.steps + 1], seed.basis)
        assert verify_decomposition(A, cont) <= 1e-12 * np.linalg.norm(A.values)
    rng = np.random.default_rng(12)
    A = random_sparse(rng, 120)
    v = rng.standard_normal(120)
    full = _reference_run_hessenberg(A, v, 25)
    cont = run_hessenberg(A, v, 25, start=run_hessenberg(A, v, 12))
    assert relative_gap(cont.basis, full[0]) <= 1e-12
    assert_array_equal(cont.perm, full[2])


def test_breakdown_runs_return_only_written_columns(poisoned_empty):
    n = 12
    for A, v, m in ((identity(n), np.linspace(1.0, 2.0, n), 5),
                    (csr_from_dense(np.diag([3.0, 1.0, 1.0])), np.array([1.0, 0.0, 0.0]), 3),
                    (csr_from_dense(np.array([[2.0, 1.0], [1.0, 2.0]])), np.array([1.0, 2.0]), 2)):
        dec = assert_matches_reference(A, v, m)
        assert dec.breakdown and np.all(np.isfinite(dec.basis))


def test_one_solve_holds_fewer_than_72_basis_vectors():
    # a continued cycle holds the seed and the new basis, not the
    # row-major copies the restart used to make on the way
    A = gen_convdiff3d(20, 1.0, (0.0, 111.8, 223.6), 400.0)
    b = np.random.default_rng(1).standard_normal(A.shape[0])
    shifts = gen_shifts("arith:1e-3:8")
    tracemalloc.start()
    try:
        _, report = solve_shifted_hessen(A, b, shifts, SolverConfig(m=30))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_converged and max(report.kept) > 0
    assert peak <= 72 * 8 * A.shape[0]


# -- properties over small operators ------------------------------------------


@st.composite
def small_cycles(draw):
    """A small operator, real or complex, random sparse or a nonnormal
    triangle with repeated eigenvalues, optionally with planted pivot ties
    (rows copied up to sign, the start vector alike), a start vector, a
    cycle length m and a kept count k < m."""
    n = draw(st.integers(2, 40))
    is_complex = draw(st.booleans())
    triangle = draw(st.booleans())
    ties = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = rng.standard_normal((n, n)) * (rng.random((n, n)) < draw(st.sampled_from([0.1, 0.3, 1.0])))
    if is_complex:
        M = M + 1j * rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
    if triangle:
        M = np.triu(M, 1) * draw(st.sampled_from([1.0, 10.0]))
        M = M + np.diag(rng.choice(rng.standard_normal(2), n))
    else:
        M = M + np.diag(rng.standard_normal(n) + draw(st.sampled_from([0.0, 4.0])))
    v = rng.standard_normal(n) + (1j * rng.standard_normal(n) if is_complex else 0.0)
    if ties:
        for src in rng.choice(n, min(n, 3), replace=False):
            for dst in rng.choice(n, 2):
                if dst != src:
                    sign = rng.choice([-1.0, 1.0])
                    M[dst] = sign * M[src]
                    v[dst] = sign * v[src]
    m = draw(st.integers(2, n))
    return csr_from_dense(M), v, m, draw(st.integers(1, m - 1))


def assert_pivoted_decomposition(A, dec, fro):
    """The decomposition identity to ``10 m u (||A|| ||V_k|| + ||V|| ||hbar||)``
    in the Frobenius norm, the rounding a step's product, triangular solve
    and elimination leave, and an exactly unit lower trapezoidal basis
    under a permutation ``perm``."""
    V, H = dec.basis, dec.hbar[: dec.basis.shape[1]]
    scale = fro * np.linalg.norm(V[:, : dec.steps]) + np.linalg.norm(V) * np.linalg.norm(H)
    assert verify_decomposition(A, dec) <= 10 * dec.steps * (_EPS / 2) * scale
    assert_array_equal(np.sort(dec.perm), np.arange(A.shape[0]))
    assert_exact_unit_lower(dec, V.shape[1])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(small_cycles())
def test_restart_cycles_keep_the_identity_and_the_unit_lower_basis(case):
    # a run, its thick restart and the run continued from it: each is a
    # decomposition of A with the pivoted basis structure, whether it ran
    # to m steps or broke down
    A, v, m, k = case
    fro = np.linalg.norm(A.values)
    dec = run_hessenberg(A, v, m)
    assert_pivoted_decomposition(A, dec, fro)
    if dec.breakdown:
        return
    seed = thick_restart(dec, k)
    if seed is None:
        return
    assert_pivoted_decomposition(A, seed, fro)
    cont = run_hessenberg(A, dec.last_vector, m, start=seed)
    assert_pivoted_decomposition(A, cont, fro)
    assert_array_equal(cont.g, seed.g)
