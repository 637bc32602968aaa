import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from shiftkrylov import DimensionMismatch, SingularReducedSystem
from shiftkrylov.reduced import (
    _schur,
    collinearity_scalar,
    solve_hessenberg,
    solve_shifted_hessenberg,
)


def test_solve_2x2_known_values():
    H = np.array([[1.0, 2.0], [3.0, 4.0]])
    y = solve_hessenberg(H, np.array([1.0, 1.0]))
    assert_allclose(y, [-1.0, 1.0], atol=1e-14)


def test_solve_matches_dense_solver():
    rng = np.random.default_rng(42)
    for m in (1, 2, 5, 13, 30):
        H = np.triu(rng.standard_normal((m, m)), k=-1) + m * np.eye(m)
        rhs = rng.standard_normal(m)
        assert_allclose(solve_hessenberg(H, rhs), np.linalg.solve(H, rhs), rtol=1e-10)


def test_solve_complex():
    rng = np.random.default_rng(3)
    m = 8
    H = np.triu(
        rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)), k=-1
    ) + 2 * m * np.eye(m)
    rhs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    assert_allclose(solve_hessenberg(H, rhs), np.linalg.solve(H, rhs), rtol=1e-10)


def test_entries_below_subdiagonal_are_ignored():
    # rows below the first subdiagonal must never enter the arithmetic,
    # even if they hold NaN
    H = np.array([[2.0, 1.0, 0.5], [1.0, 3.0, 1.0], [np.nan, 1.0, 4.0]])
    rhs = np.ones(3)
    y = solve_hessenberg(H, rhs)
    Hclean = np.triu(H, k=-1)
    assert np.all(np.isfinite(y))
    assert_allclose(Hclean @ y, rhs, atol=1e-12)


def e1_rows(beta, m):
    """The (p, m) right-hand sides ``beta_j e1`` of a plain restart."""
    beta = np.asarray(beta)
    G = np.zeros((beta.size, m), dtype=beta.dtype)
    G[:, 0] = beta
    return G


def test_shifted_solve_2x2():
    H = np.array([[2.0, 0.0], [1.0, 2.0]])
    y = solve_shifted_hessenberg(H, np.zeros(1), e1_rows([2.0], 2))[0]
    assert_allclose(y, [1.0, -0.5], atol=1e-15)
    # sigma shifts only the diagonal of the reduced matrix
    y2 = solve_shifted_hessenberg(H, np.ones(1), e1_rows([2.0], 2))[0]
    assert_allclose(y2, np.linalg.solve(H - np.eye(2), [2.0, 0.0]), atol=1e-12)
    # the input is not modified in place
    assert_allclose(H, [[2.0, 0.0], [1.0, 2.0]])


def test_shifted_solve_complex_shift_promotes():
    H = np.array([[3.0, 1.0], [1.0, 3.0]])
    y = solve_shifted_hessenberg(H, np.array([1.0j]), e1_rows([1.0], 2))[0]
    assert np.iscomplexobj(y)
    assert_allclose((H - 1.0j * np.eye(2)) @ y, [1.0, 0.0], atol=1e-12)


def test_singular_system_raises():
    H = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(SingularReducedSystem):
        solve_hessenberg(H, np.ones(2))
    # a shift landing exactly on an eigenvalue of a diagonal reduced matrix
    D = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(SingularReducedSystem):
        solve_shifted_hessenberg(D, np.array([2.0]), e1_rows([1.0], 3))
    # exactly singular with a unit diagonal: the test must read the
    # triangular factor, not the diagonal of H
    H = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    with pytest.raises(SingularReducedSystem):
        solve_hessenberg(H, np.ones(3))


def test_near_singular_threshold_scales_with_matrix():
    # diag(1, eps) is numerically singular at unit-roundoff scale ...
    H = np.diag([1.0, np.finfo(float).eps / 8])
    with pytest.raises(SingularReducedSystem):
        solve_hessenberg(H, np.ones(2))
    # ... but a well conditioned tiny matrix is fine: the test is relative
    Hs = np.diag([1e-280, 1e-280])
    y = solve_hessenberg(Hs, np.array([1e-280, 1e-280]))
    assert_allclose(y, [1.0, 1.0])


def test_right_hand_side_shape_is_checked():
    H = np.triu(np.ones((3, 3)), k=-1) + 3.0 * np.eye(3)
    # a scalar is a scale of e1 only for the shifted solve
    for rhs in (1.0, np.ones(4), np.ones((1, 3)), np.ones((3, 3))):
        with pytest.raises(DimensionMismatch):
            solve_hessenberg(H, rhs)
    # the stacked solve takes (p,) shifts and (p, m) right-hand sides only:
    # no scale of e1, per shift or shared, and no 1-d right-hand side
    for G in (1.0, np.ones(2), np.ones(3), np.ones((2, 4)), np.ones((3, 3)),
              np.ones((2, 3, 1))):
        with pytest.raises(DimensionMismatch):
            solve_shifted_hessenberg(H, np.zeros(2), G)
    # nor a scalar shift, with a one-row or a 1-d right-hand side
    for G in (np.ones((1, 3)), np.ones(3)):
        with pytest.raises(DimensionMismatch):
            solve_shifted_hessenberg(H, 0.0, G)
    with pytest.raises(DimensionMismatch):
        solve_shifted_hessenberg(H, np.zeros(1), np.ones(3))
    with pytest.raises(DimensionMismatch):
        solve_hessenberg(np.ones((3, 4)), np.ones(3))


def test_collinearity_scalar():
    assert collinearity_scalar(2.0, np.array([3.0, -4.0])) == 8.0
    assert collinearity_scalar(1.0 + 1.0j, np.array([1.0j])) == (1.0 - 1.0j)


@pytest.mark.parametrize(
    "sigma, whole",
    [
        (np.array([0.0, 0.5, -1.0 + 0.25j, 2.0, 0.3 - 1.5j]), False),
        # an exact eigenvalue of H: only its row is singular
        (np.array([0.5, 3.0, -1.0 + 0.25j]), False),
        # whole right-hand sides, a row per shift, in place of beta e1
        (np.array([0.5, 3.0, -1.0 + 0.25j, 0.0]), True),
    ],
    ids=["sigma0", "sigma1", "whole_rhs"],
)
def test_stacked_solve_matches_row_by_row(sigma, whole):
    rng = np.random.default_rng(7)
    m = 12
    H = np.triu(rng.standard_normal((m, m)), k=-1)
    H[:, 0] = 0.0
    H[0, 0] = 3.0  # e1 is an eigenvector for the eigenvalue 3
    G = rng.standard_normal((sigma.size, m)) if whole else e1_rows(
        rng.standard_normal(sigma.size), m)
    singular = sigma == 3.0
    if singular.any():
        with pytest.raises(SingularReducedSystem) as exc:
            solve_shifted_hessenberg(H, sigma, G)
        assert np.array_equal(exc.value.singular, singular)
        Y = exc.value.solution
        assert np.all(np.isnan(Y[singular]))
    else:
        Y = solve_shifted_hessenberg(H, sigma, G)
    assert Y.shape == (sigma.size, m)
    for i in np.flatnonzero(~singular):
        # real shifts are compared with a real one-row solve
        s = sigma[i].real if sigma[i].imag == 0 else sigma[i]
        y = solve_shifted_hessenberg(H, np.array([s]), G[i:i + 1])[0]
        assert_allclose(Y[i], y, rtol=1e-13, atol=1e-13 * np.linalg.norm(y))
    for i in np.flatnonzero(singular):
        with pytest.raises(SingularReducedSystem):
            solve_shifted_hessenberg(H, sigma[i:i + 1], G[i:i + 1])


# -- the shared Schur form --------------------------------------------------

U = np.finfo(float).eps / 2


def thick_shape(rng, m, k, complex_h=False):
    """An m x m reduced matrix as a thick restart of k columns leaves it:
    full in its leading (k+1) x k block, Hessenberg from column k + 1."""
    H = rng.standard_normal((m, m))
    if complex_h:
        H = H + 1j * rng.standard_normal((m, m))
    i, j = np.indices((m, m))
    H[i > np.maximum(k, j + 1)] = 0.0
    return H


FAMILIES = {
    "real_h_real_shifts": (False, [0.0, -0.5, 2.0, 1.25]),
    # -0.3 + 0.8j has no conjugate partner in the family
    "real_h_complex_shifts": (False, [-1.0 + 0.5j, -1.0 - 0.5j, -0.3 + 0.8j, 2.0 - 1.0j]),
    "complex_h": (True, [0.0, -1.0 + 0.5j, -1.0 - 0.5j, 0.7]),
    "real_h_mixed": (False, [0.5, -1.0 + 0.5j, -2.0, -1.0 - 0.5j, 0.25j]),
}


@pytest.mark.parametrize("whole", [False, True], ids=["beta_e1", "whole_rhs"])
@pytest.mark.parametrize("family", FAMILIES)
def test_shared_schur_solve_matches_dense_solves(family, whole):
    complex_h, shifts = FAMILIES[family]
    rng = np.random.default_rng(11)
    m, k = 14, 5
    H = thick_shape(rng, m, k, complex_h)
    assert np.any(H[k, : k - 1]) and not np.any(np.tril(H, -2)[:, k:])
    sigma = np.array(shifts)
    G = rng.standard_normal((sigma.size, m)) if whole else e1_rows(
        rng.standard_normal(sigma.size), m)
    Y = solve_shifted_hessenberg(H, sigma, G)
    assert Y.shape == (sigma.size, m)
    for s, g, y in zip(sigma, G, Y):
        ref = np.linalg.solve(H - s * np.eye(m), g)
        assert_allclose(y, ref, rtol=1e-12, atol=1e-12 * np.linalg.norm(ref))
    # the stack agrees with each shift solved alone, and with the Schur
    # form passed in as the solvers pass it
    schur = _schur(H)
    assert np.array_equal(solve_shifted_hessenberg(H, sigma, G, schur=schur), Y)
    for i, y in enumerate(Y):
        assert_allclose(solve_shifted_hessenberg(H, sigma[i:i + 1], G[i:i + 1])[0], y,
                        rtol=1e-13, atol=1e-13 * np.linalg.norm(y))
    # real data and real shifts keep real solutions
    assert np.isrealobj(Y) == (not complex_h and np.isrealobj(sigma))


def test_failed_schur_form_reads_every_system_as_singular():
    rng = np.random.default_rng(12)
    H = thick_shape(rng, 8, 3)
    T, Q, lam, _ = _schur(H)
    with pytest.raises(SingularReducedSystem) as exc:
        solve_shifted_hessenberg(H, np.array([0.5, -1.0 + 1.0j]), e1_rows([1.0, 1.0], 8),
                                 schur=(T, Q, lam, 3))
    assert exc.value.singular.tolist() == [True, True]
    assert np.all(np.isnan(exc.value.solution))


@st.composite
def shifted_systems(draw):
    """A reduced matrix of thick-restart shape, real or complex, with a
    family of real and complex shifts and whole right-hand sides."""
    m = draw(st.integers(1, 12))
    k = draw(st.integers(0, m - 1))
    complex_h = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = thick_shape(rng, m, k, complex_h) * 10.0 ** draw(st.integers(-6, 6))
    scale = np.abs(H).max()
    p = draw(st.integers(1, 5))
    sigma = scale * rng.standard_normal(p)
    if draw(st.booleans()):
        # a complex family, with some real shifts in it
        sigma = sigma + 1j * scale * rng.standard_normal(p) * (rng.random(p) < 0.6)
    return H, sigma, rng.standard_normal((p, m))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(shifted_systems())
def test_shared_schur_solve_is_backward_stable(system):
    # ||(H - sigma I) y - g|| <= c u ||H - sigma I||_F ||y|| for every
    # shift the solve does not flag as singular
    H, sigma, G = system
    m = H.shape[0]
    try:
        Y = solve_shifted_hessenberg(H, sigma, G)
        singular = np.zeros(sigma.size, dtype=bool)
    except SingularReducedSystem as exc:
        Y, singular = exc.solution, exc.singular
    for s, g, y, flagged in zip(sigma, G, Y, singular):
        if flagged:
            assert np.all(np.isnan(y))
            continue
        M = H - s * np.eye(m)
        assert np.linalg.norm(M @ y - g) <= 10 * m * U * np.linalg.norm(M) * np.linalg.norm(y)
