import numpy as np
import pytest
from numpy.testing import assert_allclose

from shiftkrylov import DimensionMismatch, SingularReducedSystem
from shiftkrylov.reduced import (
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


def test_shifted_solve_2x2():
    H = np.array([[2.0, 0.0], [1.0, 2.0]])
    y = solve_shifted_hessenberg(H, 0.0, 2.0)
    assert_allclose(y, [1.0, -0.5], atol=1e-15)
    # sigma shifts only the diagonal of the reduced matrix
    y2 = solve_shifted_hessenberg(H, 1.0, 2.0)
    assert_allclose(y2, np.linalg.solve(H - np.eye(2), [2.0, 0.0]), atol=1e-12)
    # the input is not modified in place
    assert_allclose(H, [[2.0, 0.0], [1.0, 2.0]])


def test_shifted_solve_complex_shift_promotes():
    H = np.array([[3.0, 1.0], [1.0, 3.0]])
    y = solve_shifted_hessenberg(H, 1.0j, 1.0)
    assert np.iscomplexobj(y)
    assert_allclose((H - 1.0j * np.eye(2)) @ y, [1.0, 0.0], atol=1e-12)


def test_singular_system_raises():
    H = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(SingularReducedSystem):
        solve_hessenberg(H, np.ones(2))
    # a shift landing exactly on an eigenvalue of a diagonal reduced matrix
    D = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(SingularReducedSystem):
        solve_shifted_hessenberg(D, 2.0, 1.0)
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
    for beta in (np.ones(3), np.ones((2, 4)), np.ones((3, 3)), np.ones((2, 3, 1))):
        with pytest.raises(DimensionMismatch):
            solve_shifted_hessenberg(H, np.zeros(2), beta)
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
    beta = rng.standard_normal((sigma.size, m) if whole else sigma.size)
    singular = sigma == 3.0
    if singular.any():
        with pytest.raises(SingularReducedSystem) as exc:
            solve_shifted_hessenberg(H, sigma, beta)
        assert np.array_equal(exc.value.singular, singular)
        Y = exc.value.solution
        assert np.all(np.isnan(Y[singular]))
    else:
        Y = solve_shifted_hessenberg(H, sigma, beta)
    assert Y.shape == (sigma.size, m)
    for i in np.flatnonzero(~singular):
        # real shifts are compared with a real scalar solve
        s = sigma[i].real if sigma[i].imag == 0 else sigma[i]
        y = solve_shifted_hessenberg(H, s, beta[i])
        assert_allclose(Y[i], y, rtol=1e-13, atol=1e-13 * np.linalg.norm(y))
    for i in np.flatnonzero(singular):
        with pytest.raises(SingularReducedSystem):
            solve_shifted_hessenberg(H, sigma[i], beta[i])
