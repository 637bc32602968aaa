import numpy as np
import pytest
from numpy.testing import assert_allclose

from shiftkrylov import (
    InvalidGrid,
    ParseError,
    gen_convdiff3d,
    gen_laplace2d,
    gen_shifts,
)


def test_convdiff3d_frozen_stencil():
    # n=2: h=1/3, eps/h^2 = 9, no convection, r=0
    # diagonal 6*9 = 54, every neighbour coupling -9
    A = gen_convdiff3d(2, 1.0, (0.0, 0.0, 0.0), 0.0)
    assert A.shape == (8, 8)
    D = A.toarray()
    assert_allclose(np.diag(D), 54.0)
    off = D[~np.eye(8, dtype=bool)]
    assert set(np.unique(off)) == {-9.0, 0.0}
    # symmetric without convection
    assert_allclose(D, D.T)
    # interior vertex (n=2: every vertex has 3 neighbours)
    assert np.count_nonzero(D[0]) == 4


def test_convdiff3d_convection_and_reaction():
    # n=2, eps=1, beta=(6,0,0), r=5: h=1/3, so the upwind convection adds
    # |beta|/h = 18 to the diagonal and -18 to the inflow (backward-x)
    # neighbour: diagonal 54 + 18 - 5 = 67, backward x coupling -27
    A = gen_convdiff3d(2, 1.0, (6.0, 0.0, 0.0), 5.0)
    D = A.toarray()
    assert_allclose(np.diag(D), 67.0)
    # x-fastest ordering: vertices 0 and 1 differ in x only
    assert D[0, 1] == -9.0  # forward x neighbour, downwind: diffusion only
    assert D[1, 0] == -27.0  # backward x neighbour, upwind side
    # y and z couplings are untouched by x-convection
    assert D[0, 2] == -9.0 and D[0, 4] == -9.0
    # convection breaks symmetry
    assert not np.allclose(D, D.T)
    # every convection row sum vanishes away from the boundary, so row
    # sums match the pure diffusion-reaction operator on such rows
    B = gen_convdiff3d(4, 1.0, (0.0, 0.0, 0.0), 5.0)
    F = gen_convdiff3d(4, 1.0, (7.0, -3.0, 2.0), 5.0)
    interior = []
    for p in range(64):
        i, j, k = p % 4, (p // 4) % 4, p // 16
        if all(0 < t < 3 for t in (i, j, k)):
            interior.append(p)
    assert_allclose(
        F.toarray()[interior].sum(axis=1), B.toarray()[interior].sum(axis=1)
    )


def test_convdiff3d_negative_convection_upwinds_forward():
    A = gen_convdiff3d(2, 1.0, (-6.0, 0.0, 0.0), 0.0)
    D = A.toarray()
    assert_allclose(np.diag(D), 72.0)
    assert D[0, 1] == -27.0  # forward neighbour is now the inflow side
    assert D[1, 0] == -9.0


def test_convdiff3d_eigenvalue_oracle():
    # without convection the operator is the scaled 3-D Laplacian plus a
    # diagonal; its smallest eigenvalue is known in closed form
    n, eps, r = 4, 2.0, 3.0
    A = gen_convdiff3d(n, eps, (0.0, 0.0, 0.0), r)
    h = 1.0 / (n + 1)
    lam1 = 3 * (eps / h**2) * (2 - 2 * np.cos(np.pi * h)) - r
    w = np.linalg.eigvalsh(A.toarray())
    assert_allclose(w[0], lam1, rtol=1e-12)


def test_laplace2d_frozen_and_spectrum():
    A = gen_laplace2d(3, scale=1.0)
    assert A.shape == (9, 9)
    D = A.toarray()
    h = 0.25
    assert_allclose(np.diag(D), 4.0 / h**2)
    assert_allclose(D, D.T)
    lam1 = 2.0 / h**2 * (2 - 2 * np.cos(np.pi * h))
    w = np.linalg.eigvalsh(D)
    assert_allclose(w[0], lam1, rtol=1e-12)
    # the scale passes straight through
    B = gen_laplace2d(3, scale=0.5)
    assert_allclose(B.toarray(), 0.5 * D)


def test_grid_validation():
    with pytest.raises(InvalidGrid):
        gen_convdiff3d(0, 1.0, (0, 0, 0), 0.0)
    with pytest.raises(InvalidGrid):
        gen_convdiff3d(2, -1.0, (0, 0, 0), 0.0)
    with pytest.raises(InvalidGrid):
        gen_convdiff3d(2, 1.0, (0, 0), 0.0)
    with pytest.raises(InvalidGrid):
        gen_laplace2d(-3)
    # non-finite coefficients, given or from an overflow, used to give
    # matrices with NaN or inf entries
    for args in ((1.0, (np.nan, 0, 0), 0.0), (1.0, (0, 0, 0), np.inf),
                 (np.inf, (0, 0, 0), 0.0), (1e308, (0, 0, 0), 0.0)):
        with pytest.raises(InvalidGrid):
            gen_convdiff3d(4, *args)
    for scale in (np.inf, 1e308):
        with pytest.raises(InvalidGrid):
            gen_laplace2d(4, scale)


def test_gen_shifts():
    assert gen_shifts("arith:0.001:3") == [-0.001, -0.002, -0.003]
    assert gen_shifts("list:1,2.5") == [1.0, 2.5]
    got = gen_shifts("list:-0.5,1+2j")
    assert got[0] == -0.5 and isinstance(got[0], float)
    assert got[1] == 1 + 2j
    for bad in ("arith:0.001", "arith:a:3", "arith:0.1:0", "list:", "list:x", "geom:1:2", ""):
        with pytest.raises(ParseError):
            gen_shifts(bad)


@pytest.mark.parametrize("spec", ["list:", "list:,", "list: "])
def test_gen_shifts_rejects_an_empty_list(spec):
    with pytest.raises(ParseError, match="empty value"):
        gen_shifts(spec)
