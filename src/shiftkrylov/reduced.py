"""Direct solution of small reduced systems.

The restarted solvers project each shifted system onto a Krylov subspace
and solve an m x m reduced system per shift and cycle: upper Hessenberg
after a plain restart, full in its leading block after a thick one.
Every shift shares ``H``, and with it one Schur form ``H = Q T Q^H``
(:func:`_schur`, LAPACK ``gees``).  With the right-hand sides ``g``
(``beta e1`` or whole ones) as the columns of ``G^T``, the solutions
are the columns of ``Q Z``, where

    T Z - Z S = Q^H G^T,    S = diag(sigma),

one Sylvester equation for the whole stack, which one LAPACK ``trsyl``
call solves by back substitution (Bartels and Stewart, Comm. ACM 15,
1972).  A complex ``T`` takes the diagonal ``S``.  A real ``T`` keeps
the arithmetic real: a real shift on a real right-hand side is a 1 x 1
block of ``S``, and every other system takes two columns, the real and
imaginary parts of its right-hand side, and the 2 x 2 block
``[[a, b], [-b, a]]`` of its shift ``a + ib``.  The Schur form costs
O(m^3) once; each shift adds O(m^2).  The solvers pass the form that
the cycle's decomposition caches
(:attr:`~shiftkrylov.processes.HessenbergDecomposition.schur`) and that
the thick restart reorders, so a cycle makes one ``gees`` call.

A system is numerically singular when an eigenvalue ``lambda`` of ``H``
has ``|lambda - sigma| <= u ||H - sigma I||_F``: the diagonal of the
complex triangular Schur factor of ``H - sigma I``, a matrix unitarily
equivalent to it, read against its norm.  It is left out of ``trsyl``.
When ``gees`` fails, every system of the stack reads as singular.
The Schur form is backward stable relative to ``||H||``, not to
``||H - sigma I||``: a shift in a tight cluster of eigenvalues of a
nearly scalar ``H`` (``||H - sigma I|| << ||H||``) loses about
``log10(||H|| / ||H - sigma I||)`` digits that a factorization of
``H - sigma I`` itself would keep.  The solvers confirm every
convergence with a true residual, so such a loss can slow a shift but
not mark it converged.

The two entry points read ``H`` differently.  :func:`solve_hessenberg`
takes an upper Hessenberg ``H`` and never reads its entries strictly
below the first subdiagonal, so a caller may pass storage whose lower
triangle holds garbage.  :func:`solve_shifted_hessenberg`, the solvers'
stacked solve, reads all of ``H``, as a thick restart needs.
"""

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from .errors import DimensionMismatch, SingularReducedSystem

__all__ = [
    "solve_hessenberg",
    "solve_shifted_hessenberg",
    "collinearity_scalar",
]

# Unit roundoff of IEEE double precision; an eigenvalue within
# u * ||H - sigma I||_F of sigma makes the shifted system singular.
_UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2.0


def _check_square(H):
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {H.shape}")


def _schur(H):
    """``(T, Q, ritz, info)`` of ``gees`` on ``H``: ``H Q = Q T``, real for
    real ``H``, with the eigenvalues as ``ritz``, ``(wr, wi)`` for real
    ``H`` and ``(w,)`` for complex; ``info > 0`` when it failed."""
    gees = get_lapack_funcs("gees", (H,))
    T, _, *ritz, Q, _, info = gees(lambda *ritz: None, H)
    return T, Q, ritz, info


def _shifted_norms(T, sigma):
    """``||T - sigma_j I||_F`` per shift: the off-diagonal part once, by
    BLAS ``nrm2``, and the diagonal per shift, by ``hypot``; both scale
    their sums, so that no square overflows."""
    rest = T.copy()
    np.fill_diagonal(rest, 0.0)
    off = get_blas_funcs("nrm2", (rest,))(rest.ravel())
    return np.hypot(off, np.hypot.reduce(np.abs(np.diagonal(T) - sigma[:, None]), axis=1))


def _sylvester(T, Q, sigma, G):
    """The (p, m) solutions ``Q (T - sigma_j I)^{-1} Q^H g_j`` of the rows
    ``g_j`` of ``G``, by one ``trsyl`` call."""
    p = sigma.size
    trsyl = get_lapack_funcs("trsyl", (T,))
    # real T, complex systems: columns 2j and 2j + 1 are the real and
    # imaginary parts of system j, its shift a 2 x 2 block of S
    split = np.isrealobj(T) and np.iscomplexobj(G)
    if not split:
        C = Q.conj().T @ G.T
        S = np.diag(sigma).astype(C.dtype)
    else:
        C = np.empty((T.shape[0], 2 * p))
        C[:, 0::2], C[:, 1::2] = G.real.T, G.imag.T
        C = Q.T @ C
        S = np.zeros((2 * p, 2 * p))
        # the diagonal, and the entries (2j, 2j + 1) and (2j + 1, 2j), of
        # the flat S: diagonal entries lie 2p + 1 apart
        flat, step = S.reshape(-1), 2 * p + 1
        flat[::step] = np.repeat(sigma.real, 2)
        flat[1::2 * step], flat[2 * p::2 * step] = sigma.imag, -sigma.imag
    # trsyl may scale the solution down to avoid overflow; info 1 only
    # says that it perturbed close eigenvalues, which the caller's
    # singularity rule has already judged
    Z, scale, _ = trsyl(T, S, C, isgn=-1)
    Y = (Q @ Z).T
    if split:
        Y = Y[0::2] + 1j * Y[1::2]
    return Y / scale


def solve_hessenberg(H, rhs):
    """Solve ``H y = rhs`` for an m x m upper Hessenberg ``H``.

    Parameters
    ----------
    H : (m, m) array_like
        Upper Hessenberg matrix; entries below the first subdiagonal are
        ignored.  Real or complex.
    rhs : (m,) array_like
        Right-hand side.

    Returns
    -------
    (m,) ndarray
        The solution.  Real inputs give a real result.

    Raises
    ------
    SingularReducedSystem
        If an eigenvalue of ``H`` is at or below unit roundoff times the
        Frobenius norm of ``H`` in modulus, or its Schur form failed.
    DimensionMismatch
        If ``H`` is not square or ``rhs`` is not a vector of length m.
    """
    H, rhs = np.asarray(H), np.asarray(rhs)
    if rhs.ndim != 1:
        raise DimensionMismatch(f"right-hand side must be 1-d, got shape {rhs.shape}")
    _check_square(H)
    # the entries below the first subdiagonal are masked outside any arithmetic
    return solve_shifted_hessenberg(np.triu(H, k=-1), 0.0, rhs)


def solve_shifted_hessenberg(H, sigma, beta, *, schur=None):
    """Solve ``(H - sigma I) y = beta e1``, or ``= g``, without modifying ``H``.

    One Schur form of ``H`` serves every shift of a family, and arrays of
    shifts and right-hand sides are solved as one stack (see the module
    docstring).

    Parameters
    ----------
    H : (m, m) array_like
        The reduced matrix, read in full: upper Hessenberg after a plain
        restart, with a full leading block after a thick one.
    sigma : scalar or (p,) array_like
        Shifts, real or complex.
    beta : scalar, array_like shaped like ``sigma``, or ``sigma.shape + (m,)``
        Scales of the right-hand sides ``beta * e1``, or whole right-hand
        sides ``g`` with a row per shift for array input.
    schur : tuple, optional
        The Schur form of ``H`` as ``HessenbergDecomposition.schur``
        holds it; computed here when not given.

    Returns
    -------
    (m,) ndarray, or (p, m) with a row per shift for array input.

    Raises
    ------
    SingularReducedSystem
        If ``H - sigma I`` is numerically singular for some shift, or the
        Schur form failed; its ``singular`` is the mask of those shifts
        and its ``solution`` holds the other rows' solutions, NaN in the
        masked rows.
    DimensionMismatch
        If ``H`` is not square, ``sigma`` is not a scalar or 1-d, or
        ``beta`` has none of the shapes above.
    """
    H, sigma, beta = np.asarray(H), np.asarray(sigma), np.asarray(beta)
    if sigma.ndim > 1 or beta.shape not in ((), sigma.shape, sigma.shape + H.shape[-1:]):
        raise DimensionMismatch(f"shifts of shape {sigma.shape}, right sides {beta.shape}")
    _check_square(H)
    dtype = np.result_type(H.dtype, sigma.dtype, beta.dtype, np.float64)
    if schur is None:
        schur = _schur(H.astype(np.result_type(H.dtype, np.float64), copy=False))
    T, Q, ritz, info = schur
    m = H.shape[0]
    sigmas = sigma.reshape(-1)
    if beta.ndim > sigma.ndim:
        G = beta.reshape(sigmas.size, m).astype(dtype, copy=False)
    else:
        G = np.zeros((sigmas.size, m), dtype=dtype)
        G[:, 0] = beta
    if info:
        singular = np.ones(sigmas.size, dtype=bool)
    else:
        lam = ritz[0] + 1j * ritz[1] if len(ritz) == 2 else ritz[0]
        gap = np.abs(lam - sigmas[:, None]).min(axis=1)
        singular = gap <= _UNIT_ROUNDOFF * _shifted_norms(T, sigmas)
    if not singular.any():
        Y = np.ascontiguousarray(_sylvester(T, Q, sigmas, G))
        return Y.reshape(sigma.shape + (-1,))
    Y = np.full(G.shape, np.nan, dtype=dtype)
    solved = ~singular
    if solved.any():
        Y[solved] = _sylvester(T, Q, sigmas[solved], G[solved])
    raise SingularReducedSystem(
        f"{int(singular.sum())} of {sigmas.size} reduced systems are numerically "
        f"singular", singular, Y
    )


def collinearity_scalar(h_next, y):
    """Coefficient of the next basis vector in the Galerkin residual.

    After a reduced solve ``(H_m - sigma I) y = g``, with ``g`` the start
    vector's coordinates in the basis, the full-space residual is
    ``-h_next * y[-1]`` times the (m+1)-th basis vector, where ``h_next``
    is the entry ``H[m, m-1]`` of the extended matrix, the only nonzero
    of its last row also after a thick restart.  Returns that scalar, or
    one per row for a (p, m) stack of solutions.
    """
    y = np.asarray(y)
    if y.ndim not in (1, 2) or y.shape[-1] == 0:
        raise DimensionMismatch("y must be a nonempty vector or a stack of them")
    return -h_next * y[..., -1]
