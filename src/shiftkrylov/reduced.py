"""Direct solution of small reduced systems.

The restarted solvers project each shifted system onto a Krylov subspace
and solve an m x m reduced system per shift and cycle: upper Hessenberg
after a plain restart, full in its leading block after a thick one.
These systems are solved here as one (p, m, m+1) stack of augmented rows
``[H - sigma I | g]``, with ``g = beta e1`` or a whole right-hand side
(an unshifted system is the stack with one row and sigma = 0): one
LAPACK Householder QR of the whole stack, whose last column is then
``Q^H g``, and one batched solve with the triangular factors.  That is
dense O(m^3) work per system done in two library calls, in place of
O(m^2) Givens rotations done in about 2m array operations.  It is the
faster of the two at the basis sizes used in the package (m = 30 by
default; no caller in the repository goes above 40); for 16 complex
shifts the two break even near m = 60.

The two entry points read ``H`` differently.  :func:`solve_hessenberg`
takes an upper Hessenberg ``H`` and never reads its entries strictly
below the first subdiagonal, so a caller may pass storage whose lower
triangle holds garbage.  :func:`solve_shifted_hessenberg`, the solvers'
stacked solve, reads all of ``H``, as a thick restart needs.
"""

import numpy as np

from .errors import DimensionMismatch, SingularReducedSystem

__all__ = [
    "solve_hessenberg",
    "solve_shifted_hessenberg",
    "collinearity_scalar",
]

# Unit roundoff of IEEE double precision; diagonal entries of R at or
# below u * ||H||_F are treated as zero.
_UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2.0


def _check_square(H):
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {H.shape}")


def _qr_solve(W):
    """Solve the (p, m, m+1) stack of augmented Hessenberg rows ``[H | g]``.

    Returns the (p, m) solutions; when some systems are numerically
    singular, raises :class:`SingularReducedSystem` with their (p,) mask
    and the solutions, NaN in the masked rows.
    """
    p, m = W.shape[:2]
    # Orthogonal factors preserve the Frobenius norm, so the singularity
    # threshold can be fixed from the matrices as given.  Each system is
    # scaled by its largest real or imaginary part, so the squares cannot
    # overflow.
    parts = W[:, :, :m].view(W.real.dtype)
    big = np.abs(parts).max(axis=(1, 2), initial=np.finfo(np.float64).tiny)
    parts = parts / big[:, None, None]
    fro = big * np.sqrt(np.einsum("pij,pij->p", parts, parts))
    # the last column of each factor [R | Q^H g] carries the right-hand side
    R = np.linalg.qr(W, mode="r")
    diag = np.diagonal(R[:, :, :m], axis1=1, axis2=2)
    singular = np.any(np.abs(diag) <= _UNIT_ROUNDOFF * fro[:, None], axis=1)
    # singular systems are solved with an identity factor, and their rows discarded
    R[singular, :, :m] = np.eye(m)
    y = np.linalg.solve(R[:, :, :m], R[:, :, m:])[:, :, 0]
    if np.any(singular):
        y[singular] = np.nan
        raise SingularReducedSystem(
            f"{int(singular.sum())} of {p} reduced systems are numerically singular", singular, y
        )
    return y


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
        If a diagonal entry of the triangular factor is at or below
        unit roundoff times the Frobenius norm of ``H``.
    DimensionMismatch
        If ``H`` is not square or ``rhs`` is not a vector of length m.
    """
    H, rhs = np.asarray(H), np.asarray(rhs)
    if rhs.ndim != 1:
        raise DimensionMismatch(f"right-hand side must be 1-d, got shape {rhs.shape}")
    _check_square(H)
    # the entries below the first subdiagonal are masked outside any arithmetic
    return solve_shifted_hessenberg(np.triu(H, k=-1), 0.0, rhs)


def solve_shifted_hessenberg(H, sigma, beta):
    """Solve ``(H - sigma I) y = beta e1``, or ``= g``, without modifying ``H``.

    The shift is applied to copies of the diagonal, so one stored ``H``
    serves every shift of a family.  Arrays of shifts and right-hand
    sides are solved as one stack.

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

    Returns
    -------
    (m,) ndarray, or (p, m) with a row per shift for array input.

    Raises
    ------
    SingularReducedSystem
        If ``H - sigma I`` is numerically singular for some shift; its
        ``singular`` is the mask of those shifts and its ``solution``
        holds the other rows' solutions.
    DimensionMismatch
        If ``H`` is not square, ``sigma`` is not a scalar or 1-d, or
        ``beta`` has none of the shapes above.
    """
    H, sigma, beta = np.asarray(H), np.asarray(sigma), np.asarray(beta)
    if sigma.ndim > 1 or beta.shape not in ((), sigma.shape, sigma.shape + H.shape[-1:]):
        raise DimensionMismatch(f"shifts of shape {sigma.shape}, right sides {beta.shape}")
    _check_square(H)
    dtype = np.result_type(H.dtype, sigma.dtype, beta.dtype, np.float64)
    m = H.shape[0]
    W = np.zeros((sigma.size, m, m + 1), dtype=dtype)
    W[:, :, :m] = H
    idx = np.arange(m)
    W[:, idx, idx] -= sigma.reshape(-1, 1)
    if beta.ndim > sigma.ndim:
        W[:, :, -1] = beta
    else:
        W[:, 0, -1] = beta
    return _qr_solve(W).reshape(sigma.shape + (-1,))


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
