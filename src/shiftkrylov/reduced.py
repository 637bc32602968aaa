"""Direct solution of small upper Hessenberg systems.

The restarted solvers project each shifted system onto a Krylov subspace
and solve an m x m upper Hessenberg system per shift and cycle.  These
systems are solved here as one (p, m, m+1) stack of augmented rows
``[H - sigma I | g]``: one LAPACK Householder QR of the whole stack, whose
last column is then ``Q^H g``, and one batched solve with the triangular
factors.  That is dense O(m^3) work per system done in two library calls,
in place of O(m^2) Givens rotations done in about 2m array operations.
It is the faster of the two at the basis sizes used in the package
(m = 30 by default; no caller in the repository goes above 40); for 16
complex shifts the two break even near m = 60.

Entries of ``H`` strictly below the first subdiagonal are never read, so
callers may pass storage whose lower triangle holds garbage.
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


def _augmented_stack(H, p, dtype):
    """(p, m, m+1) stack of augmented rows ``[H | 0]``, with values below
    the first subdiagonal of ``H`` masked to zero outside any arithmetic."""
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {H.shape}")
    m = H.shape[0]
    W = np.zeros((p, m, m + 1), dtype=dtype)
    W[:, :, :m] = np.triu(H, k=-1)
    return W


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
        If ``H`` is not square or ``rhs`` has the wrong length.
    """
    H, rhs = np.asarray(H), np.asarray(rhs)
    W = _augmented_stack(H, 1, np.result_type(H.dtype, rhs.dtype, np.float64))
    if rhs.ndim != 1 or rhs.shape[0] != W.shape[1]:
        raise DimensionMismatch(
            f"right-hand side of shape {rhs.shape} does not match order {W.shape[1]}"
        )
    W[0, :, -1] = rhs
    return _qr_solve(W)[0]


def solve_shifted_hessenberg(H, sigma, beta):
    """Solve ``(H - sigma I) y = beta e1`` without modifying ``H``.

    The shift is applied to copies of the diagonal, so one stored ``H``
    serves every shift of a family.  Arrays of shifts and scales are
    solved as one stack.

    Parameters
    ----------
    H : (m, m) array_like
        Upper Hessenberg matrix; entries below the first subdiagonal are
        ignored.
    sigma : scalar or (p,) array_like
        Shifts, real or complex.
    beta : scalar or (p,) array_like
        Scales of the right-hand sides ``beta * e1``.

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
        ``beta`` is neither a scalar nor shaped like ``sigma``.
    """
    H, sigma, beta = np.asarray(H), np.asarray(sigma), np.asarray(beta)
    if sigma.ndim > 1 or beta.shape not in ((), sigma.shape):
        raise DimensionMismatch(f"shifts of shape {sigma.shape}, scales of shape {beta.shape}")
    dtype = np.result_type(H.dtype, sigma.dtype, beta.dtype, np.float64)
    W = _augmented_stack(H, sigma.size, dtype)
    idx = np.arange(W.shape[1])
    W[:, idx, idx] -= sigma.reshape(-1, 1)
    W[:, 0, -1] = beta
    return _qr_solve(W).reshape(sigma.shape + (-1,))


def collinearity_scalar(h_next, y):
    """Coefficient of the next basis vector in the Galerkin residual.

    After a reduced solve ``H_m y = beta e1`` the full-space residual is
    ``-h_next * y[-1]`` times the (m+1)-th basis vector, where ``h_next``
    is the subdiagonal entry ``H[m, m-1]`` of the extended Hessenberg
    matrix.  Returns that scalar, or one per row for a (p, m) stack of
    solutions.
    """
    y = np.asarray(y)
    if y.ndim not in (1, 2) or y.shape[-1] == 0:
        raise DimensionMismatch("y must be a nonempty vector or a stack of them")
    return -h_next * y[..., -1]
