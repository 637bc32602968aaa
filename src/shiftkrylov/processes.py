"""Krylov basis construction.

Two processes reduce A to banded upper Hessenberg form over a Krylov
subspace:

``run_hessenberg``
    An oblique (non-orthogonal) process that picks, at every step, the
    largest remaining component in magnitude as pivot and normalizes the
    new basis vector by it.  With the bookkeeping permutation ``perm``,
    the basis is unit lower trapezoidal after row reordering, so each
    step's coefficients come from the product's pivot entries by one
    unit lower triangular solve instead of inner products, and its
    elimination is one ``gemv``.  One matrix-vector product and about
    half the vector work of Arnoldi per step.

``run_arnoldi``
    Modified Gram-Schmidt Arnoldi, kept as the orthogonal reference.

Both return a :class:`HessenbergDecomposition` satisfying

    A @ basis[:, :k] == basis @ hbar        (up to roundoff)

which :func:`verify_decomposition` measures in the Frobenius norm.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_blas_funcs

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidDimensions,
    NonFiniteInput,
    ZeroStartVector,
)

__all__ = [
    "HessenbergDecomposition",
    "pivot_select",
    "run_hessenberg",
    "run_arnoldi",
    "verify_decomposition",
]

_EPS = float(np.finfo(np.float64).eps)


@dataclass
class HessenbergDecomposition:
    """Result of ``k`` steps of a Hessenberg-type process.

    Attributes
    ----------
    basis : (n, k+1) or (n, k) ndarray
        Basis vectors as columns; the trailing column is absent when the
        process broke down (the subspace became invariant).
    hbar : (k+1, k) ndarray
        Extended Hessenberg matrix; its last row is zero on breakdown.
    perm : (n,) ndarray of int
        Pivot bookkeeping permutation.  ``basis[perm[:k], :k]`` is unit
        lower triangular for the pivoted process; the identity for
        Arnoldi.
    beta : scalar
        Normalization of the start vector: ``v == beta * basis[:, 0]``.
    steps : int
        Number of completed steps ``k``.
    breakdown : bool
        True when the process terminated with ``hbar[k, k-1] == 0``.
    """

    basis: np.ndarray
    hbar: np.ndarray
    perm: np.ndarray
    beta: complex
    steps: int
    breakdown: bool = False

    @property
    def square_h(self):
        """The leading k x k block of ``hbar``."""
        return self.hbar[: self.steps, :]

    @property
    def subdiag(self):
        """The coupling scalar ``hbar[k, k-1]``; zero on breakdown."""
        return self.hbar[self.steps, self.steps - 1]

    @property
    def last_vector(self):
        """The (k+1)-th basis vector, or None on breakdown."""
        if self.breakdown:
            return None
        return self.basis[:, self.steps]

    def __repr__(self):
        n = self.basis.shape[0]
        tag = ", breakdown" if self.breakdown else ""
        return f"<HessenbergDecomposition n={n}, steps={self.steps}{tag}>"


def pivot_select(u, start=0):
    """Index of the pivot among the trailing entries of a vector.

    Scans positions ``start, start+1, ...`` of ``u`` and returns the
    first one whose entry has maximal magnitude.  Applied to a vector
    stored in pivot order, it returns a position in that order.

    Parameters
    ----------
    u : (n,) array_like
    start : int
        First eligible position.

    Raises
    ------
    IndexOutOfRange
        If ``start`` leaves no eligible position.
    """
    u = np.asarray(u)
    n = u.shape[0]
    if not 0 <= start < n:
        raise IndexOutOfRange(
            f"start position {start} leaves no candidate in a vector of "
            f"length {n}"
        )
    return start + int(np.argmax(np.abs(u[start:])))


def _operator_norm_scale(A):
    """An infinity-norm scale of A for breakdown thresholds, or None."""
    norm_inf = getattr(A, "norm_inf", None)
    if callable(norm_inf):
        return float(norm_inf())
    if isinstance(A, np.ndarray):
        return float(np.abs(A).sum(axis=1).max())
    return None


def _breakdown_threshold(breakdown_tol, norm_scale, n, u):
    """Breakdown threshold of one step, fixed from its product ``u``
    before any elimination: ``breakdown_tol`` when given, else ``n * eps``
    times the operator's norm scale, or times ``max |u|`` without one."""
    if breakdown_tol is not None:
        return breakdown_tol
    scale = norm_scale if norm_scale is not None else float(np.abs(u).max(initial=0.0))
    return n * _EPS * scale


def _check_start(A, v, m):
    v = np.asarray(v)
    if v.ndim != 1:
        raise DimensionMismatch(f"start vector must be 1-d, got shape {v.shape}")
    n = v.shape[0]
    shape = getattr(A, "shape", None)
    if shape is not None and (shape[0] != shape[1] or shape[1] != n):
        raise DimensionMismatch(
            f"operator of shape {shape} cannot act on a vector of length {n}"
        )
    if not np.any(v):
        raise ZeroStartVector("start vector is identically zero")
    if int(m) != m or not 1 <= m <= n:
        raise InvalidDimensions(f"step count m={m!r} outside 1..{n}")
    dtype = np.result_type(getattr(A, "dtype", v.dtype), v.dtype, np.float64)
    return v.astype(dtype, copy=False), n, int(m), dtype


def run_hessenberg(A, v, m, breakdown_tol=None):
    """Run ``m`` steps of the pivoted Hessenberg process.

    Each step solves the pivot rows for its coefficients (``trsv``),
    eliminates with one ``gemv``, zeroes the pivot rows exactly and takes
    the largest remaining entry as pivot, the first in pivot order on a tie.

    Parameters
    ----------
    A : operator
        Anything implementing ``A @ x`` on length-n vectors, typically a
        :class:`~shiftkrylov.sparse.CsrMatrix`.  Applied exactly once per
        completed step.
    v : (n,) array_like
        Nonzero start vector.
    m : int
        Requested steps, ``1 <= m <= n``.
    breakdown_tol : float, optional
        Candidates whose magnitude does not exceed this are treated as
        zero (invariant subspace).  Default ``n * eps * ||A||_inf``, with
        the norm of the current product as fallback scale when the
        operator does not expose a norm.

    Returns
    -------
    HessenbergDecomposition
        With ``basis[perm[:k], :k]`` exactly unit lower triangular: the
        pivot entry of every column is exactly 1 and entries above it in
        permuted order are exactly 0.

    Raises
    ------
    ZeroStartVector, DimensionMismatch, InvalidDimensions, NonFiniteInput
    """
    v, n, m, dtype = _check_start(A, v, m)
    norm_scale = _operator_norm_scale(A) if breakdown_tol is None else None

    perm = np.arange(n)
    i0 = pivot_select(v, start=0)
    beta = v[i0]
    perm[0], perm[i0] = perm[i0], perm[0]
    inv = perm.copy()  # a transposition is its own inverse

    basis = np.zeros((n, m + 1), dtype=dtype, order="F")
    basis[:, 0] = v / beta
    # complex self-division may stray from exact one by an ulp; the pivot
    # entry is one by construction, so write it that way
    basis[i0, 0] = 1.0
    hbar = np.zeros((m + 1, m), dtype=dtype)
    # pivot rows of the basis, basis[perm[:j+1], :j+1], unit lower triangular
    lower = np.eye(m + 1, dtype=dtype, order="F")
    trsv, gemv = get_blas_funcs(("trsv", "gemv"), (basis,))
    mag = np.empty(n)

    steps = m
    breakdown = False
    for j in range(m):
        # copy, since an operator may return a view and the step below
        # works in place
        u = np.array(A @ basis[:, j], dtype=dtype)
        tol = _breakdown_threshold(breakdown_tol, norm_scale, n, u)
        h = trsv(lower[: j + 1, : j + 1], u[perm[: j + 1]], lower=1, diag=1)
        hbar[: j + 1, j] = h
        u = gemv(-1.0, basis[:, : j + 1], h, 1.0, u, overwrite_y=1)
        # the elimination zeroes the pivot rows up to roundoff; make it exact
        u[perm[: j + 1]] = 0.0
        if j + 1 < n:
            np.abs(u, out=mag)
            peak = mag.max()
            if not np.isfinite(peak):
                raise NonFiniteInput(f"non-finite pivot candidate at step {j + 1}")
            # the first maximum in pivot order, as pivot_select picks it from u[perm]
            ties = np.flatnonzero(mag == peak)
            row = ties[inv[ties].argmin()]
            piv = u[row]
            if abs(piv) > tol:
                hbar[j + 1, j] = piv
                pos = inv[row]
                perm[j + 1], perm[pos] = row, perm[j + 1]
                inv[perm[pos]], inv[row] = pos, j + 1
                np.divide(u, piv, out=basis[:, j + 1])
                # complex self-division is not always exactly one, so pin
                # the pivot entry to keep the triangular structure exact
                basis[row, j + 1] = 1.0
                lower[j + 1, : j + 1] = basis[row, : j + 1]
                continue
        steps = j + 1
        breakdown = True
        break

    ncols = steps if breakdown else steps + 1
    return HessenbergDecomposition(
        basis=basis[:, :ncols],
        hbar=hbar[: steps + 1, :steps],
        perm=perm,
        beta=beta,
        steps=steps,
        breakdown=breakdown,
    )


def run_arnoldi(A, v, m, breakdown_tol=None):
    """Run ``m`` steps of modified Gram-Schmidt Arnoldi.

    Same contract as :func:`run_hessenberg` with an orthonormal basis:
    ``beta = ||v||_2``, ``perm`` is the identity, and the subdiagonal
    entries of ``hbar`` are real and positive.
    """
    v, n, m, dtype = _check_start(A, v, m)
    norm_scale = _operator_norm_scale(A) if breakdown_tol is None else None

    beta = np.linalg.norm(v)
    basis = np.zeros((n, m + 1), dtype=dtype, order="F")
    basis[:, 0] = v / beta
    hbar = np.zeros((m + 1, m), dtype=dtype)

    steps = m
    breakdown = False
    for j in range(m):
        u = np.asarray(A @ basis[:, j], dtype=dtype)
        tol = _breakdown_threshold(breakdown_tol, norm_scale, n, u)
        for i in range(j + 1):
            h = np.vdot(basis[:, i], u)
            hbar[i, j] = h
            u -= h * basis[:, i]
        hnext = np.linalg.norm(u)
        if not np.isfinite(hnext):
            raise NonFiniteInput(f"non-finite subdiagonal {hnext} at step {j + 1}")
        if j + 1 < n and hnext > tol:
            hbar[j + 1, j] = hnext
            basis[:, j + 1] = u / hnext
        else:
            steps = j + 1
            breakdown = True
            break

    ncols = steps if breakdown else steps + 1
    return HessenbergDecomposition(
        basis=basis[:, :ncols],
        hbar=hbar[: steps + 1, :steps],
        perm=np.arange(n),
        beta=beta,
        steps=steps,
        breakdown=breakdown,
    )


def verify_decomposition(A, dec):
    """Frobenius norm of the decomposition residual.

    Computes ``||A @ basis[:, :k] - basis @ hbar||_F``, which is zero up
    to roundoff for a decomposition as returned by the processes.  Costs
    ``k`` products with ``A``.
    """
    k = dec.steps
    cols = [A @ dec.basis[:, j] for j in range(k)]
    lhs = np.stack(cols, axis=1)
    rhs = dec.basis @ dec.hbar[: dec.basis.shape[1], :]
    return float(np.linalg.norm(lhs - rhs))
