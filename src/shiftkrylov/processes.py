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

The runners differ only in how a step builds its next vector.  Both copy
each product into the basis column it becomes and normalize it there, so
an operator may return a view of its argument or a buffer it reuses;
both break down on a candidate not above :func:`_breakdown_threshold`;
and both hand their m-step buffers, from :func:`_run_buffers`, to
:class:`HessenbergDecomposition`, which trims them to the k steps done.

One Krylov-Schur step, :func:`_krylov_schur`, restarts both processes;
:func:`thick_restart` refactors its seed for the pivoted one, and either
runner continues a seed with ``start=seed``.  The seed's basis is one
column-major (n, k+1) buffer, like the basis it continues into: ``V Q_k``
is written straight into its first k columns and factored there, and the
continued run copies it column by column into a basis it need not zero.

The restart's rounding is pinned.  It calls LAPACK ``getrf`` and
``trtrs`` itself, with the arguments that scipy's ``lu_factor`` and
``solve_triangular`` pass: a triangle that is not column-major, as the
in-place ``L`` and the C-ordered ``U`` are, goes in transposed, with
``lower`` and ``trans`` flipped.  And ``W c`` is taken from a row-major
copy of ``W``, because the column-major form rounds differently
(OpenBLAS 0.3.31, AVX-512 kernels) and moves cycle counts: over the 120
inputs a workload of ``tools/parity.py -n 40``, ``matfunc-exp`` went
from 158.1 to 160.1 mean basis products and ``convdiff-shessen`` from
122.0 to 120.3.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from .errors import (
    DimensionMismatch,
    InvalidDimensions,
    NonFiniteInput,
    ZeroStartVector,
    _count,
)
from .reduced import _schur

__all__ = [
    "HessenbergDecomposition",
    "run_hessenberg",
    "run_arnoldi",
    "thick_restart",
    "verify_decomposition",
]

_EPS = float(np.finfo(np.float64).eps)


@dataclass
class HessenbergDecomposition:
    """Result of ``k`` steps of a Hessenberg-type process.

    Construction trims ``basis`` and ``hbar`` to the shapes below, so a
    run may pass its m-step buffers; a trimmed result is kept as it is.

    Attributes
    ----------
    basis : (n, k+1) or (n, k) ndarray
        Basis vectors as columns; the trailing column is absent when the
        process broke down (the subspace became invariant).
    hbar : (k+1, k) ndarray
        Extended Hessenberg matrix; its last row is zero on breakdown.
        A run continued from a thick restart of j columns is full in its
        leading (j+1, j) block and Hessenberg from column j + 1 on; its
        last row is zero but for ``hbar[k, k-1]``, as after a plain start.
    perm : (n,) ndarray of int
        Pivot bookkeeping permutation.  ``basis[perm[:k], :k]`` is unit
        lower triangular for the pivoted process; the identity for
        Arnoldi.
    g : ndarray
        Start coordinates: ``v == basis[:, :g.size] @ g``.  A fresh run
        has one, the normalization :attr:`beta` of its start vector (a
        scalar given here is taken as it); a thick restart of j columns
        has j + 1.
    steps : int
        Number of completed steps ``k``, kept columns included.
    breakdown : bool
        True when the process terminated with ``hbar[k, k-1] == 0``.

    The Schur form of ``square_h`` is cached as :attr:`schur` on first
    use; the decomposition is not to be modified after that.
    """

    basis: np.ndarray
    hbar: np.ndarray
    perm: np.ndarray
    g: np.ndarray
    steps: int
    breakdown: bool = False

    def __post_init__(self):
        k = self.steps
        self.basis = self.basis[:, : k if self.breakdown else k + 1]
        self.hbar = self.hbar[: k + 1, :k]
        self.g = np.atleast_1d(self.g)

    @property
    def beta(self):
        """``g[0]``: for a fresh run the normalization of its start
        vector, ``v == beta * basis[:, 0]``."""
        return self.g[0]

    @property
    def square_h(self):
        """The leading k x k block of ``hbar``."""
        return self.hbar[: self.steps, :]

    @cached_property
    def schur(self):
        """The Schur form ``square_h Q = Q T``, computed on first use:
        ``(T, Q, ritz, info)``, real for real ``hbar``, with the Ritz
        values as ``ritz`` (``(wr, wi)`` when real, ``(w,)`` when
        complex) and ``info > 0`` when ``gees`` failed.  A cycle's
        stacked reduced solve and its thick restart share it."""
        return _schur(self.square_h)

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


def _operator_norm_scale(A):
    """An infinity-norm scale of A for breakdown thresholds, or None; inf,
    without a warning, when a row sum of a dense A overflows."""
    norm_inf = getattr(A, "norm_inf", None)
    if callable(norm_inf):
        return float(norm_inf())
    if isinstance(A, np.ndarray):
        with np.errstate(over="ignore"):
            return float(np.abs(A).sum(axis=1).max())
    return None


def _breakdown_threshold(norm_scale, n, u):
    """Breakdown threshold of one step, fixed from its product ``u``
    before any elimination: ``n * eps`` times the operator's norm scale,
    or times ``max |u|`` without one."""
    if norm_scale is None:
        norm_scale = float(np.abs(u).max(initial=0.0))
    return n * _EPS * norm_scale


def _pivot_column(u, mag, col, perm, inv, tol):
    """Make the candidate ``u``, exactly zero on the pivot rows
    ``perm[:col]``, basis column ``col`` under the pivoting rule, in place.

    The pivot is the largest entry in magnitude, the first in pivot order
    on a tie: the first maximum of ``|u[perm[col:]]|``.  Returns it as a
    Python scalar, having divided ``u`` by it, pinned its entry to 1 and
    updated ``perm`` and its inverse ``inv``, or None, leaving ``u`` as it
    is, when it is not above ``tol``.  ``mag`` is (n,) scratch.  Raises
    NonFiniteInput when ``u`` has a non-finite entry.
    """
    np.abs(u, out=mag)
    # argmax picks a nan or inf entry over any finite one, so the peak
    # alone carries the non-finite check
    row = int(mag.argmax())
    peak = mag.item(row)
    if not math.isfinite(peak):
        raise NonFiniteInput(f"non-finite pivot candidate at step {col}")
    # the first maximum is unique unless the entries after it reach the
    # peak; only then is the first maximum in pivot order looked for
    if mag[row + 1:].max(initial=0.0) == peak:
        ties = np.flatnonzero(mag == peak)
        row = int(ties[inv[ties].argmin()])
    piv = u.item(row)
    if not abs(piv) > tol:
        return None
    pos, top = inv.item(row), perm.item(col)
    perm[col], perm[pos] = row, top
    inv[top], inv[row] = pos, col
    u /= piv
    # complex self-division may miss exact one; the structure needs it exact
    u[row] = 1.0
    return piv


def _check_start(A, v, m):
    """A run's checked ``(v, n, m, dtype, norm_scale)``, ``v`` in ``dtype``."""
    v = np.asarray(v)
    if v.ndim != 1:
        raise DimensionMismatch(f"start vector must be 1-d, got shape {v.shape}")
    n = v.shape[0]
    shape = getattr(A, "shape", None)
    if shape is not None and (shape[0] != shape[1] or shape[1] != n):
        raise DimensionMismatch(
            f"operator of shape {shape} cannot act on a vector of length {n}"
        )
    # one pass: NaN or inf for a non-finite entry, zero for the zero vector
    peak = np.abs(v).max(initial=0.0)
    if not math.isfinite(peak):
        raise NonFiniteInput("start vector has a non-finite entry")
    if peak == 0.0:
        raise ZeroStartVector("start vector is identically zero")
    message = f"step count m={m!r} outside 1..{n}"
    m = _count(m, 1, InvalidDimensions, message)
    if m > n:
        raise InvalidDimensions(message)
    dtype = np.result_type(getattr(A, "dtype", v.dtype), v.dtype, np.float64)
    norm_scale = _operator_norm_scale(A)
    # a NaN entry, or finite entries whose row sum overflows, would make
    # every breakdown threshold NaN or inf: reject before any product
    if norm_scale is not None and not math.isfinite(norm_scale):
        raise NonFiniteInput(
            f"operator norm is {norm_scale}: a non-finite entry, or a row sum "
            f"that overflows"
        )
    return v.astype(dtype, copy=False), n, m, dtype, norm_scale


def _run_buffers(start, n, m, dtype):
    """A run's buffers ``(basis, hbar, first)``: a column-major (n, m+1)
    basis, not zeroed, and a zeroed (m+1, m) ``hbar``, holding ``start``
    once its contract is checked, and the step ``first`` to go on from."""
    if start is not None:
        if start.breakdown or not 1 <= start.steps < m or start.basis.shape[0] != n:
            raise InvalidDimensions(f"cannot continue {start!r} to {m} steps "
                                    f"on vectors of length {n}")
        dtype = np.result_type(dtype, start.basis.dtype)
    basis = np.empty((n, m + 1), dtype=dtype, order="F")
    hbar = np.zeros((m + 1, m), dtype=dtype)
    if start is None:
        return basis, hbar, 0
    basis[:, : start.steps + 1] = start.basis
    hbar[: start.steps + 1, : start.steps] = start.hbar
    return basis, hbar, start.steps


def run_hessenberg(A, v, m, *, start=None):
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
        Requested steps, ``1 <= m <= n``.  A step whose pivot candidate is
        not above ``n * eps * ||A||_inf`` is a breakdown (invariant
        subspace).  The run reads the norm once, from ``A.norm_inf()`` or
        a dense ``A``, and rejects a NaN or overflowed norm before any
        product; without one, each step's ``max |A @ x|`` stands in.
    start : HessenbergDecomposition, optional
        A j-step decomposition of ``v`` by ``A`` to continue, with
        ``1 <= j < m`` and no breakdown, such as :func:`thick_restart`
        returns.  Its basis, ``hbar``, ``perm`` and ``g`` are taken as
        they are and the run goes on at column j + 1, so it pays
        ``m - j`` products and returns an m-step decomposition of ``v``
        with the same start coordinates.  ``v`` is then only checked,
        not read.

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
    v, n, m, dtype, norm_scale = _check_start(A, v, m)
    basis, hbar, first = _run_buffers(start, n, m, dtype)
    # a continued run may be promoted to its seed's dtype
    dtype = basis.dtype
    # pivot rows of the basis, basis[perm[:j+1], :j+1], unit lower triangular
    lower = np.eye(m + 1, dtype=dtype, order="F")
    perm = np.arange(n) if start is None else start.perm.copy()
    inv = np.empty_like(perm)
    inv[perm] = np.arange(n)
    mag = np.empty(n)
    if start is None:
        basis[:, 0] = v
        # a nonzero finite v always has a pivot above zero
        g = _pivot_column(basis[:, 0], mag, 0, perm, inv, 0.0)
    else:
        g = start.g
        lower[: first + 1, : first + 1] = basis[perm[: first + 1], : first + 1]
    trsv, gemv = get_blas_funcs(("trsv", "gemv"), (basis,))
    # an operator's norm fixes the breakdown threshold for the whole run
    tol = None if norm_scale is None else _breakdown_threshold(norm_scale, n, None)

    steps = m
    breakdown = False
    for j in range(first, m):
        u = basis[:, j + 1]
        u[:] = A @ basis[:, j]
        step_tol = _breakdown_threshold(None, n, u) if tol is None else tol
        rows = perm[: j + 1]
        h = trsv(lower[: j + 1, : j + 1], u[rows], lower=1, diag=1)
        hbar[: j + 1, j] = h
        # u is a contiguous column of the basis's dtype: eliminated in place
        gemv(-1.0, basis[:, : j + 1], h, 1.0, u, overwrite_y=1)
        # the elimination zeroes the pivot rows up to roundoff; make it exact
        u[rows] = 0.0
        piv = _pivot_column(u, mag, j + 1, perm, inv, step_tol) if j + 1 < n else None
        if piv is None:
            steps = j + 1
            breakdown = True
            break
        hbar[j + 1, j] = piv
        lower[j + 1, : j + 1] = basis[perm[j + 1], : j + 1]

    return HessenbergDecomposition(basis, hbar, perm, g, steps, breakdown)


def _krylov_schur(dec, k):
    """Krylov-Schur restart of any decomposition, for ``start=``.

    With ``H = dec.square_h``, ``v`` the last basis vector and ``b`` the
    last row of ``dec.hbar``, ``A V = V H + v b^T``, orthonormal ``V`` or
    not.  The real (complex for complex ``H``) Schur form ``H Q = Q T`` of
    ``dec.schur``, reordered into a copy with the k Ritz values of
    smallest modulus leading, a conjugate pair kept whole (k may become
    k + 1), gives the k-step decomposition returned:
    a column-major basis ``[V Q_k, v]``, ``hbar = [T_k; b^T Q_k]``,
    ``g = e_{k+1}`` and the identity ``perm``.  Returns None when the
    Schur form or its reordering fails or ties of modulus leave no block
    of fewer than m columns; raises as :func:`thick_restart` does.
    """
    m = dec.steps
    message = f"cannot keep {k!r} of the {m} columns of {dec!r}"
    k = _count(k, 1, InvalidDimensions, message)
    if dec.breakdown or k >= m:
        raise InvalidDimensions(message)
    T, Q, ritz, info = dec.schur
    if info:
        return None
    mod = np.hypot(*ritz) if len(ritz) == 2 else np.abs(ritz[0])
    order = np.sort(mod).tolist()
    # a conjugate pair, like any exact tie of modulus, is kept whole
    while k < m and order[k] == order[k - 1]:
        k += 1
    if k >= m:
        return None
    trsen = get_lapack_funcs("trsen", (T,))
    T, Q, *_, info = trsen((mod <= order[k - 1]).astype(np.int32), T, Q, job="N")
    if info:
        return None
    n = dec.basis.shape[0]
    basis = np.empty((n, k + 1), dtype=np.result_type(dec.basis, Q), order="F")
    np.matmul(dec.basis[:, :m], Q[:, :k], out=basis[:, :k])
    basis[:, k] = dec.last_vector
    hbar = np.vstack((T[:k, :k], dec.hbar[m] @ Q[:, :k])).astype(basis.dtype, copy=False)
    g = np.append(np.zeros(k), 1.0)
    return HessenbergDecomposition(basis, hbar, np.arange(n), g, k)


def thick_restart(dec, k):
    """Krylov-Schur restart of a pivoted decomposition, for ``start=``.

    :func:`_krylov_schur` gives ``A W0 = W0 T_k + v (b^T Q_k)`` with
    ``W0 = V Q_k``.  ``W0 = P L U`` by partial pivoting (``getrf``), and
    ``W = W0 U^{-1}`` is taken as ``P L``: unit lower trapezoidal under
    the pivot rows, as the process keeps its basis.  Eliminating ``v`` on
    those rows, ``c = L_piv^{-1} v[piv]``, leaves a remainder whose
    largest entry ``s`` (the first in pivot order on a tie) is its pivot;
    with ``w`` the remainder divided by ``s``,

        A W = W (U T_k U^{-1} + c b_hat^T) + s w b_hat^T,
        b_hat^T = b^T Q_k U^{-1},

    and ``v = W c + s w``.  Returns that k-step decomposition, the seed
    itself with ``g = [c; s]`` and the basis ``[W, w]`` factored and
    assembled in its buffer, the triangular solves by ``trtrs`` (see the
    module notes); ``dec`` is only read.  Because
    the decomposition is one of ``A`` alone, ``A - sigma I`` has it too
    with ``T_k - sigma I``, so a residual ``coef * v`` of any shift is
    ``coef * [c; s]`` in the new basis.  No products are taken.

    Returns None, for a plain restart from ``v``, when the Krylov-Schur
    step does, when ``U`` has a diagonal entry at or below
    ``n * eps * max |U|``, or when ``v`` lies in the span of ``W`` to
    within the breakdown threshold ``n * eps * max |v|``.

    Parameters
    ----------
    dec : HessenbergDecomposition
        A pivoted decomposition without breakdown.
    k : int
        Ritz values to keep, ``1 <= k < dec.steps``.

    Raises
    ------
    InvalidDimensions
        If ``dec`` broke down or ``k`` is out of range.
    """
    seed = _krylov_schur(dec, k)
    if seed is None:
        return None
    k, basis, hbar, perm = seed.steps, seed.basis, seed.hbar, seed.perm
    n = basis.shape[0]
    getrf, trtrs = get_lapack_funcs(("getrf", "trtrs"), (basis,))
    # factored in place: lu is the seed's first k columns
    lu, piv, _ = getrf(basis[:, :k], overwrite_a=1)
    upper = np.arange(k)[:, None] <= np.arange(k)
    U = np.where(upper, lu[:k], 0.0)
    if np.abs(np.diagonal(U)).min() <= _breakdown_threshold(None, n, U):
        return None
    for i, p in enumerate(piv.tolist()):
        perm[i], perm[p] = perm.item(p), perm.item(i)
    # L pinned to exact zeros and ones on its pivot rows
    np.copyto(lu[:k], np.eye(k, dtype=bool), where=upper)
    u = basis[:, k]  # v, reduced to its remainder in place
    tol = _breakdown_threshold(None, n, u)
    c, _ = trtrs(lu[:k].T, u[perm[:k]], lower=0, trans=1, unitdiag=1)
    # W = P L in natural row order, in place: only the rows that the
    # pivoting moved, at most 2k (listed here with repeats), change
    moved = np.concatenate((np.arange(k), piv))
    inv = np.arange(n)
    inv[perm[moved]] = moved
    lu[moved] = lu[inv[moved]]
    # W c from a row-major copy of W, as the module notes explain
    u -= np.ascontiguousarray(lu) @ c
    u[perm[:k]] = 0.0
    try:
        s = _pivot_column(u, np.empty(n), k, perm, inv, tol)
    except NonFiniteInput:
        return None
    if s is None:
        return None
    # b_hat^T = b^T Q_k U^{-1} and U T_k U^{-1}, by solves with U^T
    bhat, _ = trtrs(U.T, hbar[k], lower=1)
    UTU, _ = trtrs(U.T, (U @ hbar[:k]).T, lower=1)
    hbar[:k] = UTU.T + c[:, None] * bhat
    hbar[k] = s * bhat
    seed.g = np.append(c, s)
    return seed


def run_arnoldi(A, v, m, *, start=None):
    """Run ``m`` steps of modified Gram-Schmidt Arnoldi.

    Same contract as :func:`run_hessenberg`, its breakdown threshold and
    ``start`` included, with an orthonormal basis: ``beta = ||v||_2``,
    ``perm`` is the identity, the subdiagonal entries of the columns it
    runs are real and positive, and the breakdown candidate is the norm of
    the orthogonalized product.  A continued basis may be far from
    orthonormal (MGS against the kept columns); its ``hbar`` is exact.
    """
    v, n, m, dtype, norm_scale = _check_start(A, v, m)
    basis, hbar, first = _run_buffers(start, n, m, dtype)
    if start is None:
        g = np.linalg.norm(v)
        basis[:, 0] = v / g
    else:
        g = start.g

    steps = m
    breakdown = False
    for j in range(first, m):
        u = basis[:, j + 1]
        u[:] = A @ basis[:, j]
        tol = _breakdown_threshold(norm_scale, n, u)
        for i in range(j + 1):
            h = np.vdot(basis[:, i], u)
            hbar[i, j] = h
            u -= h * basis[:, i]
        hnext = np.linalg.norm(u)
        if not np.isfinite(hnext):
            raise NonFiniteInput(f"non-finite subdiagonal {hnext} at step {j + 1}")
        if j + 1 < n and hnext > tol:
            hbar[j + 1, j] = hnext
            u /= hnext
        else:
            steps = j + 1
            breakdown = True
            break

    return HessenbergDecomposition(basis, hbar, np.arange(n), g, steps, breakdown)


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
