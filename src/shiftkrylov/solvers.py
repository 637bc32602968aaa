"""Restarted solvers for shifted families of sparse linear systems.

Given one matrix A and shifts sigma_1..sigma_nu, all systems

    (A - sigma_i I) x_i = b

share every Krylov basis built here, because Krylov subspaces are
invariant under diagonal shifts.  Each restart cycle runs m steps of a
basis process (pivoted Hessenberg or Arnoldi).  The Galerkin residual of
every shift is a scalar multiple of the same (m+1)-th basis vector, so a
restart keeps all residuals collinear with the new start vector and only
one scalar per shift has to be carried across cycles.  Matrix-vector
products are therefore paid once per cycle, independent of the number of
shifts.

The shifts differ only in their m x m reduced systems: each cycle solves
those of all collinear shifts as one stack and adds their corrections to
the iterates, one array with a row per shift, in one product with the
basis.  A shift skipped for a singular reduced system then carries an
explicit residual vector and is solved on its own.

Per-shift residual norm estimates come free from the collinearity
scalar; an estimate crossing the tolerance is confirmed with one true
residual evaluation before the shift is retired.
"""

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .errors import (
    AllShiftsStalled,
    DimensionMismatch,
    InvalidDimensions,
    NonFiniteInput,
    SingularReducedSystem,
    ZeroStartVector,
)
from .reduced import collinearity_scalar, solve_hessenberg, solve_shifted_hessenberg
from .processes import _EPS, _operator_norm_scale, run_arnoldi, run_hessenberg

__all__ = [
    "SolverConfig",
    "ShiftHistory",
    "SolveReport",
    "CycleInfo",
    "solve_hessen",
    "solve_shifted_hessen",
    "solve_shifted_fom",
    "true_relative_residual",
]

# A shift is flagged as stagnated when its estimate is unchanged to
# _STAGNATION_RTOL over _STAGNATION_WINDOW consecutive cycles.  The flag
# is informational; the solve continues to the product budget.
_STAGNATION_WINDOW = 3
_STAGNATION_RTOL = 1e-15

# Consecutive cycles in which every active shift hit a singular reduced
# system before the solve is abandoned.
_STALL_LIMIT = 3


@dataclass
class SolverConfig:
    """Knobs shared by all restarted solvers.

    Attributes
    ----------
    m : int
        Basis size per restart cycle.
    tol : float
        Convergence threshold on the relative residual ||b - (A - sigma I) x|| / ||b||.
    max_mvps : int
        Budget of basis matrix-vector products; a new cycle starts only
        while a full cycle still fits.
    """

    m: int = 30
    tol: float = 1e-8
    max_mvps: int = 4000

    def validate(self):
        if int(self.m) != self.m or self.m < 1:
            raise InvalidDimensions(f"cycle length m={self.m!r} must be a positive integer")
        if not self.tol > 0:
            raise InvalidDimensions(f"tolerance {self.tol!r} must be positive")
        if int(self.max_mvps) != self.max_mvps or self.max_mvps < 0:
            raise InvalidDimensions(f"max_mvps {self.max_mvps!r} must be a nonnegative integer")


@dataclass
class ShiftHistory:
    """Convergence record of one shift.

    ``estimates[0]`` is the initial relative residual; one entry is
    appended per cycle in which the shift was active.  ``skipped_cycles``
    counts cycles lost to a singular reduced system.
    """

    shift: complex
    converged: bool = False
    cycles: int = 0
    skipped_cycles: int = 0
    estimates: list = field(default_factory=list)
    final_relative_residual: float = np.nan
    stagnated: bool = False

    def __repr__(self):
        state = "converged" if self.converged else "not converged"
        return (
            f"<ShiftHistory shift={self.shift}, {state} after {self.cycles} "
            f"cycles, final={self.final_relative_residual:.3e}>"
        )


@dataclass
class CycleInfo:
    """Snapshot handed to the ``on_cycle`` callback after each cycle.

    Arrays are live views into solver state; treat them as read-only.
    ``solutions`` is the (nu, n) array of iterates, row ``i`` for shift
    ``i`` (the correction to ``x0`` when one was given), updated by one
    basis product with the stacked reduced solutions.  ``estimates[i]``
    is None for a shift retired before the cycle.
    """

    cycle: int
    decomposition: object
    shifts: list
    active_before: tuple
    active_after: tuple
    solutions: np.ndarray
    estimates: list
    skipped: tuple


@dataclass
class SolveReport:
    """Cost and convergence summary of one family solve."""

    solver: str
    n: int
    nnz: int
    m: int
    shifts: list
    cycles: int = 0
    basis_mvps: int = 0
    residual_mvps: int = 0
    wall_time_s: float = 0.0
    breakdown: bool = False
    predicted_flops: int | None = None

    @property
    def total_mvps(self):
        """All counted products: basis work plus residual confirmations."""
        return self.basis_mvps + self.residual_mvps

    @property
    def num_converged(self):
        return sum(1 for h in self.shifts if h.converged)

    @property
    def all_converged(self):
        return all(h.converged for h in self.shifts)

    @property
    def dagger_flags(self):
        """Per-shift True where the shift did not converge."""
        return [not h.converged for h in self.shifts]

    def __repr__(self):
        return (
            f"<SolveReport {self.solver}: {self.num_converged}/{len(self.shifts)} "
            f"converged, cycles={self.cycles}, mvps={self.total_mvps}>"
        )


def _as_scalar_shift(s):
    """Normalize a shift to a Python scalar, demoting real-valued complex."""
    s = complex(s)
    return s.real if s.imag == 0.0 else s


def true_relative_residual(A, sigma, x, b):
    """Relative residual ``||b - (A - sigma I) x|| / ||b||``.

    Costs exactly one matrix-vector product with ``A``.
    """
    x = np.asarray(x)
    b = np.asarray(b)
    if x.shape != b.shape:
        raise DimensionMismatch(
            f"solution of shape {x.shape} does not match right-hand side {b.shape}"
        )
    return _relative_residual(A.__matmul__, _as_scalar_shift(sigma), x, b, np.linalg.norm(b))


def _relative_residual(apply, sigma, x, b, bnorm):
    """``||b - (apply(x) - sigma x)|| / bnorm`` for one product ``apply``."""
    r = b - (apply(x) - sigma * x)
    return float(np.linalg.norm(r) / bnorm)


def _project_residual(dec, r, process):
    """Reduced right-hand side making the update Galerkin for residual r.

    For the pivoted process the tested coordinates are the first k pivot
    rows: with T the unit lower triangular ``basis[perm[:k], :k]``, the
    reduced system is ``(H - sigma I) y = T^{-1} r[perm[:k]]``.  For the
    orthonormal Arnoldi basis the orthogonal projection ``basis^H r`` is
    the Galerkin right-hand side instead.
    """
    k = dec.steps
    Lk = dec.basis[:, :k]
    if process == "arnoldi":
        return Lk.conj().T @ r
    T = Lk[dec.perm[:k], :]
    return solve_triangular(T, r[dec.perm[:k]], lower=True, unit_diagonal=True)


def _solve_family(A, b, shifts, cfg, process, x0=None, on_cycle=None, solver_name=""):
    t_start = time.perf_counter()
    cfg = cfg if cfg is not None else SolverConfig()
    cfg.validate()
    b = np.asarray(b)
    if b.ndim != 1:
        raise DimensionMismatch(f"right-hand side must be 1-d, got shape {b.shape}")
    if not np.any(b):
        raise ZeroStartVector("right-hand side is identically zero")
    shape = getattr(A, "shape", None)
    if shape is not None and shape[1] != b.shape[0]:
        raise DimensionMismatch(
            f"operator of shape {shape} cannot act on length {b.shape[0]}"
        )
    if not np.all(np.isfinite(b)):
        raise NonFiniteInput("right-hand side has a non-finite entry")
    n = b.shape[0]
    # The breakdown threshold depends only on the operator, so its norm is
    # taken once per solve; without one the runners scale by each product.
    scale = _operator_norm_scale(A)
    if scale is not None and not np.isfinite(scale):
        raise NonFiniteInput("operator has a non-finite entry")
    breakdown_tol = None if scale is None else n * _EPS * scale
    bnorm = float(np.linalg.norm(b))
    runner = {"hessenberg": run_hessenberg, "arnoldi": run_arnoldi}[process]
    # a basis cannot have more than n vectors; clamp rather than reject so
    # the default cycle length works on small matrices
    m = min(cfg.m, n)

    shifts = [_as_scalar_shift(s) for s in shifts]
    if not shifts:
        raise InvalidDimensions("at least one shift is required")
    sigmas = np.array(shifts)
    if not np.all(np.isfinite(sigmas)):
        raise NonFiniteInput("a shift is not finite")
    nu = len(shifts)

    if x0 is not None:
        x0 = np.asarray(x0)
        if x0.shape != b.shape:
            raise DimensionMismatch(
                f"initial guess of shape {x0.shape} does not match {b.shape}"
            )
        if not np.all(np.isfinite(x0)):
            raise NonFiniteInput("initial guess has a non-finite entry")
    if x0 is not None and np.any(x0):
        r0 = b - (A @ x0)
        base = x0
    else:
        op_dtype = getattr(A, "dtype", np.float64)
        r0 = b.astype(np.result_type(b.dtype, op_dtype, np.float64), copy=True)
        base = None

    r0norm = float(np.linalg.norm(r0))
    histories = [ShiftHistory(shift=s, estimates=[r0norm / bnorm]) for s in shifts]
    # Row i is the correction to x0 of shift i.  The residual of an active
    # shift is coef[i] times the pending start vector, or, once a skipped
    # cycle has broken collinearity, the explicit vector anchors[i].
    X = np.zeros((nu, n), dtype=np.result_type(r0.dtype, sigmas.dtype))
    coef = np.ones(nu, dtype=X.dtype)
    anchors = [None] * nu
    active = list(range(nu))

    def solution(i):
        # real shifts on real data keep real solutions in a complex family
        x = X[i].real if np.isrealobj(shifts[i]) and np.isrealobj(r0) else X[i]
        return np.ascontiguousarray(x) if base is None else base + x

    report = SolveReport(
        solver=solver_name,
        n=n,
        nnz=getattr(A, "nnz", 0),
        m=m,
        shifts=histories,
    )

    v = r0
    consecutive_all_skipped = 0
    while active and report.basis_mvps + m <= cfg.max_mvps:
        dec = runner(A, v, m, breakdown_tol)
        report.basis_mvps += dec.steps
        k = dec.steps
        H = dec.square_h
        V = dec.basis[:, :k]
        lnext = dec.last_vector
        lnorm = float(np.linalg.norm(lnext)) if lnext is not None else 0.0

        active_before = tuple(active)
        coll = np.array([i for i in active_before if anchors[i] is None], dtype=int)
        skipped = np.zeros(nu, dtype=bool)
        if coll.size:
            # one stacked reduced solve and one basis product for every
            # collinear shift
            try:
                Y = solve_shifted_hessenberg(H, sigmas[coll], coef[coll] * dec.beta)
            except SingularReducedSystem as exc:
                Y = exc.solution
                skipped[coll[exc.singular]] = True
            solved = ~skipped[coll]
            done, Y = coll[solved], Y[solved]
            # updating the whole family through a slice avoids a gathered copy
            X[done if done.size < nu else slice(None)] += Y @ V.T
            coef[done] = collinearity_scalar(dec.subdiag, Y)
        for i in active_before:
            if anchors[i] is None:
                continue
            sigma = shifts[i]
            z = _project_residual(dec, anchors[i], process)
            try:
                y = solve_hessenberg(H - sigma * np.eye(k), z)
            except SingularReducedSystem:
                skipped[i] = True
                continue
            X[i] += V @ y
            r = anchors[i] - V @ (H @ y - sigma * y)
            if not dec.breakdown:
                r = r - dec.subdiag * y[-1] * lnext
            anchors[i] = r

        estimates = [None] * nu
        for i in active_before:
            hist = histories[i]
            hist.cycles += 1
            if skipped[i]:
                hist.skipped_cycles += 1
                if anchors[i] is None:
                    anchors[i] = coef[i] * dec.beta * dec.basis[:, 0]
            if anchors[i] is None:
                est = float(abs(coef[i])) * lnorm / bnorm
            else:
                est = float(np.linalg.norm(anchors[i])) / bnorm
            estimates[i] = est
            e = hist.estimates
            e.append(est)
            if len(e) > _STAGNATION_WINDOW:
                ref = e[-1 - _STAGNATION_WINDOW]
                hist.stagnated |= abs(e[-1] - ref) <= _STAGNATION_RTOL * ref
            if not skipped[i] and est <= cfg.tol:
                report.residual_mvps += 1
                tr = _relative_residual(A.__matmul__, shifts[i], solution(i), b, bnorm)
                if tr <= cfg.tol:
                    hist.converged = True
                    hist.final_relative_residual = tr
                    active.remove(i)

        report.cycles += 1
        skipped_now = tuple(np.flatnonzero(skipped).tolist())
        if on_cycle is not None:
            on_cycle(
                CycleInfo(
                    cycle=report.cycles,
                    decomposition=dec,
                    shifts=list(shifts),
                    active_before=active_before,
                    active_after=tuple(active),
                    solutions=X,
                    estimates=estimates,
                    skipped=skipped_now,
                )
            )

        if skipped_now and len(skipped_now) == len(active_before):
            consecutive_all_skipped += 1
            if consecutive_all_skipped >= _STALL_LIMIT:
                report.wall_time_s = time.perf_counter() - t_start
                _finalize(A, shifts, histories, solution, b, bnorm)
                exc = AllShiftsStalled(
                    f"every active shift produced a singular reduced system for "
                    f"{_STALL_LIMIT} consecutive cycles"
                )
                exc.report = report
                exc.xs = [solution(i) for i in range(nu)]
                raise exc
        else:
            consecutive_all_skipped = 0

        if dec.breakdown:
            # The subspace became invariant: collinear shifts were solved
            # exactly this cycle and there is no vector to restart from.
            report.breakdown = True
            break
        v = lnext

    _finalize(A, shifts, histories, solution, b, bnorm)
    report.wall_time_s = time.perf_counter() - t_start
    return [solution(i) for i in range(nu)], report


def _finalize(A, shifts, histories, solution, b, bnorm):
    """Fill the final residuals of unconverged shifts, outside the product count."""
    apply = getattr(A, "_apply", A.__matmul__)
    for i, hist in enumerate(histories):
        if not hist.converged:
            hist.final_relative_residual = _relative_residual(
                apply, shifts[i], solution(i), b, bnorm
            )


def solve_hessen(A, b, x0=None, cfg=None, on_cycle=None):
    """Solve ``A x = b`` by the restarted pivoted Hessenberg method.

    Parameters
    ----------
    A : operator
        Square sparse matrix or operator supporting ``A @ x``.
    b : (n,) array_like
        Nonzero right-hand side.
    x0 : (n,) array_like, optional
        Initial guess; a nonzero guess costs one extra matrix-vector
        product for the initial residual.
    cfg : SolverConfig, optional
    on_cycle : callable, optional
        Called with a :class:`CycleInfo` after every cycle.

    Returns
    -------
    x : (n,) ndarray
    report : SolveReport
    """
    sols, report = _solve_family(
        A, b, [0.0], cfg, "hessenberg", x0=x0, on_cycle=on_cycle, solver_name="hessen"
    )
    return sols[0], report


def solve_shifted_hessen(A, b, shifts, cfg=None, on_cycle=None):
    """Solve ``(A - sigma_i I) x_i = b`` for all shifts at once.

    One pivoted Hessenberg basis per cycle is shared by every shift;
    see the module docstring for the restart mechanics.

    Returns
    -------
    xs : list of (n,) ndarray
        Solutions ordered like ``shifts``.  A shift's entry holds the
        best iterate even when that shift did not converge; consult the
        report.
    report : SolveReport
    """
    return _solve_family(
        A, b, shifts, cfg, "hessenberg", on_cycle=on_cycle, solver_name="shessen"
    )


def solve_shifted_fom(A, b, shifts, cfg=None, on_cycle=None):
    """Restarted shifted FOM: like :func:`solve_shifted_hessen` with an
    orthonormal Arnoldi basis.  The reference method; roughly twice the
    vector work per cycle."""
    return _solve_family(
        A, b, shifts, cfg, "arnoldi", on_cycle=on_cycle, solver_name="sfom"
    )
