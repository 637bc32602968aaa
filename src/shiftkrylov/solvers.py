"""Restarted solvers for shifted families of sparse linear systems.

Given one matrix A and shifts sigma_1..sigma_nu, all systems

    (A - sigma_i I) x_i = b

share every Krylov basis built here, because Krylov subspaces are
invariant under diagonal shifts.  Each restart cycle runs m steps of a
basis process (pivoted Hessenberg or Arnoldi), then solves one m x m
reduced system per shift at O(m^2) cost.  The Galerkin residual of every
shift is a scalar multiple of the same (m+1)-th basis vector, so a
restart keeps all residuals collinear with the new start vector and only
one scalar per shift has to be carried across cycles.  Matrix-vector
products are therefore paid once per cycle, independent of the number of
shifts.

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
    "ShiftFamily",
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
    true_residual_check : bool
        When True (default), an estimate at or below ``tol`` is confirmed
        by one true residual evaluation before the shift is retired.
    """

    m: int = 30
    tol: float = 1e-8
    max_mvps: int = 4000
    true_residual_check: bool = True

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


class ShiftFamily:
    """Active-set bookkeeping for a family of shifts.

    Tracks which shifts still iterate and, for each, the scalar
    ``beta_coeffs[i]`` such that its residual equals that scalar times
    the shared pending start vector.  A shift whose residual has lost
    collinearity (after a skipped cycle) carries an explicit residual
    vector in ``anchors[i]`` instead.
    """

    def __init__(self, shifts):
        shifts = list(shifts)
        if not shifts:
            raise InvalidDimensions("at least one shift is required")
        self.shifts = [_as_scalar_shift(s) for s in shifts]
        self.active = list(range(len(shifts)))
        self.beta_coeffs = [1.0] * len(shifts)
        self.anchors = [None] * len(shifts)

    def __len__(self):
        return len(self.shifts)

    def retire(self, i):
        self.active.remove(i)


@dataclass
class CycleInfo:
    """Snapshot handed to the ``on_cycle`` callback after each cycle.

    Arrays are live views into solver state; treat them as read-only.
    """

    cycle: int
    decomposition: object
    shifts: list
    active_before: tuple
    active_after: tuple
    solutions: list
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

    family = ShiftFamily(shifts)
    nu = len(family)
    histories = [ShiftHistory(shift=s) for s in family.shifts]
    if not np.all(np.isfinite(family.shifts)):
        raise NonFiniteInput("a shift is not finite")

    if x0 is not None and np.any(x0):
        x0 = np.asarray(x0)
        if x0.shape != b.shape:
            raise DimensionMismatch(
                f"initial guess of shape {x0.shape} does not match {b.shape}"
            )
        if not np.all(np.isfinite(x0)):
            raise NonFiniteInput("initial guess has a non-finite entry")
        r0 = b - (A @ x0)
        base = x0
    else:
        op_dtype = getattr(A, "dtype", np.float64)
        r0 = b.astype(np.result_type(b.dtype, op_dtype, np.float64), copy=True)
        base = None

    r0norm = float(np.linalg.norm(r0))
    xs = []
    for s in family.shifts:
        dtype = np.result_type(r0.dtype, np.asarray(s).dtype)
        xs.append(np.zeros(n, dtype=dtype))
    for h in histories:
        h.estimates.append(r0norm / bnorm)

    def full_solution(i):
        return xs[i] if base is None else base + xs[i]

    report = SolveReport(
        solver=solver_name,
        n=n,
        nnz=getattr(A, "nnz", 0),
        m=m,
        shifts=histories,
    )

    def retire(i, final_value):
        histories[i].converged = True
        histories[i].final_relative_residual = final_value
        family.retire(i)

    def note_estimate(hist, est):
        hist.estimates.append(est)
        e = hist.estimates
        if len(e) > _STAGNATION_WINDOW:
            ref = e[-1 - _STAGNATION_WINDOW]
            if abs(e[-1] - ref) <= _STAGNATION_RTOL * ref:
                hist.stagnated = True

    v = r0
    consecutive_all_skipped = 0
    while family.active and report.basis_mvps + m <= cfg.max_mvps:
        dec = runner(A, v, m, breakdown_tol)
        report.basis_mvps += dec.steps
        k = dec.steps
        H = dec.square_h
        lnext = dec.last_vector
        lnorm = float(np.linalg.norm(lnext)) if lnext is not None else 0.0

        active_before = tuple(family.active)
        skipped_now = []
        cycle_estimates = [None] * nu
        for i in active_before:
            hist = histories[i]
            hist.cycles += 1
            sigma = family.shifts[i]
            try:
                if family.anchors[i] is None:
                    rhs_scale = family.beta_coeffs[i] * dec.beta
                    y = solve_shifted_hessenberg(H, sigma, rhs_scale)
                    xs[i] += dec.basis[:, :k] @ y
                    cnew = collinearity_scalar(dec.subdiag, y)
                    family.beta_coeffs[i] = cnew
                    est = float(abs(cnew)) * lnorm / bnorm
                else:
                    r = family.anchors[i]
                    z = _project_residual(dec, r, process)
                    Hs = np.array(H, dtype=np.result_type(H.dtype, np.asarray(sigma).dtype))
                    idx = np.arange(k)
                    Hs[idx, idx] -= sigma
                    y = solve_hessenberg(Hs, z)
                    xs[i] += dec.basis[:, :k] @ y
                    r = r - dec.basis[:, :k] @ (H @ y - sigma * y)
                    if not dec.breakdown:
                        r = r - dec.subdiag * y[-1] * lnext
                    family.anchors[i] = r
                    est = float(np.linalg.norm(r)) / bnorm
            except SingularReducedSystem:
                skipped_now.append(i)
                hist.skipped_cycles += 1
                if family.anchors[i] is None:
                    scale = family.beta_coeffs[i] * dec.beta
                    family.anchors[i] = scale * dec.basis[:, 0]
                est = float(np.linalg.norm(family.anchors[i])) / bnorm
                note_estimate(hist, est)
                cycle_estimates[i] = est
                continue
            note_estimate(hist, est)
            cycle_estimates[i] = est
            if est <= cfg.tol:
                if cfg.true_residual_check:
                    report.residual_mvps += 1
                    tr = _relative_residual(A.__matmul__, sigma, full_solution(i), b, bnorm)
                    if tr <= cfg.tol:
                        retire(i, tr)
                else:
                    # Retired on the estimate alone; the reported final
                    # residual is still filled with the true one at exit,
                    # outside the product count.
                    retire(i, np.nan)

        report.cycles += 1
        if on_cycle is not None:
            on_cycle(
                CycleInfo(
                    cycle=report.cycles,
                    decomposition=dec,
                    shifts=list(family.shifts),
                    active_before=active_before,
                    active_after=tuple(family.active),
                    solutions=xs,
                    estimates=cycle_estimates,
                    skipped=tuple(skipped_now),
                )
            )

        if skipped_now and len(skipped_now) == len(active_before):
            consecutive_all_skipped += 1
            if consecutive_all_skipped >= _STALL_LIMIT:
                report.wall_time_s = time.perf_counter() - t_start
                _finalize(A, family, histories, full_solution, b, bnorm)
                exc = AllShiftsStalled(
                    f"every active shift produced a singular reduced system for "
                    f"{_STALL_LIMIT} consecutive cycles"
                )
                exc.report = report
                raise exc
        else:
            consecutive_all_skipped = 0

        if dec.breakdown:
            # The subspace became invariant: collinear shifts were solved
            # exactly this cycle and there is no vector to restart from.
            report.breakdown = True
            break
        v = lnext

    _finalize(A, family, histories, full_solution, b, bnorm)
    report.wall_time_s = time.perf_counter() - t_start
    return [full_solution(i) for i in range(nu)], report


def _finalize(A, family, histories, full_solution, b, bnorm):
    """Fill outstanding final residuals, outside the product count."""
    apply = getattr(A, "_apply", A.__matmul__)
    for i, hist in enumerate(histories):
        if hist.converged and np.isfinite(hist.final_relative_residual):
            continue
        hist.final_relative_residual = _relative_residual(
            apply, family.shifts[i], full_solution(i), b, bnorm
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
