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
those of all active shifts as one stack, through the one Schur form of
``H`` that the decomposition caches and the next thick restart reorders,
and adds their corrections to the iterates in one product with the
basis.

When the operator, the right-hand side and any initial guess are real,
the shift conj(sigma) has the solution conj(x) when sigma has x.  Each
shift is then paired, once per solve, with an exactly equal conjugate
later in the list, and a pair is solved as one class: one row of the
reduced stack, one residual scalar, one retirement.  For the
conjugate-symmetric quadrature rules of :mod:`shiftkrylov.matfunc` that
halves the reduced work.  The solve keeps one iterate row and one
:class:`ShiftHistory` per class, and builds the per-shift results only
at return: a partner's iterate is the exact conjugate of its
representative's, and its record a copy with its own shift.  On a real
basis a complex correction is formed as two real products, one for its
real and one for its imaginary part, rather than one complex product
that would upcast the basis.  Complex data, or a family without pairs,
uses the same loop with every shift its own class.

Both processes restart thick, keeping wanted spectral information
across cycles.  At the end of a cycle ``A V = V H + v b^T``, with ``v``
the last basis vector and every active residual a multiple ``coef * v``.
The Krylov-Schur step of :mod:`~shiftkrylov.processes` keeps the k =
m // 3 Ritz values of ``H`` of smallest modulus (a conjugate pair whole,
so k may become k + 1), and for the pivoted solver
:func:`~shiftkrylov.processes.thick_restart` refactors what it keeps
into a unit lower trapezoidal basis.  The next cycle continues from
column k + 1, paying m - k products instead of m, with an ``H`` full in
its leading block, which the stacked solve reads as it is.  The
decomposition is one of ``A`` alone, so it serves every shift: the
right-hand side of each collinear class is ``coef`` times the start
coordinates ``g`` (``beta e1`` after a plain restart), padded with
zeros, and the Ritz selection ignores the shifts, so the products stay
independent of their number.  When the restart gives no
well-conditioned kept block (see ``thick_restart``), or k is 0 (m < 3),
the cycle restarts plain from ``v``.

Per-shift residual norm estimates come free from the collinearity
scalar; an estimate crossing the tolerance is confirmed with one true
residual evaluation per class before the class is retired: a folded
partner's residual is the exact conjugate of its representative's, so
its norm is bitwise the same.  The tolerance may be given per shift; a
folded pair is then held to the smaller of its two values.  A shift
whose estimate overflows or becomes NaN is retired unconverged, with
``ShiftHistory.diverged`` set.  The final residual of a class that did
not converge is evaluated once at return, with ``A @`` like every other
product, but left out of the report's count.

A shift whose reduced system is numerically singular gets no update and
is retired unconverged in that cycle, with ``ShiftHistory.skipped_cycles``
1: its residual stays ``coef`` times this cycle's start vector, no
multiple of the next one, and its estimate repeats.  A cycle that retires
every active shift this way ends the solve with ``SolveReport.stalled``.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidDimensions,
    NonFiniteInput,
    SingularReducedSystem,
    ZeroStartVector,
    _count,
)
# bench/tracing.py wraps all three here by name, solve_hessenberg though unused
from .reduced import collinearity_scalar, solve_hessenberg, solve_shifted_hessenberg
from .processes import (
    _check_start,
    _krylov_schur,
    run_arnoldi,
    run_hessenberg,
    thick_restart,
)

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


@dataclass
class SolverConfig:
    """Knobs shared by all restarted solvers.

    Attributes
    ----------
    m : int
        Basis size per restart cycle.
    tol : float or (nu,) array_like
        Convergence threshold on the relative residual
        ||b - (A - sigma I) x|| / ||b||: one positive finite value shared
        by every shift, or one per shift, in the order of the shifts.  A
        folded conjugate pair (see the module docstring) is held to the
        smaller of its two values.
    max_mvps : int
        Budget of basis matrix-vector products; a new cycle starts only
        while it still fits: m products after a plain restart, m - k
        after a thick restart that kept k columns (see the module
        docstring).
    """

    m: int = 30
    tol: float | np.ndarray = 1e-8
    max_mvps: int = 4000

    def validate(self):
        _count(self.m, 1, InvalidDimensions,
               f"cycle length m={self.m!r} must be a positive integer")
        tol = np.asarray(self.tol)
        if (tol.dtype.kind not in "iuf" or tol.ndim > 1 or tol.size == 0
                or not np.all((tol > 0) & (tol < np.inf))):
            raise InvalidDimensions(
                f"tolerance {self.tol!r} must be positive and finite, a scalar "
                f"or a 1-d array with one value per shift"
            )
        _count(self.max_mvps, 0, InvalidDimensions,
               f"max_mvps {self.max_mvps!r} must be a nonnegative integer")


@dataclass
class ShiftHistory:
    """Convergence record of one shift.

    ``estimates[0]`` is the initial relative residual; one entry is
    appended per cycle in which the shift was active.  ``skipped_cycles``
    is 1 when the shift was retired, unconverged, at a singular reduced
    system (its last estimate repeats the one before), else 0.
    ``diverged`` is True when the shift was retired, unconverged, because
    its estimate overflowed or became NaN.
    """

    shift: complex
    converged: bool = False
    cycles: int = 0
    skipped_cycles: int = 0
    estimates: list = field(default_factory=list)
    final_relative_residual: float = np.nan
    stagnated: bool = False
    diverged: bool = False

    def __repr__(self):
        state = ("converged" if self.converged
                 else "diverged" if self.diverged else "not converged")
        return (
            f"<ShiftHistory shift={self.shift}, {state} after {self.cycles} "
            f"cycles, final={self.final_relative_residual:.3e}>"
        )


@dataclass
class CycleInfo:
    """Snapshot handed to the ``on_cycle`` callback after each cycle.

    ``decomposition`` is the cycle's live basis; treat it as read-only.
    ``solutions`` is a (nu, n) array of iterates, row ``i`` for shift
    ``i`` (the correction to ``x0`` when one was given).  The solver
    stores one row per conjugate class (see the module docstring); this
    per-shift view is assembled for the callback only, so a solve
    without ``on_cycle`` never builds it.  Shift indices are used
    throughout: ``estimates[i]`` is None for a shift retired before the
    cycle, and ``skipped`` lists the shifts retired at a singular reduced
    system in the cycle, both shifts of a folded pair.
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
    """Cost and convergence summary of one family solve.

    ``breakdown`` is True when the basis became invariant and the solve
    ended there; ``budget_exhausted`` is True when it stopped with shifts
    still active because the next cycle would exceed ``max_mvps``;
    ``stalled`` is True when one cycle retired every shift still active
    at a singular reduced system, which ends the solve.
    ``kept`` has one entry per cycle: the columns it continued from a
    thick restart, or 0 for a fresh cycle (the first, and one after a
    restart that fell back to plain).
    Such a cycle took ``m - kept[i]`` basis products unless it broke down.
    ``shifts`` holds one :class:`ShiftHistory` per shift, in the order of
    the shifts; a folded partner's is a copy of its representative's
    with its own ``shift`` and its own ``estimates`` list.
    """

    solver: str
    n: int
    nnz: int
    m: int
    shifts: list
    cycles: int = 0
    basis_mvps: int = 0
    residual_mvps: int = 0
    breakdown: bool = False
    budget_exhausted: bool = False
    stalled: bool = False
    predicted_flops: int | None = None
    kept: list = field(default_factory=list)

    @property
    def total_mvps(self):
        """All counted products: basis work, residual confirmations and
        the initial residual of a nonzero initial guess.

        The final residual of each class that did not converge (one per
        folded pair, see the module docstring) is left out, so the
        operator sees one product more per such class."""
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
    if not np.any(b):
        raise ZeroStartVector("right-hand side is identically zero")
    r = b - (A @ x - _as_scalar_shift(sigma) * x)
    return float(np.linalg.norm(r) / np.linalg.norm(b))


def _conjugate_classes(shifts, fold):
    """Group a family into classes that share one reduced solve and one row.

    Returns ``(cls, flip)``: the class of every shift, numbered in order of
    first appearance, and True where a shift's solution is the conjugate
    of its class's row.  With ``fold`` (real operator, right-hand side and
    initial guess) a complex shift joins the earliest unpaired class whose
    shift is exactly its conjugate; otherwise, and for real shifts, every
    shift is a class of its own.
    """
    cls, flip, p = [], [], 0
    waiting = {}  # conjugate of an unpaired class's shift -> those classes
    for s in shifts:
        pairable = fold and isinstance(s, complex)
        partners = waiting.get(s) if pairable else None
        if partners:
            cls.append(partners.pop(0))
            flip.append(True)
            continue
        if pairable:
            waiting.setdefault(s.conjugate(), []).append(p)
        cls.append(p)
        flip.append(False)
        p += 1
    return cls, flip


class _DenseOperator:
    """A dense matrix and the norm its family solve read once, so that no
    run reduces all n^2 entries again."""

    def __init__(self, A, norm_scale):
        self.shape, self.dtype, self._A = A.shape, A.dtype, A
        self.norm_inf = lambda: norm_scale

    def __matmul__(self, x):
        return self._A @ x


def _thick_keep(m):
    """Ritz values the thick restart of an m-step cycle keeps."""
    return m // 3


def _solve_family(A, b, shifts, cfg, process, x0=None, on_cycle=None, solver_name=""):
    cfg = cfg if cfg is not None else SolverConfig()
    cfg.validate()
    b = np.asarray(b)
    # b passes the checks of every cycle's start vector, the operator's
    # norm among them, and is the first start vector when there is no
    # initial guess
    r0, n, _, _, norm_scale = _check_start(A, b, 1)
    if isinstance(A, np.ndarray):
        A = _DenseOperator(A, norm_scale)
    bnorm = float(np.linalg.norm(b))
    # looked up per call: bench/tracing.py wraps the runners by name
    runner, restart = {"hessenberg": (run_hessenberg, thick_restart),
                       "arnoldi": (run_arnoldi, _krylov_schur)}[process]
    # a basis cannot have more than n vectors; clamp rather than reject so
    # the default cycle length works on small matrices
    m = min(cfg.m, n)
    keep = _thick_keep(m)

    shifts = [_as_scalar_shift(s) for s in shifts]
    if not shifts:
        raise InvalidDimensions("at least one shift is required")
    sigmas = np.array(shifts)
    if not np.all(np.isfinite(sigmas)):
        raise NonFiniteInput("a shift is not finite")
    nu = len(shifts)
    if np.ndim(cfg.tol) and np.size(cfg.tol) != nu:
        raise DimensionMismatch(f"{np.size(cfg.tol)} tolerances given for {nu} shifts")
    tols = np.broadcast_to(np.asarray(cfg.tol, dtype=float), nu)

    base = None
    if x0 is not None:
        x0 = np.asarray(x0)
        if x0.shape != b.shape:
            raise DimensionMismatch(
                f"initial guess of shape {x0.shape} does not match {b.shape}"
            )
        if not np.all(np.isfinite(x0)):
            raise NonFiniteInput("initial guess has a non-finite entry")
        if np.any(x0):
            base, r0 = x0, b - (A @ x0)

    r0norm = float(np.linalg.norm(r0))
    # The family is solved in classes: a shift and its exact conjugate
    # form one class on real data, every other shift a class of its own.
    # Class c has one record, hist[c], and one row, X[c], its correction
    # to x0; its representative reps[c] is its first shift.  The residual
    # of a live class is coef[c] times the pending start vector.
    real_data = np.isrealobj(r0)
    cls, flip = _conjugate_classes(shifts, real_data)
    cls = np.array(cls)
    reps = np.unique(cls, return_index=True)[1]
    p = reps.size
    # a class is held to the smallest of its members' tolerances
    class_tol = np.full(p, np.inf)
    np.minimum.at(class_tol, cls, tols)
    hist = [ShiftHistory(shift=shifts[i], estimates=[r0norm / bnorm]) for i in reps]
    X = np.zeros((p, n), dtype=np.result_type(r0.dtype, sigmas.dtype))
    coef = np.ones(p, dtype=X.dtype)
    live = np.ones(p, dtype=bool)

    def solution(i, offset=base):
        """Shift i's iterate: its class's row, as the conjugate for a
        folded partner, plus ``offset``."""
        x = X[cls[i]]
        if real_data and np.isrealobj(shifts[i]):
            # real shifts on real data keep real solutions in a complex family
            x = x.real
        elif flip[i]:
            x = x.conj()
        return x if offset is None else offset + x

    def residual(c):
        # a folded partner's residual is the exact conjugate of its
        # representative's, so its norm is bitwise the same
        i = reps[c]
        return true_relative_residual(A, shifts[i], solution(i), b)

    def expand(mask):
        """The shifts of the classes in ``mask``."""
        return tuple(np.flatnonzero(mask[cls]).tolist())

    report = SolveReport(
        solver=solver_name,
        n=n,
        nnz=getattr(A, "nnz", 0),
        m=m,
        shifts=[],
        residual_mvps=int(base is not None),
    )

    v = r0
    dec = seed = None
    while live.any():
        if keep and dec is not None:
            seed = restart(dec, keep)
        kept = 0 if seed is None else seed.steps
        if report.basis_mvps + m - kept > cfg.max_mvps:
            report.budget_exhausted = True
            break
        report.kept.append(kept)
        # the last cycle's basis is not read again: dropping it before the
        # run, and the seed after it, keeps one basis alive at a time
        dec = V = lnext = None
        dec, seed = runner(A, v, m, start=seed), None
        report.basis_mvps += dec.steps - kept
        k = dec.steps
        H = dec.square_h
        V = dec.basis[:, :k]
        lnext = dec.last_vector
        lnorm = float(np.linalg.norm(lnext)) if lnext is not None else 0.0

        before = live.copy()
        rows = np.flatnonzero(before)
        # one stacked reduced solve for every live class, whose right-hand
        # side is coef times the start coordinates
        g = dec.g
        G = np.zeros((rows.size, k), dtype=X.dtype)
        G[:, : g.size] = coef[rows, None] * g
        skipped = np.zeros(p, dtype=bool)
        try:
            Y = solve_shifted_hessenberg(H, sigmas[reps[rows]], G, schur=dec.schur)
        except SingularReducedSystem as exc:
            Y = exc.solution
            skipped[rows[exc.singular]] = True
        solved = ~skipped[rows]
        done, Y = rows[solved], Y[solved]
        coef[done] = collinearity_scalar(dec.subdiag, Y)
        # updating the whole block through a slice avoids a gathered copy
        upd = done if done.size < p else slice(None)
        if np.isrealobj(V) and np.iscomplexobj(Y):
            # two real products instead of upcasting the real basis
            X.real[upd] += Y.real @ V.T
            X.imag[upd] += Y.imag @ V.T
        else:
            X[upd] += Y @ V.T

        for c, size, skip in zip(rows.tolist(), np.abs(coef[rows]).tolist(),
                                 skipped[rows].tolist()):
            h, e = hist[c], hist[c].estimates
            # a skipped class is not updated: its residual coef * v repeats
            est = e[-1] if skip else size * lnorm / bnorm
            h.cycles += 1
            h.skipped_cycles += skip
            e.append(est)
            if len(e) > _STAGNATION_WINDOW:
                ref = e[-1 - _STAGNATION_WINDOW]
                h.stagnated |= abs(est - ref) <= _STAGNATION_RTOL * ref
            if skip:
                live[c] = False
            elif not math.isfinite(est):
                # an overflowed iterate cannot recover: retire the class
                h.diverged = True
                live[c] = False
            elif est <= class_tol[c]:
                # one product confirms the class
                tr = residual(c)
                report.residual_mvps += 1
                if tr <= class_tol[c]:
                    h.converged, h.final_relative_residual = True, tr
                    live[c] = False

        report.cycles += 1
        if on_cycle is not None:
            on_cycle(
                CycleInfo(
                    cycle=report.cycles,
                    decomposition=dec,
                    shifts=list(shifts),
                    active_before=expand(before),
                    active_after=expand(live),
                    solutions=np.array([solution(i, None) for i in range(nu)]),
                    estimates=[hist[c].estimates[-1] if before[c] else None for c in cls],
                    skipped=expand(skipped),
                )
            )

        if not solved.any():
            report.stalled = True
            break

        if dec.breakdown:
            # The subspace became invariant: collinear shifts were solved
            # exactly this cycle and there is no vector to restart from.
            report.breakdown = True
            break
        # a copy, so the basis it came from can be freed
        v = lnext.copy()

    # the final residual of an unconverged class is left out of the count
    for c, h in enumerate(hist):
        if not h.converged:
            h.final_relative_residual = residual(c)
    report.shifts = [replace(hist[c], shift=s, estimates=list(hist[c].estimates))
                     for s, c in zip(shifts, cls)]
    return [solution(i) for i in range(nu)], report


def solve_hessen(A, b, x0=None, cfg=None, on_cycle=None):
    """Solve ``A x = b`` by the restarted pivoted Hessenberg method.

    Parameters
    ----------
    A : operator
        Square sparse matrix or operator supporting ``A @ x``; ``shape``,
        ``dtype``, ``nnz`` and ``norm_inf`` are read where present.  The
        norm of a dense ``numpy`` array is reduced once per solve.
    b : (n,) array_like
        Nonzero right-hand side.
    x0 : (n,) array_like, optional
        Initial guess; a nonzero guess costs one extra matrix-vector
        product for the initial residual, counted in ``residual_mvps``.
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
