"""The four benchmark workloads: seeded inputs, the timed call, the check.

Each workload drives the public API of ``shiftkrylov`` with one caller in
a closed loop.  ``setup`` runs the program's own set-up calls and returns
their timings, in process CPU seconds; ``inputs`` yields the call inputs
of one seed; ``call`` is the only part that is timed; ``check`` is the
benchmark's independent correctness check, computed without the
package's own residual or reference code.  Why each workload exists is in ``NOTES.md``.
"""

import os
import time

import mpmath
import numpy as np
import scipy.fft
import scipy.sparse

import shiftkrylov as sk

# Seed streams: the timed calls and the warm-up draw from disjoint streams.
TIMED, WARMUP = 0, 1

# A recomputed residual may exceed the solver's confirmed one by rounding
# in a different summation order; 1e-6 relative is far above that and far
# below any real miss.
_RESIDUAL_SLACK = 1.0 + 1e-6


class CallResult:
    """Outcome of one checked call.

    ``units`` counts the units of work that passed the check (shifted
    systems, or one scalar evaluation); ``ok`` is False when the call
    raised, left a shift unconverged, or missed the check.
    """

    def __init__(self, ok, units, cycles=None, mvps=None, error=None, detail=None):
        self.ok = ok
        self.units = units
        self.cycles = cycles
        self.mvps = mvps
        self.error = error
        self.detail = detail if detail is not None else {}


def _rng(seed, stream, index):
    return np.random.default_rng([seed, stream, index])


def scipy_csr(A):
    """Plain ``scipy.sparse`` copy of a CsrMatrix, built from its arrays."""
    return scipy.sparse.csr_matrix(
        (A.values.copy(), A.col_idx.copy(), A.row_ptr.copy()), shape=A.shape
    )


def relative_residuals(S, b, shifts, xs):
    """``||b - (S - sigma I) x|| / ||b||`` per shift, with plain scipy."""
    bnorm = np.linalg.norm(b)
    return [float(np.linalg.norm(b - (S @ x - s * x)) / bnorm) for s, x in zip(shifts, xs)]


# -- convdiff ------------------------------------------------------------

CONVDIFF_GRID = (30, 1.0, (0.0, 111.8, 223.6), 400.0)
CONVDIFF_SHIFTS = "arith:1e-3:8"


class ConvDiff:
    """One shifted family on the paper's convection-diffusion operator."""

    block_size = 1

    def __init__(self, name, solver):
        self.name = name
        self.solver = solver
        self.span_name = f"solvers.{solver.__name__}"
        self.cfg = sk.SolverConfig(m=30, tol=1e-8)

    def setup(self, out_dir):
        t0 = time.process_time()
        self.A = sk.gen_convdiff3d(*CONVDIFF_GRID)
        self.shifts = sk.gen_shifts(CONVDIFF_SHIFTS)
        gen_s = time.process_time() - t0
        self.S = scipy_csr(self.A)
        return {"problems.gen_s": gen_s}

    def inputs(self, seed, stream=TIMED):
        i = 0
        while True:
            yield _rng(seed, stream, i).standard_normal(self.A.shape[0])
            i += 1

    def call(self, op, b):
        return self.solver(op, b, self.shifts, self.cfg)

    def check(self, b, out, family=None):
        xs, report = out
        rr = relative_residuals(self.S, b, self.shifts, xs)
        passed = [h.converged and r <= self.cfg.tol * _RESIDUAL_SLACK
                  for h, r in zip(report.shifts, rr)]
        return CallResult(all(passed), sum(passed), report.cycles, report.total_mvps,
                          detail={"report": report, "true_residuals": rr})


# -- matfunc-exp ---------------------------------------------------------

LAPLACE_N = 40


def laplace2d_exp_reference(n, u0, scale=1.0):
    """Exact ``exp(-A) u0`` for ``A = gen_laplace2d(n, scale)``.

    The five-point Laplacian is diagonalized by the orthonormal DST-I in
    each direction, with eigenvalues ``a*(4 - 2 cos(j pi h) - 2 cos(k pi h))``,
    so the action costs two transforms: O(n^2 log n).
    """
    h = 1.0 / (n + 1)
    a = scale / h**2
    c = 2.0 * np.cos(np.arange(1, n + 1) * np.pi * h)
    lam = a * (4.0 - c[:, None] - c[None, :])
    # unknowns are x-fastest, so row j of the (n, n) view is one y line
    U = np.asarray(u0, dtype=np.float64).reshape(n, n)
    W = scipy.fft.dstn(U, type=1, norm="ortho")
    return scipy.fft.idstn(np.exp(-lam) * W, type=1, norm="ortho").ravel()


class MatfuncExp:
    """``exp(-A) u0`` through the ``matfunc`` CLI path on laplace2d(40)."""

    # The 16-node rule and the 1e-10 solver tolerance leave an error near
    # 1.1e-11 of |u0| on this operator.
    error_tol = 1e-10
    block_size = 1
    span_name = "matfunc.eval_rational_action"

    def __init__(self):
        self.name = "matfunc-exp"
        self.cfg = sk.SolverConfig(m=30, tol=1e-10, max_mvps=4000)

    def setup(self, out_dir):
        path = os.path.join(out_dir, f"laplace2d-{LAPLACE_N}-{os.getpid()}.mtx")
        t0 = time.process_time()
        A = sk.gen_laplace2d(LAPLACE_N)
        t1 = time.process_time()
        sk.save_matrix_market(A, path)
        t2 = time.process_time()
        self.A = sk.load_matrix_market(path)
        t3 = time.process_time()
        self.rule = sk.load_quadrature(sk.packaged_rule_path("exp"), kind="exp")
        t4 = time.process_time()
        file_bytes = os.path.getsize(path)
        os.remove(path)
        self.S = scipy_csr(self.A)
        return {"problems.gen_s": t1 - t0, "mmio.save_s": t2 - t1, "mmio.load_s": t3 - t2,
                "matfunc.rule_load_s": t4 - t3, "mmio.file_bytes": file_bytes}

    def inputs(self, seed, stream=TIMED):
        i = 0
        while True:
            yield _rng(seed, stream, i).standard_normal(self.A.shape[0])
            i += 1

    def call(self, op, u0):
        return sk.eval_rational_action(op, u0, self.rule, self.cfg, return_report=True)

    def check(self, u0, out, family=None):
        y, report = out
        ref = laplace2d_exp_reference(LAPLACE_N, u0)
        # exp(-A) u0 is about 1e-9 |u0| here, so the error is measured
        # against the input, as the CLI's --check-dense does
        err = float(np.linalg.norm(y - ref) / np.linalg.norm(u0))
        ok = report.all_converged and err <= self.error_tol
        detail = {"report": report, "rel_error": err}
        if family is not None:
            # the traced run sees the inner family solve's solutions
            xs, _ = family
            shifts = [-z for z in self.rule.nodes]
            detail["true_residuals"] = relative_residuals(self.S, u0, shifts, xs)
        return CallResult(ok, self.rule.nu if ok else 0, report.cycles,
                          report.total_mvps, detail=detail)


# -- ml-scalar -----------------------------------------------------------

ML_GAMMAS = (0.6, 0.8, 0.9)
ML_DECADES = (-1, 0, 1)  # |z| in [0.1, 1), [1, 10), [10, 100)
ML_PER_CELL = 20  # draws per (gamma, decade) cell and block
_GOLDEN = (5**0.5 - 1) / 2


def ml_block(seed, stream, block):
    """One stratified block of ``(gamma, z)`` inputs in shuffled order.

    Each (gamma, decade) cell gets ``ML_PER_CELL`` draws, one in each of
    equal sub-intervals of ``log10 |z|``, so every block fills every cell
    equally.  Within a sub-interval the position is a seeded phase plus
    ``block`` steps of the golden ratio, modulo one, so the blocks of a
    run spread evenly over it.  The cost of one call climbs steeply with
    ``|z|`` and drops at the series radius; independent positions would
    let a few draws decide the run's total time.  ``z`` lies on the
    negative real axis.
    """
    phase = np.random.default_rng([seed, stream]).random(
        (len(ML_GAMMAS), len(ML_DECADES), ML_PER_CELL))
    u = (phase + block * _GOLDEN) % 1.0
    out = []
    for gi, g in enumerate(ML_GAMMAS):
        for di, d in enumerate(ML_DECADES):
            logs = d + (np.arange(ML_PER_CELL) + u[gi, di]) / ML_PER_CELL
            out.extend((g, -float(10.0**t)) for t in logs)
    order = _rng(seed, stream, block).permutation(len(out))
    return [out[k] for k in order]


def talbot_rule(dps=30):
    """Nodes and weights of ``mpmath.invertlaplace(method='talbot')`` at
    ``t = 1`` for a ``dps``-digit result (fixed Talbot, Abate and Valko
    2004): ``f(1) = Re sum_k weights[k] * F(nodes[k])``.

    Returns ``(work_dps, nodes, weights)``, the working precision mpmath
    raises to and the rule at that precision.
    """
    work = int(1.72 * dps)
    M = max(12, int(1.38 * work))
    with mpmath.workdps(work):
        r = mpmath.fraction(2, 5) * M
        nodes, weights = [mpmath.mpc(r)], [mpmath.exp(r) / 2]
        for i in range(1, M):
            theta = mpmath.pi * i / M
            cot = mpmath.cot(theta)
            nodes.append(r * theta * (cot + 1j))
            weights.append(mpmath.exp(nodes[-1])
                           * (1 + 1j * theta * (1 + cot**2) - 1j * cot))
        weights = [w * 2 / 5 for w in weights]
    return work, nodes, weights


class MlReference:
    """``E_gamma(-x)`` as the 30-digit Talbot inverse Laplace transform of
    ``s**(gamma-1) / (s**gamma + x)`` at ``t = 1``.

    The same sum as ``mpmath.invertlaplace(F, 1, method='talbot')`` at 30
    digits; the powers of the nodes depend only on gamma, so they are
    computed once per gamma and a reference costs about 70 divisions.
    """

    def __init__(self, dps=30):
        self.work, self.nodes, self.weights = talbot_rule(dps)
        self._powers = {}

    def __call__(self, z, gamma):
        with mpmath.workdps(self.work):
            if gamma not in self._powers:
                self._powers[gamma] = [(w * p**gamma / p, p**gamma)
                                       for w, p in zip(self.weights, self.nodes)]
            x = mpmath.mpf(-z)
            return float(mpmath.fsum(a / (b + x) for a, b in self._powers[gamma]).real)


class MlScalar:
    """One scalar ``mittag_leffler(z, gamma)`` per call."""

    rel_tol = 1e-12
    block_size = len(ML_GAMMAS) * len(ML_DECADES) * ML_PER_CELL
    span_name = "matfunc.mittag_leffler"
    # mittag_leffler sums the series up to this |z|, the expansion beyond
    series_radius = 30.0

    def __init__(self):
        self.name = "ml-scalar"
        self._reference = MlReference()
        self._refs = {}

    def setup(self, out_dir):
        return {}

    def inputs(self, seed, stream=TIMED):
        b = 0
        while True:
            yield from ml_block(seed, stream, b)
            b += 1

    def call(self, op, inp):
        gamma, z = inp
        return sk.mittag_leffler(z, gamma)

    def check(self, inp, out, family=None):
        # a traced replay checks the same inputs again
        if inp not in self._refs:
            self._refs[inp] = self._reference(inp[1], inp[0])
        ref = self._refs[inp]
        err = abs(out - ref) / abs(ref)
        ok = bool(np.isfinite(out)) and err <= self.rel_tol
        return CallResult(ok, 1 if ok else 0,
                          detail={"rel_error": err, "value": out, "z": inp[1]})


def make(name):
    if name == "convdiff-shessen":
        return ConvDiff(name, sk.solve_shifted_hessen)
    if name == "convdiff-sfom":
        return ConvDiff(name, sk.solve_shifted_fom)
    if name == "matfunc-exp":
        return MatfuncExp()
    if name == "ml-scalar":
        return MlScalar()
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("convdiff-shessen", "convdiff-sfom", "matfunc-exp", "ml-scalar")
