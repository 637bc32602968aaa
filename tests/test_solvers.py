from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import shiftkrylov.processes as processes_mod
import shiftkrylov.reduced as reduced_mod
import shiftkrylov.solvers as solvers_mod
from shiftkrylov import (
    CsrMatrix,
    DimensionMismatch,
    InvalidDimensions,
    NonFiniteInput,
    SingularReducedSystem,
    SolverConfig,
    ZeroStartVector,
    gen_convdiff3d,
    gen_laplace2d,
    gen_shifts,
    identity,
    solve_hessen,
    solve_shifted_fom,
    solve_shifted_hessen,
    true_relative_residual,
    verify_decomposition,
)


def csr_from_dense(M):
    rows, cols = np.nonzero(M)
    return CsrMatrix.from_triplets(rows, cols, np.asarray(M)[rows, cols], M.shape)


def laplace1d(n):
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.append(i)
        cols.append(i)
        vals.append(2.0)
        if i + 1 < n:
            rows += [i, i + 1]
            cols += [i + 1, i]
            vals += [-1.0, -1.0]
    return CsrMatrix.from_triplets(rows, cols, vals, (n, n))


def random_system(seed, n=80, density=0.08):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    M += np.diag(6.0 + rng.standard_normal(n))
    return csr_from_dense(M), rng.standard_normal(n)


def test_single_system_matches_dense():
    A, b = random_system(0)
    x, report = solve_hessen(A, b, cfg=SolverConfig(m=20, tol=1e-10))
    assert report.all_converged
    assert_allclose(x, np.linalg.solve(A.toarray(), b), rtol=1e-7)
    assert report.shifts[0].final_relative_residual <= 1e-10


def test_initial_guess_costs_one_product():
    A, b = random_system(1)
    x_ref, rep_ref = solve_hessen(A, b, cfg=SolverConfig(m=20, tol=1e-10))
    x0 = np.linalg.solve(A.toarray(), b) + 1e-3
    A.counter.reset()
    x, rep = solve_hessen(A, b, x0=x0, cfg=SolverConfig(m=20, tol=1e-10))
    assert_allclose(x, x_ref, atol=1e-8 * np.linalg.norm(x_ref))
    # the report counts every product, the initial residual's included
    assert A.counter.count == rep.total_mvps
    # one extra product for the initial residual; a strong guess then
    # needs fewer cycles
    assert rep.total_mvps <= rep_ref.total_mvps
    assert rep.cycles < rep_ref.cycles
    # an identically zero guess is the default path
    xz, rep_z = solve_hessen(A, b, x0=np.zeros_like(b), cfg=SolverConfig(m=20, tol=1e-10))
    assert rep_z.total_mvps == rep_ref.total_mvps
    assert_allclose(xz, x_ref, atol=0)


def test_family_matches_dense_per_shift():
    A, b = random_system(2)
    shifts = [0.0, -0.5, -1.0 - 0.3j, 2.0]
    xs, report = solve_shifted_hessen(A, b, shifts, SolverConfig(m=25, tol=1e-9))
    assert report.all_converged
    dense = A.toarray()
    for sigma, x in zip(shifts, xs):
        ref = np.linalg.solve(dense - sigma * np.eye(A.shape[0]), b)
        assert_allclose(x, ref, rtol=1e-6)
    # real shifts keep real solutions, complex shifts go complex
    assert not np.iscomplexobj(xs[0])
    assert np.iscomplexobj(xs[2])


def test_fom_and_hessen_agree():
    A, b = random_system(3)
    shifts = [-0.001, -0.002, -0.004]
    cfg = SolverConfig(m=20, tol=1e-9)
    xh, rh = solve_shifted_hessen(A, b, shifts, cfg)
    xf, rf = solve_shifted_fom(A, b, shifts, cfg)
    assert rh.all_converged and rf.all_converged
    for a, c in zip(xh, xf):
        assert_allclose(a, c, atol=1e-7 * np.linalg.norm(c))
    assert rh.solver == "shessen"
    assert rf.solver == "sfom"


def test_mvp_accounting():
    A, b = random_system(4)
    cfg = SolverConfig(m=15, tol=1e-9)
    xs, rep = solve_shifted_hessen(A, b, [0.0, -1.0], cfg)
    assert rep.total_mvps == rep.basis_mvps + rep.residual_mvps
    # without breakdown every cycle runs m basis products, less the
    # columns it continued from a thick restart
    assert not rep.breakdown
    assert len(rep.kept) == rep.cycles and rep.kept[0] == 0 and any(rep.kept)
    assert rep.basis_mvps == sum(cfg.m - k for k in rep.kept)
    # one confirmation per retirement at least; never more than one per
    # shift per cycle
    assert rep.residual_mvps >= rep.num_converged
    assert rep.residual_mvps <= rep.cycles * len(rep.shifts)
    # the matrix-level counter saw every counted product and nothing else
    assert A.counter.count == rep.total_mvps


def test_budget_is_respected(monkeypatch):
    # small cycles on an ill conditioned Laplacian need 29 cycles to reach
    # 1e-14 at this shift, so the solve must stop at the last whole cycle
    # that fits the budget; under the plain restart every cycle costs m
    keep_columns(monkeypatch, lambda m: 0)
    A = laplace1d(60)
    b = np.linspace(1.0, 2.0, 60)
    cfg = SolverConfig(m=5, tol=1e-14, max_mvps=23)
    xs, rep = solve_shifted_hessen(A, b, [-0.1], cfg)
    assert rep.basis_mvps <= cfg.max_mvps
    assert rep.cycles == 4
    assert rep.basis_mvps == 20
    assert rep.budget_exhausted and not rep.stalled
    assert not rep.all_converged
    assert rep.dagger_flags == [True]
    h = rep.shifts[0]
    # no reduced system was singular: the budget alone stopped the solve
    assert h.skipped_cycles == 0
    assert np.isfinite(h.final_relative_residual)
    assert len(h.estimates) == 1 + rep.cycles


def test_a_natural_singular_reduced_system_retires_the_shift(monkeypatch):
    # laplace1d(60), b = ones, m = 5 under the plain restart: the pivoted
    # process meets a singular reduced system for shift 0 in cycle 2.  The
    # shift is retired there, with the iterate of cycle 1, instead of
    # running the whole budget
    keep_columns(monkeypatch, lambda m: 0)
    A = laplace1d(60)
    b = np.ones(60)
    xs, rep = solve_shifted_hessen(A, b, [0.0], SolverConfig(m=5, tol=1e-14, max_mvps=400))
    assert rep.stalled and not (rep.budget_exhausted or rep.breakdown)
    assert (rep.cycles, rep.basis_mvps, rep.residual_mvps) == (2, 10, 0)
    h = rep.shifts[0]
    assert not (h.converged or h.diverged)
    assert (h.cycles, h.skipped_cycles) == (2, 1)
    assert h.estimates[2] == h.estimates[1]
    assert h.final_relative_residual == true_relative_residual(A, 0.0, xs[0], b)
    assert_allclose(h.final_relative_residual, h.estimates[-1], rtol=1e-12)
    assert_allclose(h.final_relative_residual, 0.913, atol=5e-4)


def test_zero_budget_returns_initial_state():
    A, b = random_system(6)
    xs, rep = solve_shifted_hessen(A, b, [0.0], SolverConfig(m=30, max_mvps=10))
    assert rep.cycles == 0
    assert rep.total_mvps == 0
    assert not rep.shifts[0].converged
    assert_allclose(xs[0], 0.0)
    assert_allclose(rep.shifts[0].final_relative_residual, 1.0)
    assert rep.shifts[0].estimates == [1.0]


def test_estimates_match_true_residuals_every_cycle():
    # the cheap collinearity estimate and an explicitly computed residual
    # are two routes to the same number
    A, b = random_system(7)
    shifts = [0.0, -0.3, -0.9]
    seen = []

    def watch(info):
        for i in info.active_before:
            est = info.estimates[i]
            tr = true_relative_residual(A, info.shifts[i], info.solutions[i], b)
            seen.append((est, tr))

    solve_shifted_hessen(A, b, shifts, SolverConfig(m=12, tol=1e-9), on_cycle=watch)
    assert seen
    for est, tr in seen:
        assert abs(est - tr) <= 1e-8 * max(1.0, tr)


def test_on_cycle_reporting():
    A, b = random_system(8)
    infos = []
    solve_shifted_hessen(
        A, b, [0.0, -2.0], SolverConfig(m=10, tol=1e-9), on_cycle=infos.append
    )
    assert [c.cycle for c in infos] == list(range(1, len(infos) + 1))
    for c in infos:
        assert set(c.active_after) <= set(c.active_before)
        assert len(c.estimates) == 2
        assert c.decomposition.steps <= 10


SOLVERS = pytest.mark.parametrize(
    "solver", [solve_shifted_hessen, solve_shifted_fom], ids=lambda f: f.__name__
)


def inject_singular(monkeypatch, target):
    """Make the first stacked reduced solve that holds a shift in
    ``target`` report that shift's system as singular; return the sizes of
    all stacked solves."""
    real_solver = solvers_mod.solve_shifted_hessenberg
    sizes = []

    def flaky(H, sigma, beta, schur=None):
        sizes.append(len(sigma))
        hit = np.isin(sigma, target)
        if hit.any() and not flaky.fired:
            flaky.fired = True
            raise SingularReducedSystem(
                "injected", singular=hit, solution=real_solver(H, sigma, beta, schur=schur)
            )
        return real_solver(H, sigma, beta, schur=schur)

    flaky.fired = False
    monkeypatch.setattr(solvers_mod, "solve_shifted_hessenberg", flaky)
    return sizes


@SOLVERS
def test_singular_shift_retires_in_its_cycle(monkeypatch, solver):
    # one injected singular reduced system for the second shift in the
    # first cycle retires it there, unconverged and never updated; the
    # solve ends when shift 0 converges, not at the product budget
    A, b = random_system(10)
    inject_singular(monkeypatch, [-0.7])
    infos = []
    xs, rep = solver(A, b, [0.0, -0.7], SolverConfig(m=15, tol=1e-9, max_mvps=300),
                     on_cycle=infos.append)
    first, bad = rep.shifts
    assert first.converged and first.skipped_cycles == 0
    assert rep.cycles == first.cycles >= 2
    assert not (rep.budget_exhausted or rep.stalled)
    assert infos[0].skipped == (1,) and infos[0].active_after == (0,)
    assert not (bad.converged or bad.diverged)
    assert (bad.cycles, bad.skipped_cycles) == (1, 1)
    # the residual of a zero iterate is b itself
    assert bad.estimates == [1.0, 1.0]
    assert bad.final_relative_residual == 1.0
    assert not np.any(xs[1])
    # the retirement costs no products: accounting still holds
    assert rep.total_mvps == rep.basis_mvps + rep.residual_mvps


@SOLVERS
def test_retired_shift_leaves_the_stacked_solve(monkeypatch, solver):
    # both classes are in the first cycle's one stacked reduced call,
    # shift 0 alone in every call after it
    A, b = random_system(10)
    sizes = inject_singular(monkeypatch, [-0.7])
    xs, rep = solver(A, b, [0.0, -0.7], SolverConfig(m=15, tol=1e-9, max_mvps=300))
    first = rep.shifts[0]
    assert first.converged and rep.cycles == first.cycles >= 2
    assert rep.shifts[1].skipped_cycles == 1
    assert sizes == [2] + [1] * (rep.cycles - 1)


def test_all_shifts_stalled(monkeypatch):
    # one cycle that retires every active shift ends the solve
    A, b = random_system(11)

    def always_singular(H, sigma, beta, schur=None):
        singular = np.ones(len(sigma), dtype=bool)
        raise SingularReducedSystem(
            "injected", singular=singular, solution=np.full((len(sigma), len(H)), np.nan)
        )

    monkeypatch.setattr(solvers_mod, "solve_shifted_hessenberg", always_singular)
    _, rep = solve_shifted_hessen(A, b, [0.0, -1.0], SolverConfig(m=10))
    assert rep.stalled and not (rep.budget_exhausted or rep.breakdown)
    assert (rep.cycles, rep.basis_mvps, rep.residual_mvps) == (1, 10, 0)
    for h in rep.shifts:
        assert not h.converged
        assert (h.cycles, h.skipped_cycles) == (1, 1)
        assert h.final_relative_residual == 1.0


def gees_calls(monkeypatch, fail=()):
    """Record the ``gees`` call of every Schur form a reduced solve or a
    restart takes; the calls numbered in ``fail`` (from 1) report failure,
    ``info > 0``, as LAPACK does when the QR algorithm does not converge."""
    real_lookup = reduced_mod.get_lapack_funcs
    calls = []

    def lookup(names, arrays=()):
        func = real_lookup(names, arrays)
        if names != "gees":
            return func

        def gees(*args, **kwargs):
            out = func(*args, **kwargs)
            calls.append(out[0].shape[0])
            return (*out[:-1], 1) if len(calls) in fail else out

        return gees

    monkeypatch.setattr(reduced_mod, "get_lapack_funcs", lookup)
    return calls


@SOLVERS
def test_one_schur_form_per_cycle(monkeypatch, solver):
    # the cycle's stacked reduced solve computes the Schur form and the
    # next cycle's thick restart reuses it
    A, b = random_system(12)
    calls = gees_calls(monkeypatch)
    _, rep = solver(A, b, [0.0, -0.7, -1.0 + 0.5j, -1.0 - 0.5j],
                    SolverConfig(m=12, tol=1e-12))
    assert rep.all_converged and rep.cycles >= 3 and all(rep.kept[1:])
    # one form of the full 12 x 12 H a cycle
    assert calls == [12] * rep.cycles


@SOLVERS
@pytest.mark.parametrize("cycle", [1, 2])
def test_failed_schur_form_retires_the_family_as_singular(monkeypatch, solver, cycle):
    # no Schur form, no reduced solve: every class of that cycle is
    # retired as singular with the iterate of the cycle before, never a
    # NaN, and the solve stalls
    A, b = random_system(13)
    shifts = [0.0, -1.0 + 0.5j, -0.7, -1.0 - 0.5j]
    gees_calls(monkeypatch, fail={cycle})
    infos = []
    xs, rep = solver(A, b, shifts, SolverConfig(m=12, tol=1e-12), on_cycle=infos.append)
    assert rep.stalled and rep.cycles == cycle
    assert rep.num_converged == 0
    assert infos[-1].skipped == (0, 1, 2, 3)
    before = np.zeros((4, b.size)) if cycle == 1 else infos[-2].solutions
    for s, x, x_before, h in zip(shifts, xs, before, rep.shifts):
        assert np.all(np.isfinite(x)) and np.array_equal(x, x_before)
        assert (h.cycles, h.skipped_cycles) == (cycle, 1)
        assert not (h.converged or h.diverged)
        assert h.estimates[-1] == h.estimates[-2]
        assert h.final_relative_residual == true_relative_residual(A, s, x, b)


def test_nonconvergence_is_reported():
    # shifting exactly onto an interior eigenvalue makes the projected
    # system indefinite; the restarted method wanders and must say so
    n = 60
    A = laplace1d(n)
    lam = 2.0 - 2.0 * np.cos(np.pi * (n // 2 + 1) / (n + 1))
    xs, rep = solve_shifted_hessen(
        A, np.ones(n), [lam], SolverConfig(m=8, tol=1e-10, max_mvps=200)
    )
    h = rep.shifts[0]
    assert not h.converged
    assert rep.dagger_flags == [True]
    assert np.isfinite(h.final_relative_residual)
    assert h.final_relative_residual > 1e-10


def test_stagnation_flag_on_frozen_estimate():
    # on the cyclic permutation of order 16 with b = e1, shift 1 and m = 1,
    # each cycle moves the residual on to the next unit vector, so every
    # estimate is exactly 1.0 and the stagnation flag latches.  The flag
    # is informational: the solve runs on to its budget.
    n = 16
    P = csr_from_dense(np.roll(np.eye(n), 1, axis=0))
    b = np.eye(n)[0]
    for solver in (solve_shifted_hessen, solve_shifted_fom):
        xs, rep = solver(P, b, [1.0], SolverConfig(m=1, max_mvps=10))
        h = rep.shifts[0]
        assert rep.budget_exhausted and rep.cycles == 10
        assert h.stagnated and not h.converged
        assert h.skipped_cycles == 0
        assert h.estimates == [1.0] * 11
        assert h.final_relative_residual == 1.0


def test_a_shift_whose_estimate_overflows_is_retired_as_diverged():
    # on the rotation at m = 1 the one-step Arnoldi cycle's H is roundoff,
    # so sfom's estimate grows by about 1e16 a cycle until it overflows;
    # the shift is retired on the first non-finite estimate instead of
    # running the whole product budget
    A = csr_from_dense(np.array([[0.0, -1.0], [1.0, 0.0]]))
    b = np.ones(2)
    with np.errstate(all="ignore"):
        _, rep = solve_shifted_fom(A, b, [0.0], SolverConfig(m=1))
    h = rep.shifts[0]
    assert h.diverged and not h.converged and not h.stagnated
    assert np.all(np.isfinite(h.estimates[:-1])) and not np.isfinite(h.estimates[-1])
    assert rep.cycles == h.cycles == len(h.estimates) - 1 <= 30
    assert not (rep.budget_exhausted or rep.stalled or rep.breakdown)
    assert rep.dagger_flags == [True]
    assert "diverged" in repr(h)
    # the pivoted solver meets singular reduced systems there and stalls
    _, rep = solve_shifted_hessen(A, b, [0.0], SolverConfig(m=1))
    assert rep.stalled and not rep.shifts[0].diverged


def test_breakdown_identity_solves_exactly():
    n = 12
    I = identity(n)
    b = np.linspace(1.0, 2.0, n)
    x, rep = solve_hessen(I, b)
    assert rep.breakdown
    assert rep.cycles == 1
    assert rep.basis_mvps == 1
    assert np.array_equal(x, b)

    A2 = CsrMatrix.from_triplets(range(n), range(n), [2.0] * n, (n, n))
    xs, rep2 = solve_shifted_hessen(A2, b, [0.0, 1.0])
    assert rep2.breakdown
    assert_allclose(xs[0], b / 2.0, atol=0)
    assert_allclose(xs[1], b, rtol=1e-15)
    assert rep2.all_converged


def test_single_shift_zero_equals_single_system():
    # a one-element family at shift zero must reproduce the plain solver
    # bit for bit, not merely approximately
    A, b = random_system(15)
    cfg = SolverConfig(m=20, tol=1e-9)
    x1, r1 = solve_hessen(A, b, cfg=cfg)
    xs, r2 = solve_shifted_hessen(A, b, [0.0], cfg)
    assert np.array_equal(x1, xs[0])
    assert r1.cycles == r2.cycles
    assert r1.total_mvps == r2.total_mvps
    assert r1.shifts[0].estimates == r2.shifts[0].estimates


def test_input_validation():
    A, b = random_system(12)
    with pytest.raises(ZeroStartVector):
        solve_hessen(A, np.zeros(A.shape[0]))
    with pytest.raises(DimensionMismatch):
        solve_hessen(A, np.ones(A.shape[0] + 1))
    with pytest.raises(InvalidDimensions):
        solve_hessen(A, b, cfg=SolverConfig(m=0))
    with pytest.raises(InvalidDimensions):
        solve_hessen(A, b, cfg=SolverConfig(tol=0.0))
    with pytest.raises(InvalidDimensions):
        solve_shifted_hessen(A, b, [])
    with pytest.raises(DimensionMismatch):
        solve_hessen(A, b, x0=np.ones(3))
    # a zero guess skips the initial residual product; it used to skip the
    # shape check with it and converge silently
    for x0 in (np.zeros(3), np.zeros((A.shape[0], 1))):
        with pytest.raises(DimensionMismatch):
            solve_hessen(A, b, x0=x0)


def test_true_relative_residual_counts_one_product():
    A, b = random_system(13)
    x = np.zeros_like(b)
    before = A.counter.count
    r = true_relative_residual(A, 0.0, x, b)
    assert A.counter.count == before + 1
    assert r == 1.0
    with pytest.raises(DimensionMismatch):
        true_relative_residual(A, 0.0, np.ones(3), b)


def test_true_relative_residual_rejects_zero_right_hand_side():
    A, b = random_system(13)
    zeros = np.zeros_like(b)
    with pytest.raises(ZeroStartVector):
        true_relative_residual(A, 0.0, zeros, zeros)


def test_non_square_operator_is_rejected_before_any_product():
    # a nonzero initial guess costs a product for the initial residual;
    # the operator's shape is checked before it
    A = CsrMatrix.from_triplets(np.arange(8), np.arange(8), np.ones(8), (9, 8))
    with pytest.raises(DimensionMismatch):
        solve_hessen(A, np.ones(8), x0=np.ones(8))
    assert A.counter.count == 0


def test_plain_scipy_operator_matches_csr_matrix():
    # an operator without norm_inf falls back to the per-product breakdown
    # scale; away from breakdown the solve is the same, bit for bit
    A, b = random_system(20)
    plain = sp.csr_matrix(A.toarray())
    cfg = SolverConfig(m=10, tol=1e-10)
    shifts = [0.0, 0.5, 1.0 + 0.5j]
    for solve in (solve_shifted_hessen, solve_shifted_fom):
        xs_ref, rep_ref = solve(A, b, shifts, cfg)
        xs, rep = solve(plain, b, shifts, cfg)
        assert rep_ref.cycles > 1
        assert (rep.cycles, rep.total_mvps) == (rep_ref.cycles, rep_ref.total_mvps)
        for x, x_ref in zip(xs, xs_ref):
            assert np.array_equal(x, x_ref)
    x_ref, rep_ref = solve_hessen(A, b, cfg=cfg)
    x, rep = solve_hessen(plain, b, cfg=cfg)
    assert (rep.cycles, rep.total_mvps) == (rep_ref.cycles, rep_ref.total_mvps)
    assert np.array_equal(x, x_ref)
    assert rep.all_converged


def test_plain_scipy_operator_detects_happy_breakdown():
    # b meets three eigenvalues, so one cycle ends in a breakdown after
    # three steps, whether or not the operator exposes norm_inf
    A = sp.csr_matrix(np.diag(np.arange(1.0, 51.0)))
    b = np.zeros(50)
    b[:3] = [1.0, 0.7, 0.3]
    cfg = SolverConfig(m=10, tol=1e-12)
    for solve in (solve_shifted_hessen, solve_shifted_fom):
        xs, rep = solve(A, b, [0.0, -0.5], cfg)
        assert rep.breakdown and rep.all_converged
        assert (rep.cycles, rep.total_mvps) == (1, 5)


class ReturnsItsArgument:
    """The identity of order 6 as an operator whose product is a view: it
    returns its argument, the basis column itself."""

    shape = (6, 6)
    dtype = np.dtype(np.float64)

    def __matmul__(self, x):
        return x


def test_operator_returning_its_argument_solves():
    # Arnoldi used to subtract in place from its own start column, so sfom
    # ended 0/2 converged at true residual 1
    b = np.arange(1.0, 7.0)
    shifts = [0.5, -1.0]
    for solve in (solve_shifted_hessen, solve_shifted_fom):
        starts = []

        def on_cycle(info):
            dec = info.decomposition
            starts.append(np.array_equal(dec.basis[:, 0], b / dec.beta))

        xs, rep = solve(ReturnsItsArgument(), b, shifts, on_cycle=on_cycle)
        assert starts == [True]
        assert rep.all_converged and rep.cycles == 1
        for x, s in zip(xs, shifts):
            assert np.array_equal(x, b / (1.0 - s))


def test_nan_in_rhs_is_rejected_before_any_product():
    # it used to end after one product as a happy breakdown
    A, b = random_system(21)
    b[3] = np.nan
    with pytest.raises(NonFiniteInput):
        solve_shifted_hessen(A, b, [0.0, 0.5], SolverConfig(m=10, max_mvps=400))
    assert A.counter.count == 0


def test_nan_shift_is_rejected_before_any_product():
    # it used to spend the whole budget: 40 cycles and 401 products at
    # m = 10 and max_mvps = 400, returning NaN for that shift
    A, b = random_system(21)
    for bad in (np.nan, complex(0.0, np.inf)):
        with pytest.raises(NonFiniteInput):
            solve_shifted_hessen(A, b, [0.0, bad], SolverConfig(m=10, max_mvps=400))
    assert A.counter.count == 0


def test_inf_in_initial_guess_is_rejected_before_any_product():
    # it used to report a breakdown after the initial residual product
    A, b = random_system(21)
    x0 = np.zeros_like(b)
    x0[2] = np.inf
    with pytest.raises(NonFiniteInput):
        solve_hessen(A, b, x0=x0, cfg=SolverConfig(m=10, max_mvps=400))
    assert A.counter.count == 0


def test_nan_in_operator_is_rejected_before_any_product():
    A, b = random_system(21)
    M = A.toarray()
    M[4, 4] = np.nan
    A = csr_from_dense(M)
    with pytest.raises(NonFiniteInput):
        solve_shifted_fom(A, b, [0.0])
    assert A.counter.count == 0


@pytest.mark.parametrize("solve", [solve_shifted_hessen, solve_shifted_fom])
def test_overflowing_operator_norm_is_rejected_before_any_product(solve):
    # finite entries whose row sums overflow: the message used to blame a
    # non-finite entry
    A = csr_from_dense(gen_laplace2d(10).toarray() * 2e305)
    with pytest.raises(NonFiniteInput, match="overflow"):
        solve(A, np.ones(100), [0.0, 0.5])
    assert A.counter.count == 0


class RenormedDense:
    """A dense matrix whose norm every run reduces again, as a bare
    ndarray's was: the reference for the norm read once."""

    def __init__(self, M):
        self.M, self.shape, self.dtype = M, M.shape, M.dtype

    def norm_inf(self):
        return processes_mod._operator_norm_scale(self.M)

    def __matmul__(self, x):
        return self.M @ x


@pytest.mark.parametrize("solve", [solve_shifted_hessen, solve_shifted_fom])
def test_a_dense_operator_norm_is_reduced_once_per_solve(solve, monkeypatch):
    M = laplace1d(60).toarray()
    b = np.linspace(1.0, 2.0, 60)
    cfg = SolverConfig(m=8, tol=1e-10)
    xs_ref, rep_ref = solve(RenormedDense(M), b, [-1.0, -0.5], cfg)
    real = processes_mod._operator_norm_scale
    dense = []
    monkeypatch.setattr(processes_mod, "_operator_norm_scale",
                        lambda A: dense.append(isinstance(A, np.ndarray)) or real(A))
    xs, rep = solve(M, b, [-1.0, -0.5], cfg)
    assert rep.cycles == rep_ref.cycles > 3 and rep.all_converged
    assert sum(dense) == 1
    assert (rep.basis_mvps, rep.residual_mvps) == (rep_ref.basis_mvps, rep_ref.residual_mvps)
    for x, x_ref in zip(xs, xs_ref):
        assert x.tobytes() == x_ref.tobytes()


def test_huge_operator_scale_does_not_read_as_singular():
    # the reduced solve's Frobenius norm overflowed to inf at this scale,
    # so every reduced system read as singular and the solve stalled
    A = gen_laplace2d(10)
    b = np.ones(A.shape[0])
    _, rep_ref = solve_shifted_hessen(A, b, [0.0])
    for scale in (1e160, 1e300):
        huge = csr_from_dense(A.toarray() * scale)
        xs, rep = solve_shifted_hessen(huge, b, [0.0])
        assert rep.all_converged
        assert (rep.cycles, rep.total_mvps) == (rep_ref.cycles, rep_ref.total_mvps)
        assert true_relative_residual(huge, 0.0, xs[0], b) <= SolverConfig().tol


# -- conjugate folding ----------------------------------------------------

PAIRED = [-1.0 + 0.5j, -0.3, -1.0 - 0.5j, -2.0 - 1.0j, -2.0 + 1.0j]


def stack_sizes(monkeypatch):
    """Record the number of systems in every stacked reduced solve."""
    real_solver = solvers_mod.solve_shifted_hessenberg
    sizes = []

    def counting(H, sigma, beta, schur=None):
        sizes.append(len(sigma))
        return real_solver(H, sigma, beta, schur=schur)

    monkeypatch.setattr(solvers_mod, "solve_shifted_hessenberg", counting)
    return sizes


def test_conjugate_pairs_fold_to_one_row(monkeypatch):
    A, b = random_system(30)
    sizes = stack_sizes(monkeypatch)
    cfg = SolverConfig(m=12, tol=1e-9)
    xs, rep = solve_shifted_hessen(A, b, PAIRED, cfg)
    # three classes: two pairs and the real shift
    assert sizes[0] == 3
    assert rep.all_converged and rep.cycles > 1
    assert np.array_equal(xs[2], np.conj(xs[0]))
    assert np.array_equal(xs[3], np.conj(xs[4]))
    for i, j in ((0, 2), (4, 3)):
        hi, hj = rep.shifts[i], rep.shifts[j]
        assert hi.estimates == hj.estimates
        assert (hi.cycles, hi.skipped_cycles, hi.stagnated) == (hj.cycles, hj.skipped_cycles,
                                                                hj.stagnated)
        assert hi.final_relative_residual == hj.final_relative_residual
    # one product confirms each class, a folded pair included
    assert rep.residual_mvps == 3
    assert np.isrealobj(xs[1])
    for s, x in zip(PAIRED, xs):
        assert true_relative_residual(A, s, x, b) <= cfg.tol
    # a complex right-hand side is not folded: the same family solved one
    # row per shift is the reference.  Its complex Schur form need not
    # keep a conjugate pair whole as the real one does, so the two are
    # compared under the plain restart
    keep_columns(monkeypatch, lambda m: 0)
    xs, rep = solve_shifted_hessen(A, b, PAIRED, cfg)
    ref, rep_ref = solve_shifted_hessen(A, b.astype(complex), PAIRED, cfg)
    assert (rep_ref.cycles, rep_ref.basis_mvps) == (rep.cycles, rep.basis_mvps)
    # unfolded, each partner of the two pairs pays its own confirmation
    assert rep_ref.residual_mvps == rep.residual_mvps + 2
    for x, x_ref in zip(xs, ref):
        assert_allclose(x, x_ref, rtol=1e-12, atol=0)


def test_shift_one_ulp_off_the_conjugate_is_not_folded(monkeypatch):
    A, b = random_system(31)
    sizes = stack_sizes(monkeypatch)
    near = complex(-1.0, np.nextafter(-0.5, 0.0))
    shifts = [-1.0 + 0.5j, near]
    xs, rep = solve_shifted_hessen(A, b, shifts, SolverConfig(m=12, tol=1e-9))
    assert sizes[0] == 2
    assert rep.all_converged
    for s, x in zip(shifts, xs):
        assert true_relative_residual(A, s, x, b) <= 1e-9


def test_complex_data_is_not_folded(monkeypatch):
    A, b = random_system(32)
    shifts = [-1.0 + 0.5j, -1.0 - 0.5j]
    complex_op = csr_from_dense(A.toarray() * (1.0 + 0.1j))
    sizes = stack_sizes(monkeypatch)
    for op, rhs in ((A, b * (1.0 - 0.2j)), (complex_op, b)):
        sizes.clear()
        xs, rep = solve_shifted_hessen(op, rhs, shifts, SolverConfig(m=12, tol=1e-9))
        assert sizes[0] == 2
        assert rep.all_converged
        for s, x in zip(shifts, xs):
            assert true_relative_residual(op, s, x, rhs) <= 1e-9


def test_singular_folded_pair_retires_together(monkeypatch):
    # the pair's one reduced system is singular in the first cycle: both
    # partners retire there with one record, and the real shift goes on
    A, b = random_system(33)
    shifts = [-0.4 + 0.3j, 0.0, -0.4 - 0.3j]
    inject_singular(monkeypatch, shifts[:1])
    infos = []
    xs, rep = solve_shifted_hessen(
        A, b, shifts, SolverConfig(m=15, tol=1e-9, max_mvps=600), on_cycle=infos.append
    )
    assert infos[0].skipped == (0, 2) and infos[0].active_after == (1,)
    assert all(info.skipped == () for info in infos[1:])
    assert [h.skipped_cycles for h in rep.shifts] == [1, 0, 1]
    assert rep.shifts[1].converged and rep.cycles == rep.shifts[1].cycles
    for i in (0, 2):
        h = rep.shifts[i]
        assert not h.converged and h.cycles == 1
        assert h.estimates == [1.0, 1.0]
        assert h.final_relative_residual == 1.0
    assert np.array_equal(xs[2], np.conj(xs[0]))


def test_on_cycle_sees_every_shift_of_a_folded_family():
    A, b = random_system(34)
    seen = []

    def watch(info):
        assert info.solutions.shape == (len(PAIRED), A.shape[0])
        for i in info.active_before:
            tr = true_relative_residual(A, info.shifts[i], info.solutions[i], b)
            seen.append((info.estimates[i], tr))

    solve_shifted_hessen(A, b, PAIRED, SolverConfig(m=12, tol=1e-9), on_cycle=watch)
    assert len(seen) > len(PAIRED)
    for est, tr in seen:
        assert abs(est - tr) <= 1e-8 * max(1.0, tr)


def test_budget_below_one_cycle_is_flagged():
    A = gen_laplace2d(10)
    b = np.ones(100)
    xs, rep = solve_shifted_hessen(A, b, [0, 1], SolverConfig(m=30, max_mvps=20))
    assert rep.budget_exhausted
    assert (rep.cycles, rep.total_mvps) == (0, 0)
    assert not any(h.converged for h in rep.shifts)
    _, done = solve_shifted_hessen(A, b, [0, 1], SolverConfig(m=30))
    assert done.all_converged
    assert not done.budget_exhausted


# -- tolerances -----------------------------------------------------------


def test_non_finite_or_non_positive_tolerance_is_rejected():
    # an infinite tolerance used to retire every shift after one cycle:
    # on laplace2d(20) both shifts read converged at true residuals 0.77
    # and 0.70
    A = gen_laplace2d(20)
    b = np.ones(A.shape[0])
    for tol in (np.inf, -np.inf, np.nan, 0.0, -1e-8, "1e-8", None):
        with pytest.raises(InvalidDimensions):
            SolverConfig(tol=tol).validate()
        with pytest.raises(InvalidDimensions):
            solve_shifted_hessen(A, b, [0.0, -1.0], SolverConfig(tol=tol))
    assert A.counter.count == 0


def test_per_shift_tolerance_validation():
    A, b = random_system(40)
    bad = ([[1e-8, 1e-8]], [[1e-8], [1e-8]], [], [1e-8, np.inf], [1e-8, np.nan],
           [1e-8, 0.0], np.array([1e-8, -1e-8]), [1e-8, "x"], [1e-8, 1j])
    for tol in bad:
        with pytest.raises(InvalidDimensions):
            SolverConfig(tol=tol).validate()
        with pytest.raises(InvalidDimensions):
            solve_shifted_hessen(A, b, [0.0, -1.0], SolverConfig(tol=tol))
    SolverConfig(tol=[1e-8, 1e-6]).validate()
    SolverConfig(tol=np.array([1e-8])).validate()
    # the length is checked against the family when the solve starts
    for tol, shifts in (([1e-8, 1e-6], [0.0]), ([1e-8], [0.0, -1.0]),
                        (np.full(4, 1e-8), PAIRED)):
        with pytest.raises(DimensionMismatch):
            solve_shifted_hessen(A, b, shifts, SolverConfig(tol=tol))
        with pytest.raises(DimensionMismatch):
            solve_shifted_fom(A, b, shifts, SolverConfig(tol=tol))
    assert A.counter.count == 0


def test_uniform_per_shift_tolerance_is_the_scalar_run():
    A, b = random_system(41)
    for solver in (solve_shifted_hessen, solve_shifted_fom):
        xs, rep = solver(A, b, PAIRED, SolverConfig(m=12, tol=1e-9))
        ys, rep_arr = solver(A, b, PAIRED, SolverConfig(m=12, tol=np.full(5, 1e-9)))
        assert (rep_arr.cycles, rep_arr.total_mvps) == (rep.cycles, rep.total_mvps)
        for x, y, h, g in zip(xs, ys, rep.shifts, rep_arr.shifts):
            assert np.array_equal(x, y)
            assert h.estimates == g.estimates
            assert h.final_relative_residual == g.final_relative_residual


def test_each_shift_meets_its_own_tolerance():
    A, b = random_system(42)
    shifts = [0.0, -0.5, -1.0]
    tols = [1e-4, 1e-8, 1e-12]
    for solver in (solve_shifted_hessen, solve_shifted_fom):
        xs, rep = solver(A, b, shifts, SolverConfig(m=8, tol=tols))
        assert rep.all_converged
        for s, x, h, tol in zip(shifts, xs, rep.shifts, tols):
            assert h.final_relative_residual <= tol
            assert true_relative_residual(A, s, x, b) <= tol
        # the loosest shift retires first, the tightest last
        cycles = [h.cycles for h in rep.shifts]
        assert cycles[0] < cycles[1] < cycles[2] == rep.cycles


def test_folded_pair_takes_the_smaller_tolerance(monkeypatch):
    A, b = random_system(43)
    sizes = stack_sizes(monkeypatch)
    # shift 0 alone would stop at 1e-4; its folded partner, shift 2, asks 1e-11
    tols = [1e-4, 1e-9, 1e-11, 1e-9, 1e-9]
    xs, rep = solve_shifted_hessen(A, b, PAIRED, SolverConfig(m=12, tol=tols))
    assert sizes[0] == 3
    assert rep.all_converged
    assert np.array_equal(xs[2], np.conj(xs[0]))
    assert rep.shifts[0].cycles == rep.shifts[2].cycles
    for i in (0, 2):
        assert rep.shifts[i].final_relative_residual <= 1e-11
        assert true_relative_residual(A, PAIRED[i], xs[i], b) <= 1e-11


@SOLVERS
def test_every_final_residual_is_the_true_residual_of_its_solution(solver):
    # the report's residual is true_relative_residual of the returned x,
    # bitwise: for converged shifts, folded conjugate partners (2 and 4)
    # and a shift that the budget leaves unconverged (1)
    A, b = random_system(43)
    tols = [1e-8, 1e-16, 1e-8, 1e-8, 1e-8]
    xs, rep = solver(A, b, PAIRED, SolverConfig(m=12, tol=tols, max_mvps=60))
    assert rep.budget_exhausted
    assert [h.converged for h in rep.shifts] == [True, False, True, True, True]
    for s, x, h in zip(PAIRED, xs, rep.shifts):
        assert h.final_relative_residual == true_relative_residual(A, s, x, b)


class CountingWithoutApply:
    """A CsrMatrix's products behind an operator without ``_apply``, so it
    also sees the final residuals the report leaves out of its count."""

    def __init__(self, A):
        self.A, self.shape, self.dtype, self.count = A, A.shape, A.dtype, 0

    def __matmul__(self, x):
        self.count += 1
        return self.A._apply(x)


def test_unconverged_class_takes_one_final_residual():
    # a folded pair and two real shifts, none converged at this budget:
    # three classes, so three uncounted final residuals, not four
    A = gen_convdiff3d(9, 1.0, (0.0, 111.8, 223.6), 400.0)
    op = CountingWithoutApply(A)
    b = np.ones(A.shape[0])
    shifts = [0.5 + 0.1j, 0.5 - 0.1j, -1e-3, 2.0]
    xs, rep = solve_shifted_hessen(op, b, shifts, SolverConfig(m=10, tol=1e-14, max_mvps=25))
    assert rep.budget_exhausted and rep.num_converged == 0
    assert (op.count, rep.total_mvps) == (27, 24)
    for s, x, h in zip(shifts, xs, rep.shifts):
        assert h.final_relative_residual == true_relative_residual(A, s, x, b)


class BareOperator:
    """A CsrMatrix's products behind only ``shape``, ``dtype`` and ``@``."""

    def __init__(self, A):
        self.A, self.shape, self.dtype = A, A.shape, A.dtype

    def __matmul__(self, x):
        return self.A @ x


@pytest.mark.parametrize("solve", [solve_shifted_hessen, solve_shifted_fom])
def test_every_operator_sees_one_final_residual_per_unconverged_class(solve):
    # a folded pair and two real shifts, none converged at this budget:
    # three classes, so three products beyond the report's count
    A = gen_convdiff3d(9, 1.0, (0.0, 111.8, 223.6), 400.0)
    b = np.ones(A.shape[0])
    shifts = [0.5 + 0.1j, 0.5 - 0.1j, -1e-3, 2.0]
    cfg = SolverConfig(m=10, tol=1e-14, max_mvps=25)
    for op in (BareOperator(A), A):
        A.counter.reset()
        _, rep = solve(op, b, shifts, cfg)
        assert rep.budget_exhausted and rep.num_converged == 0
        assert A.counter.count == rep.total_mvps + 3


@st.composite
def real_families(draw):
    """A small real operator and right-hand side, and a shift family that
    mixes exact conjugate pairs, near-pairs one ulp apart and real shifts,
    in any order, with a shared or a per-shift tolerance."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 40))
    M = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2)
    M += np.diag(draw(st.sampled_from([2.0, 5.0, 8.0])) + rng.standard_normal(n))
    part = st.floats(-3.0, 3.0).map(lambda t: round(t, 3))
    shifts = []
    for _ in range(draw(st.integers(0, 2))):
        z = complex(draw(part), draw(st.floats(0.05, 2.0)))
        shifts += [z, z.conjugate()]
    for _ in range(draw(st.integers(0, 1))):
        z = complex(draw(part), draw(st.floats(0.05, 2.0)))
        shifts += [z, complex(z.real, -np.nextafter(z.imag, 3.0))]
    shifts += draw(st.lists(part, max_size=3))
    if not shifts:
        shifts = [draw(part)]
    shifts = draw(st.permutations(shifts))
    levels = st.sampled_from([1e-4, 1e-8, 1e-10, 1e-12])
    tol = draw(st.lists(levels, min_size=len(shifts), max_size=len(shifts))
               if draw(st.booleans()) else levels)
    cfg = SolverConfig(m=draw(st.integers(1, n)), tol=tol,
                       max_mvps=draw(st.sampled_from([20, 100, 400])))
    return csr_from_dense(M), rng.standard_normal(n), shifts, cfg


@settings(max_examples=60, derandomize=True, deadline=None)
@given(real_families(), st.sampled_from([solve_shifted_hessen, solve_shifted_fom]))
def test_class_records_hold_for_every_shift(family, solve):
    A, b, shifts, cfg = family
    xs, rep = solve(A, b, shifts, cfg)
    tols = np.broadcast_to(cfg.tol, len(shifts))
    cls, flip = solvers_mod._conjugate_classes([h.shift for h in rep.shifts], True)
    for i, h in enumerate(rep.shifts):
        if flip[i]:
            r = cls.index(cls[i])
            ref = rep.shifts[r]
            assert replace(h, shift=ref.shift) == ref
            assert h.estimates is not ref.estimates
            assert np.array_equal(xs[i], np.conj(xs[r]))
        if h.converged:
            assert true_relative_residual(A, h.shift, xs[i], b) <= tols[i] * (1 + 1e-6)
        else:
            assert (h.diverged or h.skipped_cycles == 1 or rep.breakdown
                    or rep.budget_exhausted or rep.stalled)


# -- thick restart --------------------------------------------------------


def keep_columns(monkeypatch, keep):
    """Make the solvers' thick restart of an m-step cycle keep ``keep(m)``
    columns; ``lambda m: 0`` is the plain restart."""
    monkeypatch.setattr(solvers_mod, "_thick_keep", keep)


def test_both_processes_keep_columns():
    A, b = random_system(50)
    for solver in (solve_shifted_hessen, solve_shifted_fom):
        _, rep = solver(A, b, [0.0, -1.0], SolverConfig(m=12, tol=1e-12))
        assert rep.all_converged and rep.cycles > 1
        # m // 3 = 4 columns, or 5 to keep a conjugate pair whole
        assert len(rep.kept) == rep.cycles and rep.kept[0] == 0
        assert set(rep.kept[1:]) <= {4, 5}
        assert rep.basis_mvps == sum(12 - k for k in rep.kept)


def thick_family():
    """laplace2d(20) with a normal right-hand side and four complex shifts
    in conjugate pairs: several cycles at m = 20."""
    A = gen_laplace2d(20)
    b = np.random.default_rng(53).standard_normal(A.shape[0])
    return A, b, [-0.5 + 2.0j, -0.5 - 2.0j, 1.0 + 0.5j, 1.0 - 0.5j]


def test_thick_restart_keeps_every_residual_collinear():
    A, b, shifts = thick_family()
    fro = np.linalg.norm(A.values)
    bnorm = np.linalg.norm(b)
    cfg = SolverConfig(m=20, tol=1e-10)
    for solver in (solve_shifted_hessen, solve_shifted_fom):
        off, gaps, identity_err, dtypes = [], [], [], set()

        def watch(info):
            dec = info.decomposition
            identity_err.append(verify_decomposition(A, dec) / fro)
            dtypes.add(dec.basis.dtype)
            lhat = dec.last_vector / np.linalg.norm(dec.last_vector)
            for i in info.active_before:
                x = info.solutions[i]
                r = b - (A._apply(x) - info.shifts[i] * x)
                # measured against |b|: the part off the start vector is a
                # roundoff floor, large next to a residual near tol
                off.append(np.linalg.norm(r - lhat * (lhat.conj() @ r)) / bnorm)
                gaps.append(abs(info.estimates[i] - np.linalg.norm(r) / bnorm))

        xs, rep = solver(A, b, shifts, cfg, on_cycle=watch)
        assert rep.all_converged and rep.cycles >= 3
        # every cycle after the first is continued from m // 3 = 6 kept columns
        assert rep.kept == [0] + [6] * (rep.cycles - 1)
        assert rep.basis_mvps == 20 + (rep.cycles - 1) * 14
        assert max(identity_err) <= 1e-12
        assert max(off) <= 1e-13
        assert max(gaps) <= 1e-13
        # a real operator and right-hand side keep a real basis
        assert dtypes == {np.dtype(np.float64)}
        for s, x in zip(shifts, xs):
            assert true_relative_residual(A, s, x, b) <= 1e-10


def test_thick_restart_takes_fewer_products(monkeypatch):
    A, b, shifts = thick_family()
    cfg = SolverConfig(m=20, tol=1e-10)
    _, thick = solve_shifted_hessen(A, b, shifts, cfg)
    keep_columns(monkeypatch, lambda m: 0)
    _, plain = solve_shifted_hessen(A, b, shifts, cfg)
    assert plain.all_converged and thick.all_converged
    assert plain.kept == [0] * plain.cycles
    assert thick.basis_mvps < plain.basis_mvps


def matfunc_family(nu):
    """shessen through ``eval_rational_action``: laplace2d(20) and the nu
    nodes of the packaged exponential rule nearest the real axis."""
    from shiftkrylov.matfunc import QuadratureRule
    from shiftkrylov import eval_rational_action, load_quadrature, packaged_rule_path

    A = gen_laplace2d(20)
    u0 = np.random.default_rng(54).standard_normal(A.shape[0])
    rule = load_quadrature(packaged_rule_path("exp"), kind="exp")
    by_height = np.argsort(np.abs(rule.nodes.imag) + 1e-9 * (rule.nodes.imag < 0))
    keep = np.sort(by_height[:nu])
    sub = QuadratureRule(rule.nodes[keep], rule.weights[keep], "exp", 1.0)
    _, rep = eval_rational_action(A, u0, sub, SolverConfig(m=30, tol=1e-10),
                                  return_report=True)
    return rep


def sfom_family(nu):
    """sfom on convdiff3d(9) with the first nu shifts of ``arith:1e-3``."""
    A = gen_convdiff3d(9, 1.0, (0.0, 111.8, 223.6), 400.0)
    b = np.random.default_rng(1).standard_normal(A.shape[0])
    shifts = gen_shifts(f"arith:1e-3:{nu}")
    return solve_shifted_fom(A, b, shifts, SolverConfig(m=12, tol=1e-8))[1]


def test_thick_restart_products_do_not_depend_on_the_number_of_shifts():
    for family, sizes in ((matfunc_family, (4, 8, 16)), (sfom_family, (1, 4, 8, 16))):
        counts = set()
        for nu in sizes:
            rep = family(nu)
            # a restart keeping at least m // 3 columns is taken
            assert rep.all_converged and rep.cycles >= 2
            assert min(rep.kept[1:]) >= rep.m // 3
            counts.add(rep.basis_mvps)
        assert len(counts) == 1


def test_budget_counts_the_products_of_a_continued_cycle(monkeypatch):
    # a fresh cycle costs m = 10 products and a continued one 10 - 3; a
    # budget of 17 fits one continued cycle after the first but not a
    # fresh one, which the plain restart shows
    A = laplace1d(60)
    b = np.ones(60)
    cfg = SolverConfig(m=10, tol=1e-14, max_mvps=17)
    _, thick = solve_shifted_hessen(A, b, [0.0], cfg)
    assert (thick.cycles, thick.basis_mvps, thick.kept) == (2, 17, [0, 3])
    assert thick.budget_exhausted and not thick.all_converged
    keep_columns(monkeypatch, lambda m: 0)
    _, plain = solve_shifted_hessen(A, b, [0.0], cfg)
    assert (plain.cycles, plain.basis_mvps) == (1, 10) and plain.budget_exhausted


def test_thick_restart_that_cannot_keep_is_the_plain_restart(monkeypatch):
    # every Ritz value of this operator is one of a conjugate pair, so
    # keeping m - 1 columns would split the pair at the cut and every
    # restart falls back to the plain one, in results and in counted
    # products
    n = 40
    M = np.zeros((n, n))
    for i in range(0, n, 2):
        M[i : i + 2, i : i + 2] = [[1.0 + i, -0.5 - i], [0.5 + i, 1.0 + i]]
    A = csr_from_dense(M)
    b = np.random.default_rng(55).standard_normal(n)
    cfg = SolverConfig(m=8, tol=1e-10)
    for solver in (solve_shifted_hessen, solve_shifted_fom):
        runs = []
        for keep in (lambda m: 0, lambda m: m - 1):
            keep_columns(monkeypatch, keep)
            runs.append(solver(A, b, [0.0, -0.5], cfg))
        (xa, ra), (xb, rb) = runs
        assert ra.cycles >= 2 and rb.kept == [0] * rb.cycles
        assert (ra.cycles, ra.basis_mvps) == (rb.cycles, rb.basis_mvps) == (ra.cycles, 8 * ra.cycles)
        for u, v in zip(xa, xb):
            assert np.array_equal(u, v)
