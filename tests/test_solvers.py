import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

import shiftkrylov.solvers as solvers_mod
from shiftkrylov import (
    AllShiftsStalled,
    CsrMatrix,
    DimensionMismatch,
    InvalidDimensions,
    NonFiniteInput,
    SingularReducedSystem,
    SolverConfig,
    ZeroStartVector,
    gen_laplace2d,
    identity,
    solve_hessen,
    solve_shifted_fom,
    solve_shifted_hessen,
    true_relative_residual,
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
    x, rep = solve_hessen(A, b, x0=x0, cfg=SolverConfig(m=20, tol=1e-10))
    assert_allclose(x, x_ref, atol=1e-8 * np.linalg.norm(x_ref))
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
    # without breakdown every cycle runs exactly m basis products
    assert not rep.breakdown
    assert rep.basis_mvps == rep.cycles * cfg.m
    # one confirmation per retirement at least; never more than one per
    # shift per cycle
    assert rep.residual_mvps >= rep.num_converged
    assert rep.residual_mvps <= rep.cycles * len(rep.shifts)
    # the matrix-level counter saw every counted product and nothing else
    assert A.counter.count == rep.total_mvps


def test_budget_is_respected():
    # small cycles on an ill conditioned Laplacian cannot reach 1e-14, so
    # the solve must stop at the last whole cycle that fits the budget
    A = laplace1d(60)
    b = np.ones(60)
    cfg = SolverConfig(m=5, tol=1e-14, max_mvps=23)
    xs, rep = solve_shifted_hessen(A, b, [0.0], cfg)
    assert rep.basis_mvps <= cfg.max_mvps
    assert rep.cycles == 4
    assert rep.basis_mvps == 20
    assert not rep.all_converged
    assert rep.dagger_flags == [True]
    h = rep.shifts[0]
    assert np.isfinite(h.final_relative_residual)
    assert len(h.estimates) == 1 + rep.cycles


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


def test_skipped_shift_stays_active_and_tracked(monkeypatch):
    # force one singular reduced system for the second shift in the first
    # cycle; the shift loses collinearity and carries an explicit residual
    # from then on.  That residual recurrence must keep agreeing with a
    # directly evaluated true residual, cycle after cycle.
    A, b = random_system(10)
    shifts = [0.0, -0.7]
    real_solver = solvers_mod.solve_shifted_hessenberg
    state = {"fired": False}

    def flaky(H, sigma, beta):
        target = sigma == -0.7
        if not state["fired"] and target.any():
            state["fired"] = True
            raise SingularReducedSystem(
                "injected", singular=target, solution=real_solver(H, sigma, beta)
            )
        return real_solver(H, sigma, beta)

    monkeypatch.setattr(solvers_mod, "solve_shifted_hessenberg", flaky)
    drift = []

    def watch(info):
        if 1 in info.active_before and info.skipped == ():
            est = info.estimates[1]
            tr = true_relative_residual(A, -0.7, info.solutions[1], b)
            drift.append(abs(est - tr))

    xs, rep = solve_shifted_hessen(
        A, b, shifts, SolverConfig(m=15, tol=1e-9, max_mvps=300), on_cycle=watch
    )
    assert rep.shifts[0].converged
    assert rep.shifts[0].skipped_cycles == 0
    assert rep.shifts[1].skipped_cycles == 1
    # the skip itself costs no products: accounting still holds
    assert rep.total_mvps == rep.basis_mvps + rep.residual_mvps
    assert drift and max(drift) <= 1e-9


def test_all_shifts_stalled(monkeypatch):
    A, b = random_system(11)

    def always_singular(H, sigma, beta):
        singular = np.ones(len(sigma), dtype=bool)
        raise SingularReducedSystem(
            "injected", singular=singular, solution=np.full((len(sigma), len(H)), np.nan)
        )

    def anchored_singular(H, rhs):
        raise SingularReducedSystem("injected")

    monkeypatch.setattr(solvers_mod, "solve_shifted_hessenberg", always_singular)
    monkeypatch.setattr(solvers_mod, "solve_hessenberg", anchored_singular)
    with pytest.raises(AllShiftsStalled) as exc:
        solve_shifted_hessen(A, b, [0.0, -1.0], SolverConfig(m=10))
    rep = exc.value.report
    assert rep.cycles == 3
    assert not any(h.converged for h in rep.shifts)
    assert all(h.skipped_cycles == 3 for h in rep.shifts)


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


def test_stagnation_flag_on_frozen_estimate(monkeypatch):
    # a shift that skips every cycle keeps a bit-identical estimate; after
    # three unchanged cycles the stagnation flag must latch.  Once it is
    # the only active shift, three all-skip cycles abandon the solve.
    A, b = random_system(14)

    def singular_for_target(H, sigma, beta):
        target = sigma == -0.7
        if target.any():
            raise SingularReducedSystem(
                "injected",
                singular=target,
                solution=solve_shifted_hessenberg_real(H, sigma, beta),
            )
        return solve_shifted_hessenberg_real(H, sigma, beta)

    def always_singular(H, rhs):
        raise SingularReducedSystem("injected")

    solve_shifted_hessenberg_real = solvers_mod.solve_shifted_hessenberg
    monkeypatch.setattr(solvers_mod, "solve_shifted_hessenberg", singular_for_target)
    monkeypatch.setattr(solvers_mod, "solve_hessenberg", always_singular)
    with pytest.raises(AllShiftsStalled) as exc:
        solve_shifted_hessen(A, b, [0.0, -0.7], SolverConfig(m=15, tol=1e-9))
    rep = exc.value.report
    assert rep.shifts[0].converged
    # the converged solution survives the abandoned solve
    assert true_relative_residual(A, 0.0, exc.value.xs[0], b) <= 1e-9
    bad = rep.shifts[1]
    assert not bad.converged
    assert bad.stagnated
    assert bad.skipped_cycles == rep.cycles
    assert len(set(bad.estimates[1:])) == 1


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
