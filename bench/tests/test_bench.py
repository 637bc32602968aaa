"""Tests of the benchmark's own machinery.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import time

import mpmath
import numpy as np
import pytest

import shiftkrylov as sk
import tracing
import workloads
from run import quantile, tail_level, timed_call


def _report_fields(report):
    return (
        report.cycles,
        report.basis_mvps,
        report.residual_mvps,
        report.breakdown,
        [(h.converged, h.cycles, h.skipped_cycles, h.estimates, h.final_relative_residual)
         for h in report.shifts],
    )


@pytest.mark.parametrize("solve", [sk.solve_shifted_hessen, sk.solve_shifted_fom])
def test_proxy_and_wrappers_leave_the_solve_unchanged(solve):
    A = sk.gen_convdiff3d(6, 1.0, (0.0, 20.0, 40.0), 10.0)
    b = np.random.default_rng(0).standard_normal(A.shape[0])
    shifts = sk.gen_shifts("arith:0.1:4")
    cfg = sk.SolverConfig(m=10, tol=1e-8)
    xs_raw, rep_raw = solve(A, b, shifts, cfg)

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        xs_prx, rep_prx = solve(tracing.TimedOperator(A, tracer), b, shifts, cfg)

    assert rep_raw.cycles > 1
    assert _report_fields(rep_prx) == _report_fields(rep_raw)
    for x, y in zip(xs_raw, xs_prx):
        np.testing.assert_array_equal(x, y)
    names = {s.name for s in tracer.spans}
    assert {"sparse.matvec", "sparse.norm_inf", "reduced.solve_shifted_hessenberg"} <= names
    # the wrappers are gone again
    assert sk.solvers.run_hessenberg is sk.processes.run_hessenberg


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    outer, a, b = tracer.spans
    own = tracer.self_times()
    assert a.parent == b.parent == 0 and outer.parent == -1
    assert own[0] == pytest.approx((outer.end - outer.start) - (a.end - a.start)
                                   - (b.end - b.start))


def test_dst_reference_matches_dense_oracle():
    A = sk.gen_laplace2d(8)
    u0 = np.random.default_rng(1).standard_normal(64)
    ref = workloads.laplace2d_exp_reference(8, u0)
    oracle = sk.dense_matfunc_oracle(A, u0, lambda lam: np.exp(-lam))
    assert np.linalg.norm(ref - oracle) <= 1e-12 * np.linalg.norm(oracle)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_fixes_the_inputs(name, tmp_path):
    w = workloads.make(name)
    w.setup(str(tmp_path))

    def first(seed, count=5):
        gen = w.inputs(seed)
        return [np.asarray(next(gen), dtype=float) for _ in range(count)]

    a, again, other = first(1), first(1), first(2)
    for x, y in zip(a, again):
        np.testing.assert_array_equal(x, y)
    assert all(not np.array_equal(x, y) for x, y in zip(a, other))


def test_ml_block_fills_every_cell_equally():
    for seed in (1, 2):
        block = workloads.ml_block(seed, workloads.TIMED, 0)
        cells = {}
        for gamma, z in block:
            assert z < 0 and 0.1 <= -z < 100.0
            decade = int(np.floor(np.log10(-z)))
            cells[(gamma, decade)] = cells.get((gamma, decade), 0) + 1
        expected = {(g, d) for g in workloads.ML_GAMMAS for d in workloads.ML_DECADES}
        assert set(cells) == expected
        assert set(cells.values()) == {workloads.ML_PER_CELL}


def test_ml_reference_is_mpmath_talbot():
    ref = workloads.MlReference()
    for gamma, z in [(0.6, -0.5), (0.6, -29.0), (0.8, -7.0), (0.9, -45.0)]:
        x = mpmath.mpf(-z)
        with mpmath.workdps(30):
            direct = mpmath.invertlaplace(lambda s: s**(gamma - 1) / (s**gamma + x), 1,
                                          method="talbot")
        assert ref(z, gamma) == pytest.approx(float(direct), rel=1e-15, abs=0)
        assert abs(sk.mittag_leffler(z, gamma) - ref(z, gamma)) <= 1e-13 * abs(ref(z, gamma))


def test_quantile_and_tail_level():
    x = list(range(1, 102))
    assert quantile(x, 0.5) == pytest.approx(51.0)
    assert tail_level(43) == 76.7
    assert tail_level(1000) == 99.0
    assert tail_level(12) == 50.0


def test_call_time_is_cpu_time_and_wall_time_is_kept():
    class Sleeper:
        span_name = "sleeper"

        def call(self, op, inp):
            time.sleep(inp)

    c = timed_call(Sleeper(), None, 0, 0.2)
    assert c.wall >= 0.2
    assert c.seconds < 0.05
