import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shiftkrylov.solvers as solvers

from shiftkrylov import (
    CsrMatrix,
    InvalidDimensions,
    PROCESS_NAMES,
    SolverConfig,
    attach_costs,
    gen_laplace2d,
    predicted_flops,
    solve_shifted_fom,
    solve_shifted_hessen,
)


def reference_costs(m, n, nnz):
    # per-cycle flop counts written down independently of the library:
    # every process pays 2*m*nnz for the products; orthogonalization is
    # m(m+1)n with a triangular saving for the pivoted process, 2m(m+1)n
    # for plain inner products, and half as much again with weights
    sparse = 2 * m * nnz
    hess = sparse + m * (m + 1) * n - (m - 1) * m * (m + 1) // 3
    arno = sparse + 2 * m * (m + 1) * n
    weighted = sparse + 5 * m * (m + 1) * n // 2
    return {"hessenberg": hess, "arnoldi": arno, "weighted_arnoldi": weighted}


def test_known_values():
    # m=2, n=4, nnz=10: sparse part 40;
    #   hessenberg 40 + 2*3*4 - 1*2*3/3 = 62
    #   arnoldi    40 + 2*2*3*4 = 88
    #   weighted   40 + 5*2*3*4/2 = 100
    assert predicted_flops("hessenberg", 2, 4, 10) == 62
    assert predicted_flops("arnoldi", 2, 4, 10) == 88
    assert predicted_flops("weighted_arnoldi", 2, 4, 10) == 100


def test_against_reference_formulas():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = int(rng.integers(1, 60))
        n = int(rng.integers(m, 5000))
        nnz = int(rng.integers(0, 12 * n))
        ref = reference_costs(m, n, nnz)
        for name in PROCESS_NAMES:
            got = predicted_flops(name, m, n, nnz)
            assert got == ref[name]
            assert isinstance(got, int)


@settings(derandomize=True, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=200),
    extra=st.integers(min_value=0, max_value=10000),
    nnz=st.integers(min_value=0, max_value=10**6),
)
def test_ordering_holds_everywhere(m, extra, nnz):
    n = m + extra
    hess = predicted_flops("hessenberg", m, n, nnz)
    arno = predicted_flops("arnoldi", m, n, nnz)
    weighted = predicted_flops("weighted_arnoldi", m, n, nnz)
    # the pivoted process is strictly cheaper, weights strictly dearer
    assert hess < arno < weighted
    assert hess > 0


def test_validation():
    with pytest.raises(InvalidDimensions):
        predicted_flops("hessenberg", 0, 4, 10)
    with pytest.raises(InvalidDimensions):
        predicted_flops("hessenberg", 5, 4, 10)
    with pytest.raises(InvalidDimensions):
        predicted_flops("hessenberg", 2, 4, -1)
    with pytest.raises(ValueError):
        predicted_flops("lanczos", 2, 4, 10)


def diag_problem(n=50):
    A = CsrMatrix.from_triplets(range(n), range(n), np.linspace(1, 2, n), (n, n))
    return A, np.ones(n)


def test_attach_costs_uses_report_dimensions(monkeypatch):
    # under the plain restart every cycle runs all m steps
    monkeypatch.setattr(solvers, "_thick_keep", lambda m: 0)
    A, b = diag_problem()
    xs, rep = solve_shifted_hessen(A, b, [0.0, -0.5], SolverConfig(m=10, tol=1e-10))
    attach_costs(rep)
    per_cycle = predicted_flops("hessenberg", rep.m, rep.n, rep.nnz)
    nu = len(rep.shifts)
    assert rep.predicted_flops == rep.cycles * per_cycle + rep.cycles * nu * rep.m**2
    xs, rep_f = solve_shifted_fom(A, b, [0.0, -0.5], SolverConfig(m=10, tol=1e-10))
    attach_costs(rep_f)
    per_cycle_f = predicted_flops("arnoldi", rep_f.m, rep_f.n, rep_f.nnz)
    assert rep_f.predicted_flops == rep_f.cycles * per_cycle_f + rep_f.cycles * nu * rep_f.m**2


def thick_charge(rep):
    # a continued cycle runs steps k+1..m, each costing what it costs in a
    # fresh cycle, and forms the kept block V Q_k with 2 n m k flops;
    # Arnoldi step j pays 2j inner products and updates of length n
    m, n, nu = rep.m, rep.n, len(rep.shifts)
    if rep.solver == "sfom":
        steps = [2 * rep.nnz + 4 * j * n for j in range(1, m + 1)]
    else:
        steps = [2 * rep.nnz + 2 * j * n - j * (j - 1) for j in range(1, m + 1)]
    return sum(sum(steps[k:]) + 2 * n * m * k for k in rep.kept) + rep.cycles * nu * m**2


def test_attach_costs_charges_the_steps_a_thick_restart_runs():
    A = gen_laplace2d(12)
    b = np.random.default_rng(2).standard_normal(A.shape[0])
    for solver in (solve_shifted_hessen, solve_shifted_fom):
        xs, rep = solver(A, b, [0.0, -0.5], SolverConfig(m=10, tol=1e-10))
        # every cycle after the first continued from m // 3 = 3 columns, or
        # from 4 where a tie of modulus sat at the cut
        assert rep.cycles >= 3 and rep.kept[0] == 0 and set(rep.kept[1:]) <= {3, 4}
        assert rep.basis_mvps == sum(10 - k for k in rep.kept)
        attach_costs(rep)
        assert rep.predicted_flops == thick_charge(rep)


def rotation_blocks(n=40):
    # block diagonal 2 x 2 rotations and scalings: every Ritz value of a
    # short run is one of a conjugate pair
    M = np.zeros((n, n))
    for i in range(0, n, 2):
        M[i : i + 2, i : i + 2] = [[1.0 + i, -0.5 - i], [0.5 + i, 1.0 + i]]
    rows, cols = np.nonzero(M)
    return CsrMatrix.from_triplets(rows, cols, M[rows, cols], M.shape)


def test_attach_costs_charges_a_pair_kept_whole_and_a_fallback(monkeypatch):
    A = rotation_blocks()
    b = np.random.default_rng(3).standard_normal(A.shape[0])
    cfg = SolverConfig(m=9, tol=1e-10)
    # a restart keeps m // 3 = 3 columns, or 4 where the cut would split
    # a conjugate pair; both happen here
    xs, rep = solve_shifted_hessen(A, b, [0.0, -0.5], cfg)
    assert rep.kept[0] == 0 and set(rep.kept[1:]) == {3, 4}
    assert rep.basis_mvps == sum(9 - k for k in rep.kept)
    attach_costs(rep)
    assert rep.predicted_flops == thick_charge(rep)
    # keeping m - 1 = 8 would keep all 9 columns: every restart falls back
    # to the plain one and each cycle is charged as a fresh one
    monkeypatch.setattr(solvers, "_thick_keep", lambda m: m - 1)
    xs, rep = solve_shifted_hessen(A, b, [0.0, -0.5], cfg)
    assert rep.cycles >= 2 and rep.kept == [0] * rep.cycles
    attach_costs(rep)
    per_cycle = predicted_flops("hessenberg", rep.m, rep.n, rep.nnz)
    assert rep.predicted_flops == thick_charge(rep) == rep.cycles * (per_cycle + 2 * 81)
