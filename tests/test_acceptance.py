"""End-to-end acceptance checks for the solver stack.

Each test covers one advertised guarantee and prints a single
PASS/FAIL line with the measured figures, so ``pytest -s`` reads as a
checklist.  Tolerances are pinned; nothing here is tuned at runtime.
"""

import time

import numpy as np
import pytest
import scipy.linalg

from shiftkrylov import (
    CsrMatrix,
    SolverConfig,
    collinearity_scalar,
    dense_matfunc_oracle,
    eval_rational_action,
    gen_convdiff3d,
    identity,
    load_quadrature,
    packaged_rule_path,
    predicted_flops,
    run_hessenberg,
    solve_hessen,
    solve_hessenberg,
    solve_shifted_fom,
    solve_shifted_hessen,
    verify_decomposition,
)
from shiftkrylov.matfunc import QuadratureRule


def _verdict(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def _sparse_random(seed, n, density, dominance):
    """Random sparse nonsymmetric matrix with an adjustable diagonal."""
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    dense += np.diag(dominance + 0.1 * rng.standard_normal(n))
    rows, cols = np.nonzero(dense)
    return CsrMatrix.from_triplets(rows, cols, dense[rows, cols], dense.shape)


# ---------------------------------------------------------------------------
# shared corpora / problems


@pytest.fixture(scope="module")
def decomposition_corpus():
    """50 random sparse matrices with their pivoted decompositions."""
    rng = np.random.default_rng(2024)
    runs = []
    t0 = time.perf_counter()
    for _ in range(50):
        n = int(rng.integers(50, 501))
        nnz = max(1, int(0.01 * n * n))
        A = CsrMatrix.from_triplets(
            rng.integers(0, n, nnz),
            rng.integers(0, n, nnz),
            rng.standard_normal(nnz),
            (n, n),
        )
        v = rng.standard_normal(n)
        runs.append((A, v, run_hessenberg(A, v, min(20, n))))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def convection_problem():
    """Convection-diffusion-reaction family solved with the Hessenberg solver."""
    A = gen_convdiff3d(9, 1.0, (0.0, 250.0 / np.sqrt(5.0), 500.0 / np.sqrt(5.0)), 400.0)
    n = A.shape[0]
    b = np.ones(n)
    shifts = [-(j + 1) * 1e-3 for j in range(8)]
    cfg = SolverConfig(m=30, tol=1e-8, max_mvps=4000)
    t0 = time.perf_counter()
    xs, report = solve_shifted_hessen(A, b, shifts, cfg)
    elapsed = time.perf_counter() - t0
    dense = A.toarray()
    oracle = [
        np.linalg.solve(dense - s * np.eye(n), b) for s in shifts
    ]
    return {
        "A": A,
        "b": b,
        "shifts": shifts,
        "cfg": cfg,
        "xs": xs,
        "report": report,
        "oracle": oracle,
        "elapsed": elapsed,
    }


# ---------------------------------------------------------------------------
# 1-2: pivoted decomposition


def test_01_decomposition_identity(decomposition_corpus):
    runs, elapsed = decomposition_corpus
    worst = 0.0
    for A, _, dec in runs:
        fro = np.linalg.norm(A.values)
        worst = max(worst, verify_decomposition(A, dec) / fro)
    _verdict(
        "criterion 01",
        worst <= 1e-12 and elapsed < 5.0,
        f"decomposition identity on 50 random sparse matrices: worst "
        f"residual/||A||_F = {worst:.2e} (<= 1e-12), built in {elapsed:.2f}s (< 5s)",
    )


def test_02_basis_structure(decomposition_corpus):
    runs, _ = decomposition_corpus
    exact = True
    for _, _, dec in runs:
        perm = dec.perm
        for j in range(dec.basis.shape[1]):
            col = dec.basis[:, j]
            if np.max(np.abs(col)) != 1.0 or col[perm[j]] != 1.0:
                exact = False
            if j > 0 and np.any(col[perm[:j]] != 0.0):
                exact = False
    _verdict(
        "criterion 02",
        exact,
        "every basis vector has exact zeros above its pivot, an exact unit "
        "pivot entry, and max-norm exactly 1 on the same 50-matrix corpus",
    )


# ---------------------------------------------------------------------------
# 3: residual estimate equals the true residual


def test_03_residual_formula():
    A = _sparse_random(42, 200, 0.03, 3.5)
    rng = np.random.default_rng(7)
    b = rng.standard_normal(200)
    bnorm = np.linalg.norm(b)
    dec = run_hessenberg(A, b, 30)
    assert not dec.breakdown
    worst = 0.0
    span = (1.0, 0.0)
    for m in range(5, 31):
        rhs = np.zeros(m)
        rhs[0] = dec.beta
        y = solve_hessenberg(dec.hbar[:m, :m], rhs)
        x = dec.basis[:, :m] @ y
        estimate = abs(collinearity_scalar(dec.hbar[m, m - 1], y)) * np.linalg.norm(
            dec.basis[:, m]
        )
        true = np.linalg.norm(b - A._apply(x))
        if true / bnorm > 1e-12:
            worst = max(worst, abs(estimate - true) / true)
            span = (min(span[0], true / bnorm), max(span[1], true / bnorm))
    _verdict(
        "criterion 03",
        worst <= 1e-6,
        f"unrestarted estimate vs true residual, m=5..30: worst relative gap "
        f"{worst:.2e} (<= 1e-6) over true residuals in [{span[0]:.1e}, {span[1]:.1e}]",
    )


# ---------------------------------------------------------------------------
# 4: shifted residuals stay collinear with the last basis vector


def test_04_shifted_collinearity():
    A = _sparse_random(40, 300, 0.02, 2.6)
    b = np.ones(300)
    shifts = [-(j + 1) * 1e-3 for j in range(6)]
    angles = []

    def watch(info):
        dec = info.decomposition
        if dec.last_vector is None:
            return
        lhat = dec.last_vector / np.linalg.norm(dec.last_vector)
        for i in info.active_before:
            x = info.solutions[i]
            r = b - (A._apply(x) - info.shifts[i] * x)
            rnorm = np.linalg.norm(r)
            angles.append(np.linalg.norm(r - lhat * (lhat.conj() @ r)) / rnorm)

    t0 = time.perf_counter()
    _, report = solve_shifted_hessen(
        A, b, shifts, SolverConfig(m=20, tol=1e-2, max_mvps=2000), on_cycle=watch
    )
    elapsed = time.perf_counter() - t0
    worst = max(angles)
    _verdict(
        "criterion 04",
        worst <= 1e-10 and report.num_converged == 6 and report.cycles >= 3 and elapsed < 2.0,
        f"sin angle(residual, last basis vector) over {len(angles)} "
        f"cycle/shift pairs: worst {worst:.2e} (<= 1e-10), "
        f"{report.cycles} cycles, {elapsed:.2f}s (< 2s)",
    )


# ---------------------------------------------------------------------------
# 5-6: family solver vs single solver, and shift-count economy


@pytest.fixture(scope="module")
def well_conditioned_400():
    A = _sparse_random(41, 400, 0.015, 4.0)
    return A, np.ones(400)


def test_05_single_system_equivalence(well_conditioned_400):
    A, b = well_conditioned_400
    cfg = SolverConfig(m=20, tol=1e-10, max_mvps=4000)
    worst = 0.0
    lengths = []
    for sigma in (0.3, -0.5, -1.2):
        _, family = solve_shifted_hessen(A, b, [sigma], cfg)
        _, single = solve_hessen(A.shifted(sigma), b, cfg=cfg)
        ef = family.shifts[0].estimates
        es = single.shifts[0].estimates
        lengths.append(len(ef) == len(es))
        for u, v in zip(ef, es):
            if max(u, v) > 1e-12:
                worst = max(worst, abs(u - v) / max(u, v))
    _verdict(
        "criterion 05",
        all(lengths) and worst <= 1e-8,
        f"family solve with one shift vs plain solve on the shifted matrix, "
        f"3 shifts: estimate sequences equal length, worst relative "
        f"difference {worst:.2e} (<= 1e-8)",
    )


def test_06_mvp_economy(well_conditioned_400):
    A, b = well_conditioned_400
    shifts = [-(j + 1) * 1e-3 for j in range(12)]
    cfg = SolverConfig(m=20, tol=1e-8, max_mvps=4000)
    basis_counts = set()
    ok = True
    detail = []
    for nu in (1, 4, 12):
        _, report = solve_shifted_hessen(A, b, shifts[:nu], cfg)
        basis_counts.add(report.basis_mvps)
        extra = report.total_mvps - report.basis_mvps
        ok = ok and report.all_converged and extra <= nu * report.cycles
        detail.append(f"nu={nu}: basis={report.basis_mvps} extra={extra}")
    _verdict(
        "criterion 06",
        ok and len(basis_counts) == 1,
        "basis-building product counts identical across shift-family sizes "
        f"({'; '.join(detail)}); extras bounded by nu per cycle",
    )


# ---------------------------------------------------------------------------
# 7-8: convection-diffusion-reaction benchmark problem


def test_07_convection_family_converges(convection_problem):
    p = convection_problem
    report = p["report"]
    worst = max(
        np.linalg.norm(x - ref) / np.linalg.norm(ref)
        for x, ref in zip(p["xs"], p["oracle"])
    )
    _verdict(
        "criterion 07",
        report.all_converged
        and report.total_mvps <= 4000
        and worst <= 1e-6
        and p["elapsed"] < 10.0,
        f"8-shift convection-diffusion-reaction solve: all converged in "
        f"{report.total_mvps} products (<= 4000), worst error vs dense LU "
        f"{worst:.2e} (<= 1e-6), {p['elapsed']:.2f}s (< 10s)",
    )


def test_08_cross_solver_parity(convection_problem):
    p = convection_problem
    xs_f, rep_f = solve_shifted_fom(p["A"], p["b"], p["shifts"], p["cfg"])
    worst = max(
        np.linalg.norm(xh - xf) / np.linalg.norm(xh)
        for xh, xf in zip(p["xs"], xs_f)
    )
    mh, mf = p["report"].total_mvps, rep_f.total_mvps
    _verdict(
        "criterion 08",
        rep_f.all_converged
        and worst <= 1e-6
        and abs(mh - mf) <= 0.5 * min(mh, mf),
        f"Hessenberg vs FOM on the same family: both converged, worst "
        f"solution gap {worst:.2e} (<= 1e-6), products {mh} vs {mf} "
        f"(within 50%)",
    )


# ---------------------------------------------------------------------------
# 9: flop cost model


def test_09_cost_model():
    def per_step(kind, m, n, nz):
        # independent arrangement: accumulate the per-step work instead of
        # using the closed forms
        total = 0
        for j in range(1, m + 1):
            total += 2 * nz
            if kind == "hessenberg":
                total += 2 * j * n - j * (j - 1)
            elif kind == "arnoldi":
                total += 4 * j * n
            elif kind == "weighted_arnoldi":
                total += 5 * j * n
        return total

    rng = np.random.default_rng(99)
    exact = True
    ordered = True
    for _ in range(100):
        m = int(rng.integers(1, 200))
        n = int(rng.integers(m + 1, 5000))
        nz = int(rng.integers(n, 20 * n))
        triple = {
            kind: predicted_flops(kind, m, n, nz)
            for kind in ("hessenberg", "arnoldi", "weighted_arnoldi")
        }
        for kind, value in triple.items():
            if value != per_step(kind, m, n, nz):
                exact = False
        if not (
            triple["hessenberg"] < triple["arnoldi"] < triple["weighted_arnoldi"]
        ):
            ordered = False
    _verdict(
        "criterion 09",
        exact and ordered,
        "per-cycle flop model matches an independently coded per-step "
        "accumulation exactly on 100 random (m, n, nnz) triples, with "
        "hessenberg < arnoldi < weighted_arnoldi throughout",
    )


# ---------------------------------------------------------------------------
# 10: matrix-function action


def test_10_matrix_function_action():
    n = 100
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.append(i)
        cols.append(i)
        vals.append(2.0)
        if i + 1 < n:
            rows += [i, i + 1]
            cols += [i + 1, i]
            vals += [-1.0, -1.0]
    A = CsrMatrix.from_triplets(rows, cols, np.array(vals), (n, n))
    u0 = np.ones(n)
    rule = load_quadrature(packaged_rule_path("exp"), kind="exp")

    result, report = eval_rational_action(A, u0, rule, return_report=True)
    oracle = dense_matfunc_oracle(A, u0, lambda lam: np.exp(-lam))
    rel = np.linalg.norm(result - oracle) / np.linalg.norm(oracle)

    # product counts must not depend on the number of quadrature nodes:
    # rerun with conjugate-closed subsets of the same rule
    by_height = np.argsort(np.abs(rule.nodes.imag) + 1e-9 * (rule.nodes.imag < 0))
    basis_counts = set()
    for k in (4, 8, 16):
        keep = np.sort(by_height[:k])
        sub = QuadratureRule(rule.nodes[keep], rule.weights[keep], "exp", 1.0)
        _, rep_k = eval_rational_action(A, u0, sub, return_report=True)
        basis_counts.add(rep_k.basis_mvps)
        # one confirmation product per folded conjugate pair of poles
        assert rep_k.residual_mvps == k // 2

    ml_rule = load_quadrature(packaged_rule_path("exp"), kind="ml", gamma=1.0)
    via_ml = eval_rational_action(A, u0, ml_rule)
    ml_gap = np.max(np.abs(via_ml - result)) / np.max(np.abs(result))

    _verdict(
        "criterion 10",
        rel <= 1e-6 and len(basis_counts) == 1 and ml_gap <= 1e-12,
        f"exp action on the 1-D Laplacian: error vs dense oracle {rel:.2e} "
        f"(<= 1e-6); basis products {report.basis_mvps} identical for 4/8/16 "
        f"node rules; Mittag-Leffler pathway at gamma=1 within {ml_gap:.1e} "
        f"(<= 1e-12)",
    )


# ---------------------------------------------------------------------------
# 11: happy breakdown


def test_11_happy_breakdown():
    rng = np.random.default_rng(3)
    b = rng.standard_normal(12)

    # scaling by the largest entry and back costs one rounding each way,
    # so "exact" means bitwise when that round trip is trivial (max entry
    # 1) and one ulp otherwise
    x, report = solve_hessen(identity(12), b)
    x1, rep1 = solve_hessen(identity(12), np.ones(12))
    dec = run_hessenberg(identity(12), b, 5)
    first_ok = (
        report.cycles == 1
        and report.breakdown
        and np.allclose(x, b, rtol=1e-15, atol=0.0)
        and rep1.breakdown
        and np.array_equal(x1, np.ones(12))
        and dec.breakdown
        and dec.steps == 1
        and dec.hbar[1, 0] == 0.0
    )

    idx = np.arange(12)
    two = CsrMatrix.from_triplets(idx, idx, np.full(12, 2.0), (12, 12))
    xs, rep2 = solve_shifted_hessen(two, b, [0.0, 1.0])
    second_ok = (
        rep2.all_converged
        and np.allclose(xs[0], b / 2.0, rtol=1e-15, atol=0.0)
        and np.allclose(xs[1], b, rtol=1e-15, atol=0.0)
    )

    _verdict(
        "criterion 11",
        first_ok and second_ok,
        "identity matrix solved exactly in one cycle with a zero "
        "subdiagonal reported; 2I with shifts {0, 1} returns b/2 and b to "
        "roundoff",
    )
