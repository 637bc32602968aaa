import importlib.util
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import erfc, rgamma, wofz

import shiftkrylov
from shiftkrylov import (
    CsrMatrix,
    DimensionMismatch,
    DuplicateNodes,
    IllConditionedEigenbasis,
    NotConverged,
    ParseError,
    QuadratureRule,
    SolverConfig,
    dense_matfunc_oracle,
    eval_rational_action,
    gen_laplace2d,
    load_quadrature,
    mittag_leffler,
    packaged_rule_path,
    solve_shifted_hessen,
    true_relative_residual,
)
from shiftkrylov.matfunc import _pole_tolerances
from shiftkrylov.solvers import _conjugate_classes


def csr_from_dense(M):
    rows, cols = np.nonzero(M)
    return CsrMatrix.from_triplets(rows, cols, np.asarray(M)[rows, cols], M.shape)


# -- scalar Mittag-Leffler ---------------------------------------------


def test_ml_gamma_one_is_exp():
    for z in (-0.5, -3.0, -40.0, 1.5):
        assert_allclose(mittag_leffler(z, 1.0), np.exp(z), rtol=1e-14)


def test_ml_half_matches_erfc_identity():
    # independent closed form: E_{1/2}(-a) = exp(a^2) erfc(a), checked
    # from the origin to where the value has decayed to about 3e-2
    for a in (0.0, 0.3, 1.0, 5.0, 12.0, 20.0):
        ref = np.exp(a * a) * erfc(a)
        assert_allclose(mittag_leffler(-a, 0.5), ref, rtol=5e-14)


def test_ml_frozen_values():
    assert_allclose(mittag_leffler(-2.5, 0.6), 0.19091670740116978, rtol=1e-13)
    assert_allclose(mittag_leffler(-10.0, 0.8), 0.024902819761976534, rtol=1e-13)
    assert_allclose(mittag_leffler(-50.0, 0.9), 0.0021753530768569766, rtol=1e-13)
    assert mittag_leffler(0.0, 0.7) == 1.0


def test_ml_branches_agree_at_same_argument():
    # continuity across |z| = 30 to a few ulps of the local derivative
    # scale; a change of method placed there would show as a jump
    for g in (0.6, 0.8, 0.95):
        lo = mittag_leffler(-29.9999999, g)
        hi = mittag_leffler(-30.0000001, g)
        assert abs(lo - hi) <= 1e-8 * abs(lo)


def test_ml_complete_monotonicity_on_negative_axis():
    a = np.linspace(0.0, 80.0, 161)
    for g in (0.5, 0.75, 0.9):
        vals = np.array([mittag_leffler(-t, g) for t in a])
        assert vals[0] == 1.0
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)


def test_ml_domain():
    with pytest.raises(ValueError):
        mittag_leffler(-1.0, 0.0)
    with pytest.raises(ValueError):
        mittag_leffler(-1.0, 1.5)


def test_ml_small_gamma_far_from_the_origin():
    # |z|^(1/gamma) used to overflow and raise before the pole was decided.
    # Away from the pole's sector the asymptotic series
    # -sum_k z^-k / Gamma(1 - gamma k) converges fast; a pole far to the
    # left adds nothing, one far to the right overflows to inf
    cases = ((-1e4, 0.01), (-1e40, 0.1), (-1e300, 0.5), (2000j, 0.01),
             (1e4 * np.exp(0.02j), 0.01))
    for z, g in cases:
        ref = -sum(z**-k * rgamma(1.0 - g * k) for k in range(1, 30))
        assert_allclose(mittag_leffler(z, g), ref, rtol=1e-13)
    with np.errstate(over="ignore"):
        assert mittag_leffler(1e4, 0.01) == np.inf
        assert mittag_leffler(1e300, 0.5) == np.inf


def test_ml_near_one_matches_talbot_reference():
    # 30-digit fixed-Talbot inversion of s^(g-1) / (s^g + x) at t = 1;
    # near gamma = 1 the function decays slowly past |z| = 30
    import mpmath

    for g, rtol in ((0.95, 1e-13), (0.99, 1e-13), (0.999, 1e-12)):
        for x in (20.0, 31.0, 45.0, 100.0):
            with mpmath.workdps(30):
                gm = mpmath.mpf(g)
                ref = mpmath.invertlaplace(
                    lambda s: s ** (gm - 1) / (s**gm + x), 1, method="talbot"
                )
            assert_allclose(mittag_leffler(-x, g), float(ref), rtol=rtol)


def test_ml_half_matches_faddeeva_in_the_complex_plane():
    # E_{1/2}(z) = exp(z^2) erfc(-z) = wofz(-i z); the rings cross the
    # sector |arg z| < pi/2 where the pole residue enters
    for r in (0.5, 3.0, 10.0):
        for t in np.linspace(-np.pi, np.pi, 13):
            z = r * np.exp(1j * t)
            assert_allclose(mittag_leffler(z, 0.5), wofz(-1j * z), rtol=1e-13)


def test_ml_positive_axis_is_dominated_by_the_pole():
    # E_g(x) = exp(x^(1/g)) / g + O(1/x) for large positive x
    assert_allclose(mittag_leffler(31.0, 0.8), np.exp(31.0**1.25) / 0.8, rtol=1e-13)


def test_package_import_loads_no_mpmath():
    code = (
        "import sys, shiftkrylov; "
        "assert 'mpmath' not in sys.modules and 'scipy.special' not in sys.modules"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(shiftkrylov.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# -- quadrature rules ---------------------------------------------------


def test_packaged_exp_rule_scalar_accuracy():
    rule = load_quadrature(packaged_rule_path("exp"), kind="exp")
    assert rule.nu == 16
    assert rule.is_conjugate_symmetric()
    a = np.concatenate([[0.0], np.logspace(-4, 5, 61)])
    vals = np.array([rule.evaluate(t) for t in a])
    ref = np.exp(-a)
    err = np.abs(vals - ref) / np.maximum(np.abs(ref), 1e-2)
    assert err.max() <= 1.2e-8


@pytest.mark.parametrize("gamma", [0.6, 0.8, 0.9])
def test_packaged_ml_rule_scalar_accuracy(gamma):
    rule = load_quadrature(packaged_rule_path("ml", gamma), kind="ml", gamma=gamma)
    assert rule.nu == 16
    assert rule.gamma == gamma
    a = np.concatenate([[0.0], np.logspace(-4, 5, 61)])
    vals = np.array([rule.evaluate(t) for t in a])
    ref = np.array([mittag_leffler(-t, gamma) for t in a])
    err = np.abs(vals - ref) / np.maximum(np.abs(ref), 1e-2)
    assert err.max() <= 1.2e-8


def test_packaged_rule_path_validation():
    assert packaged_rule_path("exp").exists()
    with pytest.raises(ValueError):
        packaged_rule_path("ml", 0.7)
    with pytest.raises(ValueError):
        packaged_rule_path("sqrt")


def write_rule(tmp_path, rows, header="re_z,im_z,re_w,im_w"):
    p = tmp_path / "rule.csv"
    lines = [header] + [",".join(repr(float(c)) for c in r) for r in rows]
    p.write_text("\n".join(lines) + "\n")
    return p


def test_load_quadrature_validation(tmp_path):
    good = [(1.0, 2.0, 0.1, 0.2), (1.0, -2.0, 0.1, -0.2)]
    rule = load_quadrature(write_rule(tmp_path, good), kind="exp")
    assert rule.nu == 2
    assert rule.is_conjugate_symmetric()
    assert_allclose(rule.evaluate(1.0), np.real(sum(w / (z + 1.0) for z, w in zip(rule.nodes, rule.weights))))

    with pytest.raises(ParseError):
        load_quadrature(write_rule(tmp_path, good, header="a,b,c,d"), kind="exp")
    with pytest.raises(ParseError):
        p = tmp_path / "short.csv"
        p.write_text("re_z,im_z,re_w,im_w\n1.0,2.0,0.1\n")
        load_quadrature(p, kind="exp")
    with pytest.raises(ParseError):
        load_quadrature(write_rule(tmp_path, [(np.inf, 0, 1, 0)]), kind="exp")
    with pytest.raises(DuplicateNodes):
        load_quadrature(
            write_rule(tmp_path, [(1.0, 2.0, 0.1, 0.2), (1.0, 2.0, 0.3, 0.4)]),
            kind="exp",
        )
    with pytest.raises(ValueError):
        load_quadrature(write_rule(tmp_path, good), kind="ml", gamma=1.5)
    with pytest.raises(ValueError):
        load_quadrature(write_rule(tmp_path, good), kind="cosh")


@pytest.mark.parametrize("text, message", [
    ("re_z,im_z,re_w,im_w\n1.0,x,0.1,0.2\n", "line 2: bad numeric value"),
    ("# only a comment\n", "line 1: missing header"),
    ("", "line 1: missing header"),
    ("re_z,im_z,re_w,im_w\n# no rows\n", "line 1: rule has no nodes"),
    # a byte that is not ASCII fails the number or header check, not the decoder
    ("re_z,im_z,re_w,im_w\n1.0,2.0\u00b2,0.1,0.2\n", "line 2: bad numeric value"),
    ("re_z,im_z,re_w,im_w\u00e9\n1.0,2.0,0.1,0.2\n", "line 1: expected header"),
])
def test_load_quadrature_rejects_a_malformed_file(tmp_path, text, message):
    p = tmp_path / "rule.csv"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=message):
        load_quadrature(p, kind="exp")


def test_asymmetric_rule_detected(tmp_path):
    rows = [(1.0, 2.0, 0.1, 0.2), (3.0, 1.0, 0.1, -0.2)]
    rule = load_quadrature(write_rule(tmp_path, rows), kind="exp")
    assert not rule.is_conjugate_symmetric()


# -- rational action on matrices ---------------------------------------


def laplace1d(n, scale=1.0):
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.append(i)
        cols.append(i)
        vals.append(2.0 * scale)
        if i + 1 < n:
            rows += [i, i + 1]
            cols += [i + 1, i]
            vals += [-scale, -scale]
    return CsrMatrix.from_triplets(rows, cols, vals, (n, n))


def test_exp_action_matches_dense_oracle():
    n = 100
    A = laplace1d(n)
    u0 = np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
    rule = load_quadrature(packaged_rule_path("exp"), kind="exp")
    y, rep = eval_rational_action(A, u0, rule, return_report=True)
    ref = dense_matfunc_oracle(A, u0, lambda lam: np.exp(-lam))
    assert np.linalg.norm(y - ref) <= 1e-7 * np.linalg.norm(ref)
    assert rep.all_converged
    # a real symmetric problem with a conjugate-symmetric rule must
    # produce a real result
    assert not np.iscomplexobj(y)


def test_ml_action_matches_dense_oracle():
    n = 60
    A = laplace1d(n)
    rng = np.random.default_rng(1)
    u0 = rng.standard_normal(n)
    rule = load_quadrature(packaged_rule_path("ml", 0.8), kind="ml", gamma=0.8)
    y = eval_rational_action(A, u0, rule)
    ref = dense_matfunc_oracle(A, u0, lambda lam: mittag_leffler(-lam, 0.8))
    assert np.linalg.norm(y - ref) <= 1e-7 * np.linalg.norm(ref)


def test_action_not_converged_raises():
    A = laplace1d(80)
    u0 = np.ones(80)
    rule = load_quadrature(packaged_rule_path("exp"), kind="exp")
    with pytest.raises(NotConverged) as exc:
        eval_rational_action(A, u0, rule, SolverConfig(m=4, tol=1e-12, max_mvps=12))
    assert len(exc.value.shifts) > 0


def test_dense_oracle_paths():
    # hermitian route
    A = laplace1d(10)
    u0 = np.ones(10)
    y = dense_matfunc_oracle(A, u0, lambda lam: 1.0 / (1.0 + lam))
    w, V = np.linalg.eigh(A.toarray())
    ref = V @ ((V.T @ u0) / (1.0 + w))
    assert_allclose(y, ref, atol=1e-12)
    # non-normal but diagonalizable route
    M = np.array([[1.0, 1.0], [0.0, 2.0]])
    B = csr_from_dense(M)
    yb = dense_matfunc_oracle(B, np.array([1.0, 1.0]), np.exp)
    from scipy.linalg import expm

    assert_allclose(yb, expm(M) @ np.array([1.0, 1.0]), rtol=1e-10)
    # a Jordan block has no usable eigenbasis
    J = csr_from_dense(np.array([[1.0, 1.0], [1e-300, 1.0]]))
    with pytest.raises(IllConditionedEigenbasis):
        dense_matfunc_oracle(J, np.array([1.0, 0.0]), np.exp)


def test_dense_oracle_reads_symmetry_relative_to_the_largest_entry(monkeypatch):
    # every entry of M is below 1e-12, yet M is far from symmetric
    rng = np.random.default_rng(0)
    M = 1e-13 * rng.standard_normal((6, 6))
    u0 = rng.standard_normal(6)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda B: calls.append(B) or eigh(B))
    y = dense_matfunc_oracle(M, u0, lambda lam: lam)
    assert calls == []
    assert np.linalg.norm(y - M @ u0) <= 1e-12 * np.linalg.norm(M @ u0)
    # a tiny symmetric matrix still takes the orthogonal eigenbasis
    B = M + M.T
    y = dense_matfunc_oracle(B, u0, lambda lam: lam)
    assert len(calls) == 1
    assert np.linalg.norm(y - B @ u0) <= 1e-12 * np.linalg.norm(B @ u0)


def test_dense_oracle_keeps_the_imaginary_part_of_a_tiny_complex_action():
    # every entry of the result lies below 1e-12: an absolute floor used to
    # drop its imaginary part, the whole action, for a relative error of 1
    rng = np.random.default_rng(0)
    M = rng.standard_normal((6, 6))
    u0 = rng.standard_normal(6)
    for scale in (1e-13, 1.0, 1e13):
        y = dense_matfunc_oracle(scale * M, u0, lambda lam: 1j * lam)
        ref = 1j * (scale * M) @ u0
        assert np.iscomplexobj(y)
        assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)


def test_dense_oracle_returns_a_strongly_decaying_real_action_as_real():
    # exp(-A) u0 for a scaled convection-diffusion Laplacian: the general
    # eigenbasis leaves imaginary roundoff on a result near 1e-43, which
    # the test relative to the result still drops
    n, c, s = 12, 3.0, 50.0
    A = s * (2.0 * np.eye(n) + np.diag(np.full(n - 1, -1.0 - c), -1)
             + np.diag(np.full(n - 1, -1.0 + c), 1))
    u0 = np.ones(n)
    y = dense_matfunc_oracle(A, u0, lambda lam: np.exp(-lam))
    from scipy.linalg import expm

    ref = expm(-A) @ u0
    assert np.isrealobj(y) and np.abs(ref).max() < 1e-40
    assert np.linalg.norm(y - ref) <= 1e-10 * np.linalg.norm(ref)


# -- per-pole tolerances ------------------------------------------------

PACKAGED_RULES = [("exp", None), ("ml", 0.6), ("ml", 0.8), ("ml", 0.9)]


def packaged_rule(kind, gamma):
    return load_quadrature(packaged_rule_path(kind, gamma), kind=kind, gamma=gamma or 1.0)


def test_pole_tolerances_keep_the_a_priori_bound():
    tol = 1e-10
    for kind, gamma in PACKAGED_RULES:
        w = np.abs(packaged_rule(kind, gamma).weights)
        tols = _pole_tolerances(w, tol)
        # no pole is asked for less than tol, and the heaviest for exactly tol
        assert tols.min() == tol == tols[w.argmax()]
        assert tols.max() < 1.0
        share = w.sum() / w.size
        assert_allclose(tols, tol * np.maximum(1.0, share / w), rtol=1e-15)
        bound = (w * tols).sum()
        assert_allclose(bound, tol * np.maximum(w, share).sum(), rtol=1e-13)
        assert bound <= 2.0 * tol * w.sum()
    # on the exponential rule the bound is about 1.6 times the uniform one
    w = np.abs(packaged_rule("exp", None).weights)
    ratio = (w * _pole_tolerances(w, tol)).sum() / (tol * w.sum())
    assert 1.55 <= ratio <= 1.65


def test_every_pole_meets_its_own_tolerance():
    A = gen_laplace2d(20)
    u0 = np.random.default_rng(3).standard_normal(A.shape[0])
    rule = packaged_rule("exp", None)
    y, rep = eval_rational_action(A, u0, rule, return_report=True)
    tols = _pole_tolerances(rule.weights, 1e-10)
    assert rep.all_converged
    for h, tol_j in zip(rep.shifts, tols):
        assert h.final_relative_residual <= tol_j
    # the light poles stop above the uniform tolerance; the sum keeps its
    # accuracy against the dense oracle
    assert max(h.final_relative_residual for h in rep.shifts) > 1e-10
    ref = dense_matfunc_oracle(A, u0, lambda lam: np.exp(-lam))
    assert np.linalg.norm(y - ref) <= 1e-10 * np.linalg.norm(u0)


def test_folded_partners_have_bitwise_equal_true_residuals():
    # a real operator maps the conjugate iterate and the conjugate shift to
    # the exact conjugate of the representative's residual, so the norms
    # agree to the last bit and one product confirms a folded pair
    A = gen_laplace2d(12)
    u0 = np.random.default_rng(6).standard_normal(A.shape[0])
    rule = packaged_rule("exp", None)
    shifts = [-z for z in rule.nodes]
    cfg = SolverConfig(tol=_pole_tolerances(rule.weights, 1e-10))
    xs, rep = solve_shifted_hessen(A, u0, shifts, cfg)
    assert rep.all_converged
    cls, flip = _conjugate_classes(shifts, True)
    partners = [i for i in range(rule.nu) if flip[i]]
    assert len(partners) == rule.nu // 2
    for i in partners:
        j = cls.index(cls[i])
        assert np.array_equal(xs[i], np.conj(xs[j]))
        assert (true_relative_residual(A, shifts[i], xs[i], u0)
                == true_relative_residual(A, shifts[j], xs[j], u0))
        assert rep.shifts[i].final_relative_residual == rep.shifts[j].final_relative_residual


def test_one_confirmation_product_per_folded_pair():
    A = gen_laplace2d(12)
    u0 = np.random.default_rng(6).standard_normal(A.shape[0])
    rule = packaged_rule("exp", None)
    A.counter.reset()
    _, rep = eval_rational_action(A, u0, rule, return_report=True)
    # every pole converged, each of the 8 folded pairs confirmed once
    assert rep.all_converged
    assert rep.residual_mvps == rule.nu // 2 == 8
    assert A.counter.count == rep.total_mvps


def test_a_rule_conjugate_to_rounding_is_not_symmetric():
    # the solver folds only exact conjugates, so a rule whose lower-half
    # nodes are one ulp off is solved unpaired and its action is complex
    A = gen_laplace2d(12)
    u0 = np.random.default_rng(6).standard_normal(A.shape[0])
    rule = packaged_rule("exp", None)
    lower = rule.nodes.imag < 0
    assert lower.sum() == rule.nu // 2
    nodes = rule.nodes.copy()
    nodes[lower] = np.nextafter(nodes.real, np.inf)[lower] + 1j * nodes.imag[lower]
    moved = QuadratureRule(nodes, rule.weights, "exp", 1.0)
    assert not moved.is_conjugate_symmetric()
    assert np.iscomplexobj(moved.evaluate(1.0))
    y, rep = eval_rational_action(A, u0, moved, return_report=True)
    assert rep.all_converged and rep.residual_mvps == rule.nu
    assert np.iscomplexobj(y)
    assert np.linalg.norm(y - eval_rational_action(A, u0, rule)) <= 1e-9 * np.linalg.norm(u0)


@pytest.mark.parametrize("nodes, weights", [
    # the conjugate node carries a weight that is not the conjugate
    ([1 + 2j, 1 - 2j], [0.1 + 0.2j, 0.1 + 0.2j]),
    # a real node with a complex weight
    ([1.0 + 0j, 2 + 1j, 2 - 1j], [0.5 + 0.1j, 0.3j, -0.3j]),
    # one pair twice against its conjugate once
    ([1 + 2j, 1 + 2j, 1 - 2j], [0.1 + 0.2j, 0.1 + 0.2j, 0.1 - 0.2j]),
])
def test_every_pair_needs_its_exact_conjugate_pair(nodes, weights):
    rule = QuadratureRule(np.array(nodes), np.array(weights))
    assert not rule.is_conjugate_symmetric()
    conj = QuadratureRule(np.conj(rule.nodes), np.conj(rule.weights))
    closed = QuadratureRule(np.concatenate([rule.nodes, conj.nodes]),
                            np.concatenate([rule.weights, conj.weights]))
    assert closed.is_conjugate_symmetric()


@pytest.mark.parametrize("cfg", [SolverConfig(tol=np.full(16, 1e-10)), None])
def test_a_rule_with_fewer_weights_than_nodes_is_rejected(cfg):
    # zip paired the 4 weights with the first 4 of 16 poles: with per-pole
    # tolerances the action came out 4.0e5 (relative) off the full rule's,
    # without them the solve failed on "4 tolerances given for 16 shifts"
    A, u0 = gen_laplace2d(6), np.ones(36)
    rule = packaged_rule("exp", None)
    with pytest.raises(DimensionMismatch, match="same shape"):
        eval_rational_action(A, u0, QuadratureRule(rule.nodes, rule.weights[:4]), cfg)


def test_a_rule_needs_1d_nodes():
    rule = packaged_rule("exp", None)
    with pytest.raises(DimensionMismatch, match="1-d nodes"):
        QuadratureRule(rule.nodes.reshape(4, 4), rule.weights.reshape(4, 4))


def test_hyperbola_rules_are_exactly_conjugate_closed():
    # folding conjugate poles rests on the generator returning exact
    # conjugate pairs; the packaged rules were written by it
    for kind, gamma in PACKAGED_RULES:
        assert packaged_rule(kind, gamma).is_conjugate_symmetric()
    path = Path(__file__).resolve().parents[1] / "tools" / "make_quadrature_rules.py"
    spec = importlib.util.spec_from_file_location("make_quadrature_rules", path)
    make = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make)
    for n in (7, 16, 24):
        for mu in (6.0, 17.3, 31.9):
            for alpha in (0.3, 0.77, 1.3):
                for step in (0.1, 0.23, 0.5):
                    for gamma in (0.6, 0.8, 1.0):
                        z, w = make.hyperbola_rule(n, mu, alpha, step, gamma)
                        rule = QuadratureRule(z, w, "ml", gamma)
                        assert rule.is_conjugate_symmetric(), (n, mu, alpha, step, gamma)


def test_pole_tolerances_never_add_cycles(monkeypatch):
    # the restart vector does not depend on which poles are active, under
    # the solvers' thick restart and under the plain one; under the plain
    # restart the looser light poles also save cycles here, while under
    # the thick one the family converges in too few cycles for that on
    # this operator
    import shiftkrylov.solvers as solvers

    A = gen_laplace2d(20)
    n = A.shape[0]
    saved = {"thick": 0, "plain": 0}
    keep = {"thick": solvers._thick_keep, "plain": lambda m: 0}
    for restart in saved:
        monkeypatch.setattr(solvers, "_thick_keep", keep[restart])
        for kind, gamma in PACKAGED_RULES:
            rule = packaged_rule(kind, gamma)
            for u0 in (np.ones(n), np.random.default_rng(1).standard_normal(n)):
                _, rep = eval_rational_action(A, u0, rule, return_report=True)
                uniform = SolverConfig(tol=np.full(rule.nu, 1e-10))
                _, rep_uniform = eval_rational_action(A, u0, rule, uniform, return_report=True)
                assert rep.cycles <= rep_uniform.cycles
                saved[restart] += rep_uniform.cycles - rep.cycles
    assert saved["plain"] > 0


def test_zero_weights_give_finite_tolerances(monkeypatch):
    import shiftkrylov.matfunc as matfunc

    A = gen_laplace2d(12)
    u0 = np.random.default_rng(4).standard_normal(A.shape[0])
    rule = packaged_rule("exp", None)
    # silence one conjugate pair of nodes
    z = rule.nodes[0]
    pair = np.flatnonzero((rule.nodes == z) | (rule.nodes == z.conjugate()))
    assert pair.size == 2
    weights = rule.weights.copy()
    weights[pair] = 0.0
    muted = QuadratureRule(rule.nodes, weights, "exp", 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tols = _pole_tolerances(muted.weights, 1e-10)
        y = eval_rational_action(A, u0, muted)
    assert np.all(np.isfinite(tols)) and np.all(tols[pair] == 1.0)
    keep = np.setdiff1d(np.arange(rule.nu), pair)
    sub = QuadratureRule(rule.nodes[keep], rule.weights[keep], "exp", 1.0)
    assert np.all(np.isfinite(y))
    assert np.linalg.norm(y - eval_rational_action(A, u0, sub)) <= 1e-10 * np.linalg.norm(u0)

    # a rule of zero weights keeps the uniform scalar tolerance
    seen = []
    inner = matfunc.solve_shifted_hessen

    def spy(A, b, shifts, cfg=None, on_cycle=None):
        seen.append(cfg.tol)
        return inner(A, b, shifts, cfg, on_cycle)

    monkeypatch.setattr(matfunc, "solve_shifted_hessen", spy)
    silent = QuadratureRule(rule.nodes, np.zeros(rule.nu, complex), "exp", 1.0)
    assert _pole_tolerances(silent.weights, 1e-10) == 1e-10
    assert not np.any(eval_rational_action(A, u0, silent))
    assert seen == [1e-10]


def test_family_solve_is_looked_up_in_matfunc(monkeypatch):
    # the benchmark's tracing and tools/parity.py intercept the family
    # solve under this name
    import shiftkrylov.matfunc as matfunc

    calls, results = [], []
    inner = matfunc.solve_shifted_hessen

    def spy(A, b, shifts, cfg=None, on_cycle=None):
        calls.append((shifts, cfg))
        results.append(inner(A, b, shifts, cfg, on_cycle))
        return results[-1]

    monkeypatch.setattr(matfunc, "solve_shifted_hessen", spy)
    A = gen_laplace2d(10)
    rule = packaged_rule("ml", 0.8)
    _, rep = eval_rational_action(A, np.ones(100), rule, return_report=True)
    assert len(calls) == 1
    shifts, cfg = calls[0]
    assert_allclose(shifts, -rule.nodes, rtol=0)
    assert_allclose(cfg.tol, _pole_tolerances(rule.weights, 1e-10), rtol=0)
    assert results[0][1] is rep


def test_not_converged_names_the_own_tolerances():
    A = laplace1d(80)
    rule = packaged_rule("exp", None)
    with pytest.raises(NotConverged, match="own tolerance") as exc:
        eval_rational_action(A, np.ones(80), rule, SolverConfig(m=4, tol=1e-12, max_mvps=12))
    tols = _pole_tolerances(rule.weights, 1e-12)
    missed = [tols[list(-rule.nodes).index(s)] for s in exc.value.shifts]
    assert f"{min(missed):.3g}" in str(exc.value)
