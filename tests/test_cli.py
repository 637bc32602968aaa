import csv
import json
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shiftkrylov import (
    SolverConfig,
    eval_rational_action,
    gen_convdiff3d,
    load_matrix_market,
    load_quadrature,
    packaged_rule_path,
    save_matrix_market,
    solve_shifted_hessen,
)
from shiftkrylov import cli
from shiftkrylov.cli import main


def run(*argv):
    return main(list(argv))


def gen_matrix(tmp_path, name="m.mtx"):
    p = tmp_path / name
    assert run("gen", "convdiff3d", "--n", "4", "--eps", "1.0",
               "--beta", "0,100,200", "--r", "300", "-o", str(p)) == 0
    return p


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_gen_writes_matrix_and_metadata(tmp_path):
    p = gen_matrix(tmp_path)
    meta = json.loads(p.with_suffix(".meta.json").read_text())
    assert meta["generator"] == "convdiff3d"
    assert meta["order"] == 64
    A = load_matrix_market(p)
    ref = gen_convdiff3d(4, 1.0, (0.0, 100.0, 200.0), 300.0)
    assert np.array_equal(A.toarray(), ref.toarray())
    assert meta["nnz"] == ref.nnz


def test_gen_laplace(tmp_path):
    p = tmp_path / "lap.mtx"
    assert run("gen", "laplace2d", "--n", "6", "-o", str(p)) == 0
    A = load_matrix_market(p)
    assert A.shape == (36, 36)


def test_solve_roundtrip_and_report(tmp_path, capsys):
    p = gen_matrix(tmp_path)
    out = tmp_path / "report.csv"
    code = run("solve", "--matrix", str(p), "--shifts", "arith:0.001:4",
               "--m", "20", "--tol", "1e-8", "-o", str(out))
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["solver"] == "shessen"
    assert row["nu"] == "4"
    assert row["dagger_flags"] == "0000"
    assert int(row["converged_shifts"]) == 4

    # cross-check the numbers against a direct library call
    A = load_matrix_market(p)
    xs, rep = solve_shifted_hessen(
        A, np.ones(64), [-0.001, -0.002, -0.003, -0.004],
        SolverConfig(m=20, tol=1e-8, max_mvps=4000),
    )
    assert int(row["cycles"]) == rep.cycles
    assert int(row["mvps"]) == rep.total_mvps

    # deterministic apart from timing
    out2 = tmp_path / "report2.csv"
    assert run("solve", "--matrix", str(p), "--shifts", "arith:0.001:4",
               "--m", "20", "--tol", "1e-8", "-o", str(out2)) == 0
    r1, r2 = read_rows(out)[0], read_rows(out2)[0]
    r1.pop("time_ms"), r2.pop("time_ms")
    assert r1 == r2


def test_solve_solver_choices(tmp_path):
    p = gen_matrix(tmp_path)
    assert run("solve", "--matrix", str(p), "--solver", "sfom",
               "--shifts", "list:-0.001", "--m", "20") == 0
    assert run("solve", "--matrix", str(p), "--solver", "hessen",
               "--shifts", "list:-0.5", "--m", "20") == 0
    # plain solver takes exactly one shift
    assert run("solve", "--matrix", str(p), "--solver", "hessen",
               "--shifts", "arith:0.001:2") == 1


def test_solve_exit_codes(tmp_path):
    p = gen_matrix(tmp_path)
    assert run("solve", "--matrix", str(tmp_path / "nope.mtx")) == 1
    assert run("solve", "--matrix", str(p), "--shifts", "arith:nope") == 1
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2
    # an exhausted budget on an unconverged shift reports non-convergence
    lap = tmp_path / "lap.mtx"
    assert run("gen", "laplace2d", "--n", "8", "-o", str(lap)) == 0
    assert run("solve", "--matrix", str(lap), "--shifts", "list:-0.001",
               "--m", "4", "--tol", "1e-14", "--max-mvps", "12") == 3


def test_solve_rhs_sources(tmp_path):
    p = gen_matrix(tmp_path)
    vec = tmp_path / "rhs.txt"
    np.savetxt(vec, np.linspace(1, 2, 64))
    assert run("solve", "--matrix", str(p), "--rhs", f"file:{vec}",
               "--shifts", "list:-0.001", "--m", "20") == 0
    assert run("solve", "--matrix", str(p), "--rhs", "random:7",
               "--shifts", "list:-0.001", "--m", "20") == 0
    short = tmp_path / "short.txt"
    np.savetxt(short, np.ones(5))
    assert run("solve", "--matrix", str(p), "--rhs", f"file:{short}") == 1
    assert run("solve", "--matrix", str(p), "--rhs", "carrots") == 1


def test_bench_grid(tmp_path):
    cfgfile = tmp_path / "bench.ini"
    cfgfile.write_text(
        "[bench]\n"
        "solvers = shessen, sfom\n"
        "m = 15\n"
        "tol = 1e-8\n"
        "reps = 1\n"
        "shifts = arith:0.001:3\n"
        "\n"
        "[problem:conv]\n"
        "generator = convdiff3d\n"
        "n = 4\n"
        "beta = 0,100,200\n"
        "r = 300\n"
        "\n"
        "[problem:lap]\n"
        "generator = laplace2d\n"
        "n = 8\n"
        "shifts = list:-0.5\n"
    )
    out = tmp_path / "bench.csv"
    assert run("bench", "--config", str(cfgfile), "-o", str(out)) == 0
    rows = read_rows(out)
    assert len(rows) == 4
    assert [r["problem"] for r in rows] == ["conv", "conv", "lap", "lap"]
    assert [r["solver"] for r in rows] == ["shessen", "sfom"] * 2
    assert all(r["dagger_flags"].strip("0") == "" for r in rows)
    for r in rows:
        assert int(r["predicted_flops"]) > 0

    # the parallel path must produce the same grid in the same order
    out2 = tmp_path / "bench2.csv"
    assert run("bench", "--config", str(cfgfile), "-o", str(out2), "--parallel") == 0
    strip = lambda rows: [{k: v for k, v in r.items() if k != "time_ms"} for r in rows]
    assert strip(read_rows(out)) == strip(read_rows(out2))


def test_bench_parallel_keeps_rows_of_a_problem_sequential(tmp_path, monkeypatch):
    cfgfile = tmp_path / "bench.ini"
    cfgfile.write_text(
        "[bench]\nsolvers = shessen, sfom\nm = 10\nreps = 1\nshifts = list:0\n"
        "[problem:a]\ngenerator = laplace2d\nn = 4\n"
        "[problem:b]\ngenerator = laplace2d\nn = 5\n"
    )
    intervals = {}
    run_one = cli._run_one

    def timed_run_one(solver, A, *rest):
        t0 = time.perf_counter()
        time.sleep(0.05)  # long enough for rows started together to overlap
        out = run_one(solver, A, *rest)
        intervals.setdefault(id(A), []).append((solver, t0, time.perf_counter()))
        return out

    monkeypatch.setattr(cli, "_run_one", timed_run_one)
    out = tmp_path / "bench.csv"
    assert run("bench", "--config", str(cfgfile), "-o", str(out), "--parallel") == 0
    assert [(r["problem"], r["solver"]) for r in read_rows(out)] == [
        ("a", "shessen"), ("a", "sfom"), ("b", "shessen"), ("b", "sfom")
    ]
    assert len(intervals) == 2
    for cells in intervals.values():
        (first, _, end), (second, start, _) = sorted(cells, key=lambda c: c[1])
        assert (first, second) == ("shessen", "sfom")
        assert end <= start


def test_bench_errors(tmp_path):
    assert run("bench", "--config", str(tmp_path / "none.ini")) == 1
    empty = tmp_path / "empty.ini"
    empty.write_text("[bench]\nsolvers = shessen\n")
    assert run("bench", "--config", str(empty)) == 1


def test_matfunc_exp(tmp_path, capsys):
    p = tmp_path / "lap.mtx"
    assert run("gen", "laplace2d", "--n", "8", "--scale", "0.02", "-o", str(p)) == 0
    out = tmp_path / "y.txt"
    code = run("matfunc", "--matrix", str(p), "--kind", "exp",
               "--check-dense", "-o", str(out))
    assert code == 0
    got = np.loadtxt(out)
    A = load_matrix_market(p)
    rule = load_quadrature(packaged_rule_path("exp"), kind="exp")
    ref = eval_rational_action(A, np.ones(64), rule)
    assert_allclose(got, ref, rtol=1e-15)
    text = capsys.readouterr().out
    assert "relative error vs dense reference" in text


def test_matfunc_ml_and_usage(tmp_path):
    p = tmp_path / "lap.mtx"
    assert run("gen", "laplace2d", "--n", "6", "--scale", "0.02", "-o", str(p)) == 0
    assert run("matfunc", "--matrix", str(p), "--kind", "ml", "--gamma", "0.8") == 0
    # no packaged rule for this order: usage error
    assert run("matfunc", "--matrix", str(p), "--kind", "ml", "--gamma", "0.77") == 2


def test_matfunc_dense_check_skips_on_bad_eigenbasis(tmp_path, capsys):
    # a strongly nonnormal operator defeats the dense reference; the
    # action itself still succeeds
    p = tmp_path / "conv.mtx"
    assert run("gen", "convdiff3d", "--n", "9", "--eps", "1",
               "--beta", "0,111.8,223.6", "--r", "400", "-o", str(p)) == 0
    assert run("matfunc", "--matrix", str(p), "--kind", "exp", "--check-dense") == 0
    text = capsys.readouterr().out
    assert "skipping dense check" in text
