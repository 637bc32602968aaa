import csv
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import shiftkrylov.solvers as solvers_mod
from shiftkrylov import (
    SingularReducedSystem,
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
from shiftkrylov.cli import BENCH_COLUMNS, main


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


def test_solve_csv_to_stdout(tmp_path, capsys, monkeypatch):
    p = gen_matrix(tmp_path)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert run("solve", "--matrix", str(p), "--m", "20", "-o", "-") == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines.index(",".join(BENCH_COLUMNS))
    row = dict(zip(BENCH_COLUMNS, lines[header + 1].split(",")))
    assert row["solver"] == "shessen" and row["dagger_flags"] == "0000"
    assert not (tmp_path / "-").exists()


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


def test_bad_option_values_are_usage_errors_before_any_file_is_read(tmp_path):
    p = gen_matrix(tmp_path)
    assert run("matfunc", "--matrix", str(p), "--tol", "inf") == 2
    assert run("solve", "--matrix", str(p), "--tol", "0") == 2
    # checked before the matrix is opened: a missing file does not mask it
    missing = str(tmp_path / "nope.mtx")
    assert run("matfunc", "--matrix", missing, "--m", "0") == 2
    assert run("solve", "--matrix", missing, "--tol", "-1") == 2
    # a malformed matrix file with valid options is still a file problem
    bad = tmp_path / "bad.mtx"
    bad.write_text("%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1 nope\n")
    assert run("matfunc", "--matrix", str(bad)) == 1
    assert run("solve", "--matrix", str(bad)) == 1


def rotation(tmp_path):
    # H - 0 I is singular in cycle 2 at m = 1, so the pivoted family stalls
    p = tmp_path / "rot.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 -1.0\n2 1 1.0\n")
    return p


@pytest.mark.parametrize("solver", ["shessen", "hessen"])
def test_solve_reports_a_stalled_family_as_non_convergence(tmp_path, capsys, solver):
    code = run("solve", "--matrix", str(rotation(tmp_path)), "--solver", solver,
               "--rhs", "ones", "--shifts", "list:0", "--m", "1")
    assert code == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"{solver}: 0/1 shifts converged")
    assert "0.0‡" in lines[1] and lines[1].endswith(" (singular)")


def test_solve_tags_a_diverged_shift(tmp_path, capsys):
    # sfom's estimate on the rotation at m = 1 overflows
    with np.errstate(all="ignore"):
        code = run("solve", "--matrix", str(rotation(tmp_path)), "--solver", "sfom",
                   "--rhs", "ones", "--shifts", "list:0", "--m", "1")
    assert code == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("sfom: 0/1 shifts converged")
    assert "0.0‡" in lines[1] and lines[1].endswith(" (diverged)")


def test_bench_keeps_the_table_when_a_family_stalls(tmp_path):
    cfgfile = tmp_path / "bench.ini"
    cfgfile.write_text(
        "[bench]\nsolvers = shessen\nm = 1\nreps = 1\nshifts = list:0\nrhs = ones\n"
        f"[problem:rot]\nmatrix = {rotation(tmp_path)}\n"
        "[problem:lap]\ngenerator = laplace2d\nn = 4\nm = 10\n"
    )
    out = tmp_path / "table.csv"
    assert run("bench", "--config", str(cfgfile), "-o", str(out)) == 3
    rows = read_rows(out)
    assert [(r["problem"], r["dagger_flags"]) for r in rows] == [("rot", "1"), ("lap", "0")]


def test_bench_keeps_the_table_when_a_hessen_family_stalls(tmp_path):
    cfgfile = tmp_path / "bench.ini"
    cfgfile.write_text(
        "[bench]\nsolvers = shessen, hessen\nm = 1\nreps = 1\nshifts = list:0\nrhs = ones\n"
        f"[problem:rot]\nmatrix = {rotation(tmp_path)}\n"
    )
    out = tmp_path / "table.csv"
    assert run("bench", "--config", str(cfgfile), "-o", str(out)) == 3
    rows = read_rows(out)
    assert [(r["solver"], r["dagger_flags"]) for r in rows] == [("shessen", "1"), ("hessen", "1")]


def test_bench_checks_the_hessen_shift_count_before_the_first_cell(tmp_path, capsys,
                                                                   monkeypatch):
    calls = []
    for name, solve in list(cli._SOLVERS.items()):
        monkeypatch.setitem(cli._SOLVERS, name,
                            lambda *system, name=name, solve=solve:
                            calls.append(name) or solve(*system))
    cfgfile = tmp_path / "bench.ini"
    cfgfile.write_text(
        "[bench]\nsolvers = shessen, hessen\nreps = 1\n"
        "[problem:one]\ngenerator = laplace2d\nn = 4\nshifts = list:0\n"
        "[problem:family]\ngenerator = laplace2d\nn = 4\n"
    )
    assert run("bench", "--config", str(cfgfile)) == 1
    assert calls == []
    err = capsys.readouterr().err
    assert "[problem:family]" in err and "'hessen' takes exactly one shift" in err, err


@pytest.mark.parametrize("option, content, message", [
    pytest.param(option, content, message, id=option + case)
    for option in ("solve --rhs", "matfunc --u0")
    for case, content, message in [("", "1 1 1\n" * 64, "3 columns"),
                                   (" ragged", "1 2\n3\n", "number of columns changed"),
                                   (" abc", "abc\n", "could not convert")]
])
def test_a_vector_file_with_three_columns_is_a_parse_failure(tmp_path, capsys, option,
                                                             content, message):
    # a file that cannot be read as a vector exits 1 (parse failure), not 2 (usage)
    p = gen_matrix(tmp_path)
    vec = tmp_path / "v.txt"
    vec.write_text(content)
    command, flag = option.split()
    assert run(command, "--matrix", str(p), flag, f"file:{vec}") == 1
    assert message in capsys.readouterr().err


def test_matfunc_reports_a_stalled_family_as_non_convergence(tmp_path, monkeypatch, capsys):
    p = tmp_path / "lap.mtx"
    assert run("gen", "laplace2d", "--n", "6", "-o", str(p)) == 0

    def always_singular(H, sigma, G, schur=None):
        raise SingularReducedSystem("injected", singular=np.ones(len(sigma), dtype=bool),
                                    solution=np.full(G.shape, np.nan))

    monkeypatch.setattr(solvers_mod, "solve_shifted_hessenberg", always_singular)
    # a random start vector, so the basis does not break down first
    assert run("matfunc", "--matrix", str(p), "--u0", "random:1", "--m", "10") == 3
    assert "stalled on singular reduced systems" in capsys.readouterr().err


@pytest.mark.parametrize("bench, problem, names", [
    ("solvers = shessen, gmres", "n = 4", ["gmres"]),
    ("solvers = shessen", "", ["problem:bad", "'n'"]),
    ("solvers = shessen\nm = zero", "n = 4", ["[bench]", "m", "zero"]),
    ("solvers = shessen\nreps = x", "n = 4", ["[bench]", "reps"]),
    ("solvers = shessen", "n = 4\nmax_mvps = -1", ["problem:bad", "max_mvps"]),
    ("solvers = shessen\nreps = -5", "n = 4", ["[bench]", "reps", "-5"]),
])
def test_bench_checks_every_section_before_the_first_cell(tmp_path, capsys, monkeypatch,
                                                          bench, problem, names):
    calls = []
    monkeypatch.setitem(cli._SOLVERS, "shessen", lambda *system: calls.append(system))
    cfgfile = tmp_path / "bench.ini"
    cfgfile.write_text(
        f"[bench]\n{bench}\n"
        "[problem:good]\ngenerator = laplace2d\nn = 4\n"
        f"[problem:bad]\ngenerator = laplace2d\n{problem}\n"
    )
    assert run("bench", "--config", str(cfgfile)) == 1
    assert calls == []
    err = capsys.readouterr().err
    assert all(name in err for name in names), err


def test_bench_reps_flag_below_one_is_a_usage_error(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setitem(cli._SOLVERS, "shessen", lambda *system: calls.append(system))
    cfgfile = tmp_path / "bench.ini"
    cfgfile.write_text("[bench]\nsolvers = shessen\n[problem:lap]\ngenerator = laplace2d\nn = 4\n")
    with pytest.raises(SystemExit) as exc:
        run("bench", "--config", str(cfgfile), "--reps", "0")
    assert exc.value.code == 2
    assert calls == []
    assert "--reps" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "solvers = shessen\n[problem:lap]\ngenerator = laplace2d\nn = 4\n",
    "[problem:lap]\ngenerator = laplace2d\nn = 4\nrhs = file:50%.txt\n",
])
def test_bench_malformed_file_is_a_parse_failure(tmp_path, text):
    # a line before the first section, or a '%' the interpolation cannot read
    cfgfile = tmp_path / "bench.ini"
    cfgfile.write_text(text)
    assert run("bench", "--config", str(cfgfile)) == 1


def test_solve_writes_each_solution_and_reads_a_complex_one_back(tmp_path):
    p = gen_matrix(tmp_path)
    stem = tmp_path / "x.txt"
    shifts = [-0.5, -0.1 + 0.2j]
    assert run("solve", "--matrix", str(p), "--shifts", "list:-0.5,-0.1+0.2j",
               "--m", "20", "--solutions", str(stem)) == 0
    A = load_matrix_market(p)
    xs, _ = solve_shifted_hessen(A, np.ones(64), shifts, SolverConfig(m=20))
    for i, x in enumerate(xs):
        cols = np.loadtxt(tmp_path / f"x.{i}.txt", ndmin=2)
        assert cols.shape == ((64, 2) if np.iscomplexobj(x) else (64, 1))
        assert np.array_equal(cols[:, 0], x.real)
    complex_x = tmp_path / "x.1.txt"
    assert np.array_equal(np.loadtxt(complex_x), np.column_stack([xs[1].real, xs[1].imag]))

    # the two-column file is a complex right-hand side
    assert run("solve", "--matrix", str(p), "--shifts", "list:-0.5", "--m", "20",
               "--rhs", f"file:{complex_x}", "--solutions", str(tmp_path / "y.txt")) == 0
    (y,), _ = solve_shifted_hessen(A, xs[1], [-0.5], SolverConfig(m=20))
    assert np.array_equal(np.loadtxt(tmp_path / "y.0.txt"), np.column_stack([y.real, y.imag]))


def test_matfunc_reads_a_rule_file(tmp_path):
    p = tmp_path / "lap.mtx"
    assert run("gen", "laplace2d", "--n", "6", "--scale", "0.02", "-o", str(p)) == 0
    rule = tmp_path / "rule.csv"
    rule.write_text(packaged_rule_path("exp").read_text())
    assert run("matfunc", "--matrix", str(p), "--quadrature", str(rule),
               "-o", str(tmp_path / "file.txt")) == 0
    assert run("matfunc", "--matrix", str(p), "-o", str(tmp_path / "packaged.txt")) == 0
    assert np.array_equal(np.loadtxt(tmp_path / "file.txt"), np.loadtxt(tmp_path / "packaged.txt"))


def test_matfunc_ml_dense_check(tmp_path, capsys):
    p = tmp_path / "lap.mtx"
    assert run("gen", "laplace2d", "--n", "6", "--scale", "0.02", "-o", str(p)) == 0
    capsys.readouterr()
    assert run("matfunc", "--matrix", str(p), "--kind", "ml", "--gamma", "0.8",
               "--check-dense") == 0
    text = capsys.readouterr().out
    assert text.startswith("E_0.8(-A) action")
    rel = float(text.split("relative error vs dense reference: ")[1].split()[0])
    assert rel < 1e-8
