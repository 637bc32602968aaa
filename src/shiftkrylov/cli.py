"""Command line interface.

Four subcommands around the library:

- ``shiftkrylov gen``      write a generated model problem as Matrix Market
- ``shiftkrylov solve``    solve one shifted family, report per shift
- ``shiftkrylov bench``    run a problem x solver grid from a config file
- ``shiftkrylov matfunc``  apply exp(-A) or E_gamma(-A) to a vector

Exit codes: 0 success, 1 file or parse problem, 2 usage error,
3 non-convergence (any shift left with a dagger flag).
"""

import argparse
import configparser
import csv
import json
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .costs import attach_costs
from .errors import (
    IllConditionedEigenbasis,
    NotConverged,
    ParseError,
    ShiftKrylovError,
)
from .matfunc import eval_rational_action, load_quadrature, packaged_rule_path
from .matfunc import dense_matfunc_oracle, mittag_leffler
from .mmio import load_matrix_market, save_matrix_market
from .problems import gen_convdiff3d, gen_laplace2d, gen_shifts
from .solvers import SolverConfig, solve_hessen, solve_shifted_fom, solve_shifted_hessen

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_NOCONV = 3

BENCH_COLUMNS = [
    "solver",
    "m",
    "nu",
    "cycles",
    "mvps",
    "time_ms",
    "predicted_flops",
    "converged_shifts",
    "dagger_flags",
]

_SOLVERS = {
    "shessen": solve_shifted_hessen,
    "sfom": solve_shifted_fom,
}


def _load_vector(spec, n):
    """Right-hand side / start vector from a CLI spec string."""
    if spec == "ones":
        return np.ones(n)
    if spec.startswith("random:"):
        seed = int(spec.split(":", 1)[1])
        return np.random.default_rng(seed).standard_normal(n)
    if spec.startswith("file:"):
        data = np.loadtxt(spec.split(":", 1)[1], ndmin=2)
        if data.shape[1] == 2:
            vec = data[:, 0] + 1j * data[:, 1]
        else:
            vec = data[:, 0]
        if vec.shape[0] != n:
            raise ParseError(
                f"vector file has {vec.shape[0]} entries, matrix order is {n}"
            )
        return vec
    raise ParseError(f"unknown vector spec {spec!r}; use ones, random:SEED or file:PATH")


def _save_vector(path, vec):
    if np.iscomplexobj(vec):
        np.savetxt(path, np.column_stack([vec.real, vec.imag]), fmt="%.17g")
    else:
        np.savetxt(path, vec, fmt="%.17g")


def _dagger_string(report):
    return "".join("1" if bad else "0" for bad in report.dagger_flags)


def _report_row(report, time_ms):
    attach_costs(report)
    return {
        "solver": report.solver,
        "m": report.m,
        "nu": len(report.shifts),
        "cycles": report.cycles,
        "mvps": report.total_mvps,
        "time_ms": f"{time_ms:.3f}",
        "predicted_flops": report.predicted_flops,
        "converged_shifts": report.num_converged,
        "dagger_flags": _dagger_string(report),
    }


# -- gen ----------------------------------------------------------------


def _cmd_gen(args):
    if args.problem == "convdiff3d":
        beta = [float(t) for t in args.beta.split(",")]
        A = gen_convdiff3d(args.n, args.eps, beta, args.r)
        meta = {
            "generator": "convdiff3d",
            "n": args.n,
            "eps": args.eps,
            "beta": beta,
            "r": args.r,
        }
    else:
        A = gen_laplace2d(args.n, args.scale)
        meta = {"generator": "laplace2d", "n": args.n, "scale": args.scale}
    meta.update(order=A.shape[0], nnz=A.nnz)
    out = Path(args.out)
    save_matrix_market(A, out, comments=[f"{meta['generator']} n={args.n}"])
    out.with_suffix(".meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(f"wrote {out} ({A.shape[0]}x{A.shape[1]}, nnz={A.nnz}) and {out.with_suffix('.meta.json').name}")
    return EXIT_OK


# -- solve --------------------------------------------------------------


def _run_one(solver, A, b, shifts, cfg):
    t0 = time.perf_counter()
    if solver == "hessen":
        if len(shifts) != 1:
            raise ParseError("solver 'hessen' takes exactly one shift; shift the matrix instead")
        op = A.shifted(shifts[0]) if shifts[0] != 0 else A
        x, report = solve_hessen(op, b, cfg=cfg)
        xs = [x]
    else:
        xs, report = _SOLVERS[solver](A, b, shifts, cfg)
    elapsed = (time.perf_counter() - t0) * 1e3
    return xs, report, elapsed


def _cmd_solve(args):
    A = load_matrix_market(args.matrix)
    shifts = gen_shifts(args.shifts)
    b = _load_vector(args.rhs, A.shape[0])
    cfg = SolverConfig(m=args.m, tol=args.tol, max_mvps=args.max_mvps)
    xs, report, elapsed = _run_one(args.solver, A, b, shifts, cfg)

    row = _report_row(report, elapsed)
    print(
        f"{report.solver}: {report.num_converged}/{len(report.shifts)} shifts "
        f"converged in {report.cycles} cycles, {report.total_mvps} MVPs, "
        f"predicted {report.predicted_flops} flops"
    )
    for h in report.shifts:
        mark = " " if h.converged else "‡"
        tag = " (stagnated)" if h.stagnated else ""
        print(
            f"  shift {h.shift!r:>24}{mark} cycles={h.cycles:3d} "
            f"final={h.final_relative_residual:.3e}{tag}"
        )
    if args.out:
        with open(args.out, "wt", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=BENCH_COLUMNS)
            w.writeheader()
            w.writerow(row)
        print(f"wrote {args.out}")
    if args.solutions:
        stem = Path(args.solutions)
        for i, x in enumerate(xs):
            _save_vector(stem.with_suffix(f".{i}{stem.suffix or '.txt'}"), x)
    return EXIT_OK if report.all_converged else EXIT_NOCONV


# -- bench --------------------------------------------------------------


def _bench_problem(section, defaults):
    get = lambda key, fallback=None: section.get(key, defaults.get(key, fallback))
    if "matrix" in section:
        A = load_matrix_market(section["matrix"])
    else:
        gen = section.get("generator", "")
        if gen == "convdiff3d":
            beta = [float(t) for t in get("beta", "0,0,0").split(",")]
            A = gen_convdiff3d(
                int(get("n")), float(get("eps", "1.0")), beta, float(get("r", "0.0"))
            )
        elif gen == "laplace2d":
            A = gen_laplace2d(int(get("n")), float(get("scale", "1.0")))
        else:
            raise ParseError(
                f"problem section needs 'matrix = PATH' or a known 'generator', got {gen!r}"
            )
    shifts = gen_shifts(get("shifts", "arith:0.001:4"))
    b = _load_vector(get("rhs", "ones"), A.shape[0])
    cfg = SolverConfig(
        m=int(get("m", "30")),
        tol=float(get("tol", "1e-8")),
        max_mvps=int(get("max_mvps", "4000")),
    )
    return A, b, shifts, cfg


def _bench_cell(name, solver, A, b, shifts, cfg, reps):
    times = []
    xs = report = None
    for _ in range(max(1, reps)):
        xs, report, elapsed = _run_one(solver, A, b, shifts, cfg)
        times.append(elapsed)
    row = _report_row(report, statistics.median(times))
    row["solver"] = f"{solver}"
    return name, row, report


def _cmd_bench(args):
    parser = configparser.ConfigParser()
    read = parser.read(args.config)
    if not read:
        raise ParseError(f"cannot read config file {args.config!r}")
    defaults = dict(parser["bench"]) if parser.has_section("bench") else {}
    solvers = [s.strip() for s in defaults.get("solvers", "shessen,sfom").split(",")]
    reps = int(args.reps if args.reps is not None else defaults.get("reps", "3"))

    problems = [
        (sec_name.split(":", 1)[1], *_bench_problem(parser[sec_name], defaults))
        for sec_name in parser.sections()
        if sec_name.startswith("problem:")
    ]
    if not problems:
        raise ParseError("config defines no [problem:NAME] sections")

    # the rows of one problem run in order, so they never share its matrix
    # at the same time; --parallel only overlaps distinct problems
    def run_rows(problem):
        name, *system = problem
        return [_bench_cell(name, solver, *system, reps) for solver in solvers]

    if args.parallel:
        with ThreadPoolExecutor() as pool:
            grid = list(pool.map(run_rows, problems))
    else:
        grid = [run_rows(problem) for problem in problems]

    rows = []
    any_dagger = False
    for name, row, report in (cell for cells in grid for cell in cells):
        rows.append({"problem": name, **row})
        any_dagger = any_dagger or not report.all_converged

    out = args.out or "-"
    fieldnames = ["problem"] + BENCH_COLUMNS
    if out == "-":
        w = csv.DictWriter(sys.stdout, fieldnames=fieldnames)
        w.writeheader()
        w.writerows(rows)
    else:
        with open(out, "wt", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=fieldnames)
            w.writeheader()
            w.writerows(rows)
        print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_NOCONV if any_dagger else EXIT_OK


# -- matfunc ------------------------------------------------------------


def _cmd_matfunc(args):
    A = load_matrix_market(args.matrix)
    if args.quadrature:
        rule = load_quadrature(args.quadrature, kind=args.kind, gamma=args.gamma)
    else:
        rule = load_quadrature(
            packaged_rule_path(args.kind, args.gamma if args.kind == "ml" else None),
            kind=args.kind,
            gamma=args.gamma,
        )
    u0 = _load_vector(args.u0, A.shape[0])
    cfg = SolverConfig(m=args.m, tol=args.tol, max_mvps=args.max_mvps)
    t0 = time.perf_counter()
    y, report = eval_rational_action(A, u0, rule, cfg, return_report=True)
    elapsed = (time.perf_counter() - t0) * 1e3
    kind_str = "exp" if rule.kind == "exp" else f"E_{rule.gamma}"
    print(
        f"{kind_str}(-A) action: nu={rule.nu} systems, {report.cycles} cycles, "
        f"{report.total_mvps} MVPs, {elapsed:.1f} ms"
    )
    if args.check_dense:
        if A.shape[0] > 2000:
            print("skipping dense check: matrix order above 2000")
        else:
            if rule.kind == "exp":
                f = lambda lam: np.exp(-lam)
            else:
                f = lambda lam: mittag_leffler(-lam, rule.gamma)
            try:
                ref = dense_matfunc_oracle(A, u0, f)
            except IllConditionedEigenbasis as exc:
                # the reference, not the computed action, is what failed
                print(f"skipping dense check: {exc}")
            else:
                err = float(np.linalg.norm(y - ref))
                rel = err / float(np.linalg.norm(ref))
                # For strongly decaying actions the result itself is tiny; the
                # error scaled by the input is the fairer measure then.
                print(f"relative error vs dense reference: {rel:.3e} "
                      f"(error / |u0| = {err / float(np.linalg.norm(u0)):.3e})")
    if args.out:
        _save_vector(args.out, y)
        print(f"wrote {args.out}")
    return EXIT_OK


# -- entry point --------------------------------------------------------


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="shiftkrylov",
        description="Shifted-family Krylov solvers and matrix-function actions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a model problem")
    gsub = g.add_subparsers(dest="problem", required=True)
    g3 = gsub.add_parser("convdiff3d", help="3-D convection-diffusion-reaction")
    g3.add_argument("--n", type=int, required=True, help="interior points per direction")
    g3.add_argument("--eps", type=float, default=1.0)
    g3.add_argument("--beta", type=str, default="0,0,0", help="convection b1,b2,b3")
    g3.add_argument("--r", type=float, default=0.0, help="reaction coefficient")
    g2 = gsub.add_parser("laplace2d", help="2-D Laplacian")
    g2.add_argument("--n", type=int, required=True)
    g2.add_argument("--scale", type=float, default=1.0)
    for p in (g3, g2):
        p.add_argument("-o", "--out", required=True, help="output .mtx path")
        p.set_defaults(func=_cmd_gen)

    s = sub.add_parser("solve", help="solve one shifted family")
    s.add_argument("--matrix", required=True)
    s.add_argument("--solver", choices=["shessen", "sfom", "hessen"], default="shessen")
    s.add_argument("--shifts", default="arith:0.001:4", help="arith:S:K or list:v1,v2,...")
    s.add_argument("--rhs", default="ones", help="ones | random:SEED | file:PATH")
    s.add_argument("--m", type=int, default=30)
    s.add_argument("--tol", type=float, default=1e-8)
    s.add_argument("--max-mvps", type=int, default=4000)
    s.add_argument("-o", "--out", help="write a one-row summary CSV")
    s.add_argument("--solutions", help="write solution vectors to PATH.<i>.txt")
    s.set_defaults(func=_cmd_solve)

    b = sub.add_parser("bench", help="run a problem x solver grid")
    b.add_argument("--config", required=True, help="INI file, see README")
    b.add_argument("-o", "--out", help="output CSV ('-' or omit for stdout)")
    b.add_argument("--reps", type=int, help="timing repetitions (median reported)")
    b.add_argument("--parallel", action="store_true", help="run grid cells in threads")
    b.set_defaults(func=_cmd_bench)

    f = sub.add_parser("matfunc", help="apply exp(-A) or E_gamma(-A) to a vector")
    f.add_argument("--matrix", required=True)
    f.add_argument("--kind", choices=["exp", "ml"], default="exp")
    f.add_argument("--gamma", type=float, default=1.0, help="fractional order for ml")
    f.add_argument("--quadrature", help="rule CSV; default: packaged 16-node rule")
    f.add_argument("--u0", default="ones", help="ones | random:SEED | file:PATH")
    f.add_argument("--m", type=int, default=30)
    f.add_argument("--tol", type=float, default=1e-10)
    f.add_argument("--max-mvps", type=int, default=4000)
    f.add_argument("--check-dense", action="store_true",
                   help="compare against a dense eigendecomposition (small matrices)")
    f.add_argument("-o", "--out", help="write the result vector")
    f.set_defaults(func=_cmd_matfunc)
    return ap


def main(argv=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except NotConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    except (ShiftKrylovError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # bad argument values (unknown rule kind, unpackaged gamma, ...)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
