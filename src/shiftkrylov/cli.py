"""Command line interface.

Four subcommands around the library:

- ``shiftkrylov gen``      write a generated model problem as Matrix Market
- ``shiftkrylov solve``    solve one shifted family, report per shift
- ``shiftkrylov bench``    run a problem x solver grid from a config file
- ``shiftkrylov matfunc``  apply exp(-A) or E_gamma(-A) to a vector

Exit codes: 0 success, 1 file or parse problem (``bench`` checks its
solver list and every section before the first cell), 2 usage error,
3 non-convergence: any shift left with a dagger flag, a family that
stalled on singular reduced systems included.

Each input has one reader, and that reader decides how a malformed
value fails: a file, a vector spec (``_load_vector``), a shift spec or a
``bench`` setting (``_setting``) that cannot be read is a ParseError, so
it exits 1.  ``main`` can then read a ``ValueError`` as a bad option value
(exit 2): a solver setting such as ``--tol inf`` (``_solver_config``
checks them before any file is read), a ``gen`` parameter such as
``--n 0`` that the generator rejects, or a rule kind or fractional order
that ``load_quadrature``, ``packaged_rule_path`` or ``mittag_leffler``
reject, as the ``errors`` module describes.
"""

import argparse
import configparser
import contextlib
import csv
import json
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .costs import attach_costs
from .errors import (
    IllConditionedEigenbasis,
    InvalidDimensions,
    InvalidGrid,
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


def _check_hessen_shifts(solvers, shifts, where=""):
    """Solver ``hessen``'s rule, if it is one of ``solvers``: a family of
    exactly one shift.  Checked where a problem is built, before any solve."""
    if "hessen" in solvers and len(shifts) != 1:
        raise ParseError(f"{where}solver 'hessen' takes exactly one shift; shift the matrix instead")


def _solve_hessen(A, b, shifts, cfg):
    """The unshifted method on ``A - sigma I``, for a family of one shift;
    the report carries ``sigma``, not the 0 that the method solved for."""
    x, report = solve_hessen(A.shifted(shifts[0]) if shifts[0] != 0 else A, b, cfg=cfg)
    report.shifts[0].shift = shifts[0]
    return [x], report


_SOLVERS = {"shessen": solve_shifted_hessen, "sfom": solve_shifted_fom, "hessen": _solve_hessen}


def _floats(text):
    return [float(t) for t in text.split(",")]


# name -> (generator, help, {parameter: (type, default, help)}), with default
# None for a required parameter; argparse and bench parse string defaults alike
_GENERATORS = {
    "convdiff3d": (gen_convdiff3d, "3-D convection-diffusion-reaction", {
        "n": (int, None, "interior points per direction"),
        "eps": (float, "1.0", None),
        "beta": (_floats, "0,0,0", "convection b1,b2,b3"),
        "r": (float, "0.0", "reaction coefficient"),
    }),
    "laplace2d": (gen_laplace2d, "2-D Laplacian",
                  {"n": (int, None, None), "scale": (float, "1.0", None)}),
}


def _model_problem(generator, value):
    """Matrix and parameters of a model problem, each read as ``value(name, type, default)``."""
    make, _, params = _GENERATORS[generator]
    kw = {name: value(name, typ, default) for name, (typ, default, _) in params.items()}
    return make(**kw), kw


def _load_vector(spec, n):
    """Right-hand side / start vector from a CLI spec string.

    The one reader of a vector spec: a spec that cannot be read as a
    vector of order ``n`` (an unknown form, a bad seed, an empty, ragged
    or non-numeric file, a wrong shape) is a ParseError."""
    if spec == "ones":
        return np.ones(n)
    source, _, arg = spec.partition(":")
    if source not in ("random", "file"):
        raise ParseError(f"unknown vector spec {spec!r}; use ones, random:SEED or file:PATH")
    try:
        if source == "random":
            return np.random.default_rng(int(arg)).standard_normal(n)
        with warnings.catch_warnings():
            # loadtxt only warns about a file without data; that is the error
            warnings.simplefilter("error", UserWarning)
            data = np.loadtxt(arg, ndmin=2)
    except (ValueError, UserWarning) as exc:
        raise ParseError(f"cannot read vector {spec!r}: {exc}") from None
    if data.shape[1] > 2:
        raise ParseError(f"vector file has {data.shape[1]} columns; "
                         f"use 1 (real) or 2 (real, imaginary)")
    vec = data[:, 0] + 1j * data[:, 1] if data.shape[1] == 2 else data[:, 0]
    if vec.shape[0] != n:
        raise ParseError(
            f"vector file has {vec.shape[0]} entries, matrix order is {n}"
        )
    return vec


def _save_vector(path, vec):
    if np.iscomplexobj(vec):
        np.savetxt(path, np.column_stack([vec.real, vec.imag]), fmt="%.17g")
    else:
        np.savetxt(path, vec, fmt="%.17g")


def _write_csv(out, fieldnames, rows):
    """Write ``rows`` as CSV to the path ``out``, or to stdout for ``-``."""
    to_stdout = out == "-"
    with contextlib.nullcontext(sys.stdout) if to_stdout else open(out, "wt", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fieldnames)
        w.writeheader()
        w.writerows(rows)
    if not to_stdout:
        print(f"wrote {out} ({len(rows)} rows)")


def _solver_config(m, tol, max_mvps, error=ValueError):
    """Checked solver settings; a bad value raises ``error(message)``, by
    default a ``ValueError``: a bad option is a usage error (exit 2), found
    before any file is read, not a file problem (exit 1)."""
    try:
        return SolverConfig(m=m, tol=tol, max_mvps=max_mvps)
    except InvalidDimensions as exc:
        raise error(str(exc)) from None


def _report_row(report, time_ms):
    return {
        "solver": report.solver,
        "m": report.m,
        "nu": len(report.shifts),
        "cycles": report.cycles,
        "mvps": report.total_mvps,
        "time_ms": f"{time_ms:.3f}",
        "predicted_flops": report.predicted_flops,
        "converged_shifts": report.num_converged,
        "dagger_flags": "".join("1" if bad else "0" for bad in report.dagger_flags),
    }


# -- gen ----------------------------------------------------------------


def _cmd_gen(args):
    try:
        A, params = _model_problem(args.problem, lambda name, *_: getattr(args, name))
    except InvalidGrid as exc:
        # the generator's parameters are options here: a usage error
        raise ValueError(str(exc)) from None
    meta = {"generator": args.problem, **params, "order": A.shape[0], "nnz": A.nnz}
    out = Path(args.out)
    save_matrix_market(A, out, comments=[f"{args.problem} n={args.n}"])
    out.with_suffix(".meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(f"wrote {out} ({A.shape[0]}x{A.shape[1]}, nnz={A.nnz}) and {out.with_suffix('.meta.json').name}")
    return EXIT_OK


# -- solve --------------------------------------------------------------


def _run_one(solver, A, b, shifts, cfg, reps=1):
    """Solutions and report, with its predicted flops attached, of the last
    of ``reps`` solves and their median time in ms."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        xs, report = _SOLVERS[solver](A, b, shifts, cfg)
        times.append((time.perf_counter() - t0) * 1e3)
    return xs, attach_costs(report), statistics.median(times)


def _cmd_solve(args):
    cfg = _solver_config(args.m, args.tol, args.max_mvps)
    A = load_matrix_market(args.matrix)
    shifts = gen_shifts(args.shifts)
    _check_hessen_shifts([args.solver], shifts)
    b = _load_vector(args.rhs, A.shape[0])
    xs, report, elapsed = _run_one(args.solver, A, b, shifts, cfg)

    print(
        f"{report.solver}: {report.num_converged}/{len(report.shifts)} shifts "
        f"converged in {report.cycles} cycles, {report.total_mvps} MVPs, "
        f"predicted {report.predicted_flops} flops"
    )
    for h in report.shifts:
        mark = " " if h.converged else "‡"
        tag = (" (diverged)" if h.diverged else " (singular)" if h.skipped_cycles
               else " (stagnated)" if h.stagnated else "")
        print(
            f"  shift {h.shift!r:>24}{mark} cycles={h.cycles:3d} "
            f"final={h.final_relative_residual:.3e}{tag}"
        )
    if args.out:
        _write_csv(args.out, BENCH_COLUMNS, [_report_row(report, elapsed)])
    if args.solutions:
        stem = Path(args.solutions)
        for i, x in enumerate(xs):
            _save_vector(stem.with_suffix(f".{i}{stem.suffix or '.txt'}"), x)
    return EXIT_OK if report.all_converged else EXIT_NOCONV


# -- bench --------------------------------------------------------------


def _setting(sections, key, parse, default=None):
    """``parse`` of ``key`` in the first of ``sections`` that sets it, else of
    ``default``; a missing value, or one that ``parse`` rejects with a
    ValueError or a ParseError, is a ParseError naming the section and key."""
    where = next((sec for sec in sections if key in sec), sections[0])
    raw = where.get(key, default)
    if raw is None:
        raise ParseError(f"[{where.name}] needs a value for '{key}'")
    try:
        return parse(raw)
    except (ValueError, ParseError) as exc:
        raise ParseError(f"[{where.name}] {key} = {raw!r}: {exc}") from None


def _bench_problem(section, bench, solvers):
    """The system of a problem section, with every value checked, also
    against the rules of the ``solvers`` that will run it."""
    setting = lambda key, parse, default=None: _setting((section, bench), key, parse, default)
    if "matrix" in section:
        A = load_matrix_market(section["matrix"])
    elif section.get("generator") in _GENERATORS:
        A, _ = _model_problem(section["generator"], setting)
    else:
        raise ParseError(f"[{section.name}] needs 'matrix' or a generator of {list(_GENERATORS)}")
    shifts = setting("shifts", gen_shifts, "arith:0.001:4")
    _check_hessen_shifts(solvers, shifts, f"[{section.name}] ")
    b = setting("rhs", lambda spec: _load_vector(spec, A.shape[0]), "ones")
    cfg = _solver_config(
        setting("m", int, SolverConfig.m),
        setting("tol", float, SolverConfig.tol),
        setting("max_mvps", int, SolverConfig.max_mvps),
        lambda message: ParseError(f"[{section.name}] {message}"),
    )
    return A, b, shifts, cfg


def _positive_int(text):
    count = int(text)
    if count < 1:
        raise ValueError(f"{count} is not a positive integer")
    return count


def _cmd_bench(args):
    parser = configparser.ConfigParser()
    parser.add_section("bench")
    if not parser.read(args.config):
        raise ParseError(f"cannot read config file {args.config!r}")
    bench = parser["bench"]
    solvers = [s.strip() for s in bench.get("solvers", "shessen,sfom").split(",")]
    unknown = [s for s in solvers if s not in _SOLVERS]
    if unknown:
        raise ParseError(f"[bench] solvers: unknown {unknown}; choose from {list(_SOLVERS)}")
    reps = args.reps if args.reps is not None else _setting((bench,), "reps", _positive_int, 3)
    problems = [
        (sec_name.split(":", 1)[1], *_bench_problem(parser[sec_name], bench, solvers))
        for sec_name in parser.sections()
        if sec_name.startswith("problem:")
    ]
    if not problems:
        raise ParseError("config defines no [problem:NAME] sections")

    rows = []
    for name, *system in problems:
        for solver in solvers:
            _, report, time_ms = _run_one(solver, *system, reps)
            rows.append({"problem": name, **_report_row(report, time_ms)})
    _write_csv(args.out or "-", ["problem"] + BENCH_COLUMNS, rows)
    return EXIT_NOCONV if any("1" in row["dagger_flags"] for row in rows) else EXIT_OK


# -- matfunc ------------------------------------------------------------


def _cmd_matfunc(args):
    cfg = _solver_config(args.m, args.tol, args.max_mvps)
    A = load_matrix_market(args.matrix)
    rule = load_quadrature(
        args.quadrature or packaged_rule_path(args.kind, args.gamma),
        kind=args.kind,
        gamma=args.gamma,
    )
    u0 = _load_vector(args.u0, A.shape[0])
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
            try:
                # E_1 is the exponential, and an exp rule has gamma 1
                ref = dense_matfunc_oracle(A, u0, lambda lam: mittag_leffler(-lam, rule.gamma))
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
    for name, (_, help_, params) in _GENERATORS.items():
        p = gsub.add_parser(name, help=help_)
        for param, (typ, default, phelp) in params.items():
            p.add_argument(f"--{param}", type=typ, default=default,
                           required=default is None, help=phelp)
        p.add_argument("-o", "--out", required=True, help="output .mtx path")
        p.set_defaults(func=_cmd_gen)

    s = sub.add_parser("solve", help="solve one shifted family")
    s.add_argument("--solver", choices=list(_SOLVERS), default="shessen")
    s.add_argument("--shifts", default="arith:0.001:4", help="arith:S:K or list:v1,v2,...")
    s.add_argument("--rhs", default="ones", help="ones | random:SEED | file:PATH")
    s.add_argument("--tol", type=float, default=SolverConfig.tol)
    s.add_argument("-o", "--out", help="write a one-row summary CSV ('-' for stdout)")
    s.add_argument("--solutions", help="write solution vectors to PATH.<i>.txt")
    s.set_defaults(func=_cmd_solve)

    b = sub.add_parser("bench", help="run a problem x solver grid")
    b.add_argument("--config", required=True, help="INI file, see README")
    b.add_argument("-o", "--out", help="output CSV ('-' or omit for stdout)")
    b.add_argument("--reps", type=_positive_int, help="timing repetitions (median reported)")
    b.set_defaults(func=_cmd_bench)

    f = sub.add_parser("matfunc", help="apply exp(-A) or E_gamma(-A) to a vector")
    f.add_argument("--kind", choices=["exp", "ml"], default="exp")
    f.add_argument("--gamma", type=float, default=1.0, help="fractional order for ml")
    f.add_argument("--quadrature", help="rule CSV; default: packaged 16-node rule")
    f.add_argument("--u0", default="ones", help="ones | random:SEED | file:PATH")
    f.add_argument("--tol", type=float, default=1e-10,
                   help="a pole of weight w_j must reach the relative residual "
                        "tol * max(1, ||w||_1 / (nu |w_j|)), capped at 1")
    f.add_argument("--check-dense", action="store_true",
                   help="compare against a dense eigendecomposition (small matrices)")
    f.add_argument("-o", "--out", help="write the result vector")
    f.set_defaults(func=_cmd_matfunc)
    for p in (s, f):
        p.add_argument("--matrix", required=True)
        p.add_argument("--m", type=int, default=SolverConfig.m)
        p.add_argument("--max-mvps", type=int, default=SolverConfig.max_mvps)
    return ap


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ShiftKrylovError, OSError, ValueError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NotConverged):
            return EXIT_NOCONV
        # every reader of an input raises ParseError, so a ValueError is a bad
        # option value (solver setting, unknown rule kind, unpackaged gamma, ...)
        return EXIT_USAGE if isinstance(exc, ValueError) else EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
