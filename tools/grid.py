#!/usr/bin/env python3
"""Time the north-star grid on one ``src/`` tree and write ``BENCH_<tag>.json``.

A performance change commits one record of its own tree and cites its
deltas against the record of its parent::

    python3 tools/grid.py --src ../parent/src --tag baseline
    python3 tools/grid.py --tag change

The grid has eight cells:

- ``convdiff3d-n{9,20,40}-{shessen,sfom}``: ``gen_convdiff3d(n, 1, (0,
  111.8, 223.6), 400)``, b = ones, shifts ``arith:1e-3:8``, m = 30 and
  tol 1e-8, by ``solve_shifted_hessen`` and by ``solve_shifted_fom``;
- ``matfunc-{exp,ml0.8}-laplace2d100``: ``eval_rational_action`` on
  ``gen_laplace2d(100)`` with u0 = ones and tol 1e-10, for the packaged
  exp rule and the packaged ``ml`` rule at gamma = 0.8.

``--cell NAME`` (repeatable) keeps only the named cells.  After one
untimed round, each of ``--reps`` rounds calls every cell once, in grid
order, so that drift of the host spreads over all cells alike.  Every
call is timed in process CPU time, with BLAS pinned to one thread as in
``bench/``.  A cell records the median, quartiles and IQR of its reps
and the median per cycle, with the cycles, basis and residual products,
the columns each cycle kept from a thick restart, ``predicted_flops`` and
whether every shift converged.  The inputs are fixed, so these counters
must repeat in every rep; the tool exits with status 1 when one does
not.  The record also holds the environment record of
``bench/envinfo.py``, which is imported, not written.
"""

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONVDIFF_NS = (9, 20, 40)
CONVDIFF_PHYSICS = (1.0, (0.0, 111.8, 223.6), 400.0)
LAPLACE_N = 100
COUNTERS = ("cycles", "basis_mvps", "residual_mvps", "kept", "predicted_flops",
            "all_converged")


def _import_tree(src):
    """``shiftkrylov`` from ``src`` and ``bench/envinfo.py``, with BLAS
    pinned to one thread before numpy loads; also the thread settings
    found before pinning."""
    sys.path.insert(0, str(ROOT / "bench"))
    import envinfo

    before = envinfo.pin_threads(os.environ)
    sys.path.insert(0, str(Path(src).resolve()))
    import shiftkrylov

    return shiftkrylov, envinfo, before


def grid(sk):
    """Cell name -> a function that builds the cell's inputs and returns
    its call, which returns the call's ``SolveReport``."""
    import numpy as np

    def convdiff(n, solver):
        def build():
            A = sk.gen_convdiff3d(n, *CONVDIFF_PHYSICS)
            b = np.ones(A.shape[0])
            shifts = sk.gen_shifts("arith:1e-3:8")
            cfg = sk.SolverConfig(m=30, tol=1e-8)
            return lambda: solver(A, b, shifts, cfg)[1]
        return build

    def matfunc(kind, gamma):
        def build():
            A = sk.gen_laplace2d(LAPLACE_N)
            u0 = np.ones(A.shape[0])
            rule = sk.load_quadrature(sk.packaged_rule_path(kind, gamma), kind=kind,
                                      gamma=1.0 if gamma is None else gamma)
            cfg = sk.SolverConfig(tol=1e-10)
            return lambda: sk.eval_rational_action(A, u0, rule, cfg, return_report=True)[1]
        return build

    cells = {}
    for n in CONVDIFF_NS:
        for name, solver in (("shessen", sk.solve_shifted_hessen),
                             ("sfom", sk.solve_shifted_fom)):
            cells[f"convdiff3d-n{n}-{name}"] = convdiff(n, solver)
    cells[f"matfunc-exp-laplace2d{LAPLACE_N}"] = matfunc("exp", None)
    cells[f"matfunc-ml0.8-laplace2d{LAPLACE_N}"] = matfunc("ml", 0.8)
    return cells


def _counters(sk, report):
    sk.costs.attach_costs(report)
    return {key: getattr(report, key) for key in COUNTERS}


def run(src, tag, reps, out_dir, names=None):
    """Time the cells and write the record; returns the exit status."""
    sk, envinfo, before = _import_tree(src)
    cells = grid(sk)
    unknown = sorted(set(names or ()) - set(cells))
    if unknown:
        raise SystemExit(f"unknown cell(s) {', '.join(unknown)}; the grid has "
                         f"{', '.join(cells)}")
    calls = {name: build() for name, build in cells.items() if not names or name in names}
    counters = {name: _counters(sk, call()) for name, call in calls.items()}  # warm-up
    times = {name: [] for name in calls}
    drift = []
    for _ in range(reps):
        for name, call in calls.items():
            t0 = time.process_time()
            report = call()
            times[name].append(time.process_time() - t0)
            if _counters(sk, report) != counters[name]:
                drift.append(name)
    # the environment record names the tree by its commit and source digest
    record = {"tag": tag, "reps": reps, "clock": "process CPU time, s",
              "environment": envinfo.record(Path(src).resolve().parent, src, before),
              "cells": {}}
    for name, samples in times.items():
        # one rep is its own median and quartiles
        q1, median, q3 = (statistics.quantiles(samples, n=4, method="inclusive")
                          if len(samples) > 1 else samples * 3)
        record["cells"][name] = {
            **counters[name],
            "cpu_s": {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
                      "samples": samples},
            "cpu_per_cycle_s": median / counters[name]["cycles"],
        }
    path = Path(out_dir) / f"BENCH_{tag}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for name, cell in record["cells"].items():
        print(f"{name}: {cell['cpu_s']['median'] * 1e3:.2f} ms "
              f"(IQR {cell['cpu_s']['iqr'] * 1e3:.2f}), {cell['cycles']} cycles, "
              f"{cell['basis_mvps']} basis + {cell['residual_mvps']} residual MVPs, "
              f"{cell['cpu_per_cycle_s'] * 1e3:.3f} ms a cycle")
    print(f"wrote {path}")
    for name in sorted(set(drift)):
        print(f"{name}: the counters changed between reps", file=sys.stderr)
    return 1 if drift else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="the src/ tree to import")
    ap.add_argument("--tag", required=True, help="the record is BENCH_<tag>.json")
    ap.add_argument("--reps", type=int, default=11, help="timed rounds over the grid")
    ap.add_argument("--out", default=str(ROOT), help="directory of the record")
    ap.add_argument("--cell", action="append", help="cell name (repeatable)")
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be at least 1")
    return run(args.src, args.tag, args.reps, args.out, args.cell)


if __name__ == "__main__":
    sys.exit(main())
