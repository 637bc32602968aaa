#!/usr/bin/env python3
"""Run benchmark inputs through one ``src/`` tree and compare two such runs.

A change that claims to keep a solve's results (the same cycles, the
same products, the same per-shift flags, solutions equal to rounding)
is checked by running the same inputs through the parent tree and the
changed tree and comparing the two records::

    python3 tools/parity.py --src ../parent/src --out /tmp/parent -n 12
    python3 tools/parity.py --src src --out /tmp/change -n 12
    python3 tools/parity.py --compare /tmp/parent.json /tmp/change.json

A run takes the first ``-n`` timed inputs of each of the seeds 1-3 of
every workload named by ``--workload``
(default: ``convdiff-shessen``, ``convdiff-sfom`` and ``matfunc-exp``),
with ``--inputs NAME=N`` overriding the count of one workload.  The
inputs, settings and calls are those of ``bench/workloads.py``; nothing
under ``bench/`` is written.  As in ``bench/`` and ``tools/grid.py``,
BLAS is forced to one thread by ``envinfo.pin_threads`` whatever the
environment presets, and ``OUT.json`` holds the environment record of
``bench/envinfo.py``: the tree's commit and source digest, the thread
variables in force, and under ``flags`` any found set otherwise before.
``OUT.json`` also holds, per input, the family's cycles, basis and
residual products, breakdown, budget-exhausted and stalled flags, the
columns each cycle kept from a thick restart, and each shift's
converged, cycles, skipped, stagnated and diverged; a field that the
tree's reports lack is recorded as ``"missing"``.
``OUT.npz`` holds the family's solutions, one (nu, n) array per input,
and for ``matfunc-exp`` the action ``f(A) u0`` and the norm of its
input ``u0`` too.

``--compare A B`` prints every counter or flag that differs, each
workload's mean cycles, basis products and residual products in both
runs with its counts of shifts retired at a singular reduced system
(``skipped_cycles`` above 0) and of stalled reports and its own largest
solution gap, and the largest relative solution gap over all shifts and
inputs:
``||x_A - x_B|| / ||x_A||`` for a family solution and
``||y_A - y_B|| / ||u0||`` for a ``matfunc-exp`` action, which is far
smaller than its input (a record without the input norm falls back to
``||y_A||``).  A counter or flag that only one record has, as between
records of two versions of this tool, is a difference too.  It exits
with status 1 when a counter differs, a solution is not finite in either
run, or the gap exceeds 1e-12.
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_WORKLOADS = ("convdiff-shessen", "convdiff-sfom", "matfunc-exp")
SEEDS = (1, 2, 3)
RTOL = 1e-12
COUNTERS = ("cycles", "basis_mvps", "residual_mvps", "breakdown", "budget_exhausted",
            "stalled", "kept")
SHIFT_FLAGS = ("converged", "cycles", "skipped_cycles", "stagnated", "diverged")


def _import_tree(src):
    """Import ``shiftkrylov`` from ``src`` and the workloads and environment
    record from ``bench/``, with BLAS pinned to one thread before numpy
    loads, as in the benchmark; also the thread settings found before
    pinning."""
    sys.path[:0] = [str(Path(src).resolve()), str(ROOT / "bench")]
    import envinfo

    before = envinfo.pin_threads(os.environ)
    import shiftkrylov.matfunc as matfunc
    import workloads

    return matfunc, workloads, envinfo, before


def _record(report):
    """A report's counters and shift flags, ``"missing"`` where it has none,
    so that a tree without a field compares as different."""
    rec = {key: getattr(report, key, "missing") for key in COUNTERS}
    rec["shifts"] = [{flag: getattr(h, flag, "missing") for flag in SHIFT_FLAGS}
                     for h in report.shifts]
    return rec


def run(src, out, counts):
    matfunc, workloads, envinfo, before = _import_tree(src)
    import numpy as np

    # the matfunc workload returns only the action; keep its inner family
    inner = matfunc.solve_shifted_hessen
    family = {}

    def capture(*args, **kwargs):
        family["out"] = inner(*args, **kwargs)
        return family["out"]

    matfunc.solve_shifted_hessen = capture
    records, arrays = [], {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, count in counts.items():
            w = workloads.make(name)
            w.setup(tmp)
            for seed in SEEDS:
                for index, inp in zip(range(count), w.inputs(seed)):
                    out_ = w.call(w.A, inp)
                    key = f"{name}/{seed}/{index}"
                    if name == "matfunc-exp":
                        arrays[key + "/action"] = out_[0]
                        arrays[key + "/input_norm"] = np.linalg.norm(inp)
                        xs, report = family["out"]
                    else:
                        xs, report = out_
                    arrays[key] = np.array(xs)
                    records.append({"key": key, **_record(report)})
    out = Path(out)
    np.savez(out.with_suffix(".npz"), **arrays)
    # the environment record names the tree by its commit and source digest
    environment = envinfo.record(Path(src).resolve().parent, src, before)
    out.with_suffix(".json").write_text(json.dumps(
        {"src": str(src), "environment": environment, "inputs": records}, indent=1))
    print(f"wrote {out.with_suffix('.json')} and .npz: {len(records)} inputs")


def _differ(where, ra, rb, names):
    """One line per name whose value differs between, or is missing from,
    the two records."""
    pairs = ((name, ra.get(name, "missing"), rb.get(name, "missing")) for name in names)
    return [f"{where}: {name} {x} != {y}" for name, x, y in pairs if x != y]


def _means(records):
    """Per workload: input count, mean cycles, basis and residual products,
    and the counts of singular shifts and of stalled reports."""
    by_name = {}
    for r in records.values():
        by_name.setdefault(r["key"].split("/")[0], []).append(r)
    return {name: (len(rs), *(sum(r.get(key, 0) for r in rs) / len(rs)
                              for key in ("cycles", "basis_mvps", "residual_mvps")),
                   sum(h.get("skipped_cycles") not in (None, 0, "missing")
                       for r in rs for h in r["shifts"]),
                   sum(r.get("stalled") is True for r in rs))
            for name, rs in by_name.items()}


def compare(path_a, path_b):
    import numpy as np

    recs, sols = [], []
    for path in (path_a, path_b):
        path = Path(path)
        recs.append({r["key"]: r for r in json.loads(path.read_text())["inputs"]})
        sols.append(np.load(path.with_suffix(".npz")))
    a, b = recs
    diffs = [f"only in one run: {key}" for key in sorted(set(a) ^ set(b))]
    gap, where = 0.0, None
    gaps = {}  # per workload
    for key in sorted(set(a) & set(b)):
        ra, rb = a[key], b[key]
        diffs += _differ(key, ra, rb, COUNTERS)
        if len(ra["shifts"]) != len(rb["shifts"]):
            diffs.append(f"{key}: {len(ra['shifts'])} != {len(rb['shifts'])} shifts")
        for i, (sa, sb) in enumerate(zip(ra["shifts"], rb["shifts"])):
            diffs += _differ(f"{key} shift {i}", sa, sb, SHIFT_FLAGS)
        for k in (key, key + "/action"):
            if k not in sols[0]:
                continue
            xa, xb = np.atleast_2d(sols[0][k]), np.atleast_2d(sols[1][k])
            scale = np.linalg.norm(xa, axis=1)
            if k.endswith("/action") and key + "/input_norm" in sols[0]:
                scale = sols[0][key + "/input_norm"]
            rel = np.linalg.norm(xa - xb, axis=1) / scale
            if not np.all(np.isfinite(rel)):
                diffs.append(f"{k}: non-finite solution")
                continue
            name = key.split("/")[0]
            gaps[name] = max(gaps.get(name, 0.0), float(rel.max()))
            if rel.max() > gap:
                gap, where = float(rel.max()), k
    for line in diffs:
        print(line)
    means = [_means(a), _means(b)]
    for name in sorted(set(means[0]) | set(means[1])):
        (na, ca, ma, ra, sa, ta), (nb, cb, mb, rb, sb, tb) = (
            m.get(name, (0, 0.0, 0.0, 0.0, 0, 0)) for m in means)
        print(f"{name}: mean cycle count {ca:.2f} -> {cb:.2f}, "
              f"mean basis MVPs {ma:.1f} -> {mb:.1f}, "
              f"mean residual MVPs {ra:.1f} -> {rb:.1f}, "
              f"singular shifts {sa} -> {sb}, stalled {ta} -> {tb} ({na} -> {nb} inputs), "
              f"largest relative solution gap {gaps.get(name, 0.0):.2e}")
    print(f"{len(a)} inputs; {len(diffs)} differences in counters, flags or finiteness; "
          f"largest relative solution gap {gap:.2e}" + (f" ({where})" if where else ""))
    return 1 if diffs or gap > RTOL else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="two .json records to compare")
    ap.add_argument("--src", default=str(ROOT / "src"), help="the src/ tree to import")
    ap.add_argument("--out", help="output path; .json and .npz are written next to it")
    ap.add_argument("-n", type=int, default=12, help="inputs per seed and workload")
    ap.add_argument("--inputs", action="append", default=[], metavar="NAME=N",
                    help="inputs per seed for one workload")
    ap.add_argument("--workload", action="append", help="workload name (repeatable)")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        ap.error("give either --compare A B or --out PATH")
    counts = {name: args.n for name in (args.workload or DEFAULT_WORKLOADS)}
    for item in args.inputs:
        name, _, n = item.partition("=")
        counts[name] = int(n)
    run(args.src, args.out, counts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
