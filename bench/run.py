"""Benchmark of the shiftkrylov shifted-family stack.

Run from the root of a checkout::

    python3 bench/run.py --workload convdiff-shessen --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 50

One process drives the package's public API as a closed loop with one
caller: each call starts after the previous one returns.  Every output
is checked outside the timed region.  BLAS is pinned to one thread in this process's environment
before numpy loads.  A run lasts ``--seconds`` of wall time, but every
duration it reports is CPU time of the process (``time.process_time``):
on a shared host the wall clock also counts the time the process waits
for a CPU, which doubled call times in tests and left the CPU time as it
was (see "Clock" in ``NOTES.md``).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` replays the same calls with spans around every layer and
prints the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Full results, with the environment record and, when
traced, every span, are written to ``.bench_out/``.  See ``NOTES.md``.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import envinfo
import tracing

# ``workloads`` and the package import numpy, so they are imported inside
# functions, once the BLAS threads are pinned and src/ is first on the path.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up is repeated in this many fresh processes and the median taken.
SETUP_PROBES = 3
# The tail percentile is the highest one with at least this many calls
# beyond it.
TAIL_BEYOND = 10
# Calls replayed under tracemalloc for solvers.peak_alloc_mb.
MEMORY_CALLS = 3
# Untimed calls before the timed phase.
WARMUP_CALLS = 3

END_TO_END = {
    "call_s_p50": "s",
    "call_s_tail": "s",
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def quantile(values, p):
    """Harrell-Davis estimate of the ``p`` quantile.

    A weighted mean of all order statistics.  Call times of the solver
    workloads cluster by cycle count, and the plain sample median jumps
    between clusters from one seed to the next; this estimate moves
    smoothly with the mix.
    """
    from scipy.special import betainc

    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = betainc(a, b, [k / n for k in range(n + 1)])
    return float(sum((cdf[k + 1] - cdf[k]) * x[k] for k in range(n)))


def tail_level(n):
    """Highest percentile, on a 0.1 grid, with TAIL_BEYOND calls beyond it."""
    return max(50.0, int(1000.0 * (1.0 - TAIL_BEYOND / n)) / 10.0)


# -- set-up ------------------------------------------------------------


def setup_probe(name):
    """Time the package import and the workload's set-up calls, as a fresh
    process pays them, and print them as one JSON line."""
    t0 = time.process_time()
    import shiftkrylov  # noqa: F401

    import_s = time.process_time() - t0
    import workloads

    OUT.mkdir(exist_ok=True)
    steps = workloads.make(name).setup(str(OUT))
    total = import_s + sum(v for k, v in steps.items() if k.endswith("_s"))
    print(json.dumps({"setup_s": total, "import_s": import_s, **steps}))
    return 0


def measure_setup(name):
    samples = []
    for _ in range(SETUP_PROBES):
        cp = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name],
            capture_output=True, text=True, timeout=150, cwd=ROOT, env=os.environ,
        )
        if cp.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{cp.stderr}")
        samples.append(json.loads(cp.stdout.strip().splitlines()[-1]))
    keys = samples[0].keys()
    return {k: statistics.median(s[k] for s in samples) for k in keys}, samples


# -- the closed loop ---------------------------------------------------


class Call:
    """One timed call: ``seconds`` of process CPU time, ``wall`` seconds."""

    def __init__(self, index, inp, seconds, wall, out=None, result=None):
        self.index = index
        self.inp = inp
        self.seconds = seconds
        self.wall = wall
        self.out = out
        self.family = None
        self.result = result


def timed_call(w, op, index, inp, tracer=None):
    """Time one call.  An error it raises is recorded as a failed call."""
    import workloads

    if tracer is not None:
        tracer.call_id, tracer.last_family = index, None
    w0, t0 = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            out = w.call(op, inp)
        else:
            with tracer.span(w.span_name):
                out = w.call(op, inp)
    except Exception as exc:  # a failed call is counted, not fatal
        err = f"{type(exc).__name__}: {exc}"
        print(f"call {index} failed: {err}", file=sys.stderr)
        return Call(index, inp, time.process_time() - t0, time.perf_counter() - w0,
                    result=workloads.CallResult(False, 0, error=err))
    c = Call(index, inp, time.process_time() - t0, time.perf_counter() - w0, out=out)
    if tracer is not None:
        c.family = tracer.last_family
    return c


def check(w, calls):
    """Check every call outside the timed region, then drop its input and
    output, so what the benchmark keeps does not grow the process."""
    for c in calls:
        if c.result is None:
            c.result = w.check(c.inp, c.out, c.family)
            if not c.result.ok:
                brief = {k: v for k, v in c.result.detail.items() if k != "report"}
                print(f"call {c.index} missed its check: {brief}", file=sys.stderr)
        c.inp = c.out = c.family = None
    return calls


def run_blocks(w, op, seed, done, tracer=None):
    """Whole blocks of timed calls, each block checked after its calls,
    until ``done(calls)`` holds before the next block."""
    calls = []
    inputs = enumerate(w.inputs(seed))
    while not done(calls):
        # Results kept so far must not lengthen the collector's passes
        # inside the calls.
        gc.collect()
        gc.freeze()
        block = [timed_call(w, op, i, inp, tracer)
                 for _, (i, inp) in zip(range(w.block_size), inputs)]
        calls += check(w, block)
    return calls


def warm_up(w, op, seed):
    """A few calls from a separate input stream, so lazy set-up and caches
    are warm before timing.  They are checked but not timed."""
    import workloads

    inputs = w.inputs(seed, stream=workloads.WARMUP)
    return check(w, [timed_call(w, op, -1 - i, next(inputs)) for i in range(WARMUP_CALLS)])


def peak_alloc_mb(w, op, seed, count):
    """Largest tracemalloc peak over the first ``count`` calls, replayed
    untraced.  Each call is checked after its peak is read."""
    peaks, calls = [], []
    inputs = w.inputs(seed)
    tracemalloc.start()
    try:
        for i in range(count):
            tracemalloc.reset_peak()
            c = timed_call(w, op, i, next(inputs))
            peaks.append(tracemalloc.get_traced_memory()[1])
            calls += check(w, [c])
    finally:
        tracemalloc.stop()
    return max(peaks, default=0) / 1e6, calls


# -- metrics -----------------------------------------------------------


def end_to_end(calls, setup):
    times = [c.seconds for c in calls]
    level = tail_level(len(times))
    units = sum(c.result.units for c in calls)
    metrics = {
        "call_s_p50": quantile(times, 0.5),
        "call_s_tail": quantile(times, level / 100.0),
        "work_per_s": units / sum(times),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    wall_per_cpu = statistics.median(c.wall / c.seconds for c in calls if c.seconds > 0)
    return metrics, {"tail_percentile": level, "samples": len(times),
                     "wall_per_cpu": wall_per_cpu}


def mark_mismatches(reference, replayed):
    """Fail every replayed call whose cycles and MVPs, or for the scalar
    workload whose value, differ from the untraced call on the same input.
    Returns their indices."""
    bad = []
    for a, b in zip(reference, replayed):
        ra, rb = a.result, b.result
        if (ra.cycles, ra.mvps, ra.detail.get("value")) != (
                rb.cycles, rb.mvps, rb.detail.get("value")):
            rb.ok = False
            rb.error = (f"replay gave cycles={rb.cycles} mvps={rb.mvps}, "
                        f"untraced cycles={ra.cycles} mvps={ra.mvps}")
            print(f"call {b.index}: {rb.error}", file=sys.stderr)
            bad.append(b.index)
    return bad


def run_workload(args, threads_before):
    import workloads

    name, seed = args.workload, args.seed
    OUT.mkdir(exist_ok=True)
    setup, setup_samples = measure_setup(name)
    w = workloads.make(name)
    w.setup(str(OUT))
    env = envinfo.record(ROOT, SRC, threads_before)
    op = getattr(w, "A", None)

    warmed = warm_up(w, op, seed)
    # a traced run replays its untraced calls, so each phase gets half
    timed = args.seconds / 2 if args.trace else args.seconds
    calls = run_blocks(w, op, seed, lambda cs: sum(c.wall for c in cs) >= timed)
    metrics, tail = end_to_end(calls, setup)
    all_calls = warmed + calls
    result = {"workload": name, "seed": seed, "seconds": args.seconds, "trace": args.trace,
              "env": env, "setup": setup, "setup_samples": setup_samples, **tail}

    if args.trace:
        tracer = tracing.Tracer()
        top = tracing.TimedOperator(op, tracer) if op is not None else None
        with tracing.installed(tracer):
            traced = run_blocks(w, top, seed, lambda cs: len(cs) >= len(calls), tracer)
        memory, memory_calls = peak_alloc_mb(w, op, seed, min(MEMORY_CALLS, len(calls)))
        result["mismatches"] = (mark_mismatches(calls, traced)
                                + mark_mismatches(calls, memory_calls))
        all_calls += traced + memory_calls
        layers = tracing.layer_metrics(w, tracer, calls, traced, setup)
        layers["solvers.peak_alloc_mb"] = memory
        layers["failed_fraction"] = sum(not c.result.ok for c in all_calls) / len(all_calls)
        layers["trace.overhead_frac"] = (
            quantile([c.seconds for c in traced], 0.5) / metrics["call_s_p50"] - 1.0)
        result["spans"] = tracer.records()
        report = {k: layers[k] for k in tracing.PER_LAYER}
        units = tracing.PER_LAYER
    else:
        report = metrics
        units = END_TO_END

    failed = sum(not c.result.ok for c in all_calls)
    result["calls"] = [
        {"index": c.index, "seconds": c.seconds, "wall": c.wall, "ok": c.result.ok,
         "units": c.result.units,
         "cycles": c.result.cycles, "mvps": c.result.mvps, "error": c.result.error}
        for c in all_calls
    ]
    result["metrics"] = {**metrics, **report}
    out_path = OUT / f"{name}-seed{seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, default=float))

    print("env " + json.dumps(env))
    if env["flags"]:
        print("FLAG " + "; ".join(env["flags"]))
    print(f"{name}: {len(calls)} calls, tail percentile p{tail['tail_percentile']} "
          f"of {tail['samples']}, median wall/CPU {tail['wall_per_cpu']:.3f}, "
          f"result in {out_path.relative_to(ROOT)}")
    line = {
        "correct": failed == 0,
        "attempted": len(all_calls),
        "failed": failed,
        "metrics": {k: {"value": float(report[k]), "unit": units[k]} for k in units},
    }
    print(json.dumps(line))
    return 0


def run_all(args):
    """Every workload in its own fresh process; prints each metric by name
    and unit, and the environment record once."""
    import workloads

    status = 0
    env_shown = False
    for name in workloads.NAMES:
        cp = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, env=os.environ,
        )
        lines = cp.stdout.strip().splitlines()
        if cp.returncode != 0 or not lines:
            print(f"{name}: exit {cp.returncode}\n{cp.stderr}")
            status = 1
            continue
        if not env_shown:
            print(lines[0])
            env_shown = True
        print("\n".join(lines[1:-1]))
        res = json.loads(lines[-1])
        print(f"  correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for k, m in res["metrics"].items():
            print(f"  {k:36s} {m['value']:.6g} {m['unit']}")
        if not res["correct"]:
            status = 1
    return status


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one of: convdiff-shessen, convdiff-sfom, "
                    "matfunc-exp, ml-scalar")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.all and not args.workload:
        ap.error("give --workload NAME or --all")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def main(argv=None, threads_before=None):
    args = parse_args(argv)
    if not (SRC / "shiftkrylov" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.workload)
    if args.all:
        return run_all(args)
    return run_workload(args, threads_before or {})


if __name__ == "__main__":
    # before anything imports numpy
    before = envinfo.pin_threads(os.environ)
    sys.exit(main(threads_before=before))
