"""In-memory spans around the calls the benchmark makes into each layer.

Spans are recorded only in a traced run.  Wrappers are installed at run
time, in the benchmark process only, by replacing the names that
``shiftkrylov.solvers`` and ``shiftkrylov.matfunc`` look up at call time;
nothing in the package itself changes.  :func:`installed` restores the
original functions on exit.
"""

import contextlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a root span
    call_id: int
    end: float = 0.0
    info: dict = field(default_factory=dict)


class Tracer:
    """Collects the nested spans of one thread, on the process CPU clock.

    ``call_id`` tags every span with the benchmark call that caused it,
    so spans of one call share it.  ``last_family`` keeps the most recent
    ``(xs, report)`` returned by the wrapped inner family solve of
    ``eval_rational_action``, for the benchmark's residual check.
    """

    def __init__(self):
        self.spans = []
        self.call_id = -1
        self.last_family = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = Span(name, time.process_time(), parent, self.call_id)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.process_time()
            self._stack.pop()

    def self_times(self):
        """Per span: its duration minus the time its child spans cover.

        Children of one span never overlap (one thread, strict nesting),
        so the covered time is the sum of their durations.
        """
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def records(self):
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "call_id": s.call_id, **s.info}
            for s in self.spans
        ]


class TimedOperator:
    """Operator proxy that records a span per product and per norm.

    Forwards exactly what the solvers read from an operator: ``shape``,
    ``dtype``, ``nnz``, ``norm_inf`` and ``@``.  Dropping ``norm_inf``
    would change the breakdown threshold and with it the solve, which
    the traced run's equality check would catch.
    """

    def __init__(self, A, tracer):
        self._A = A
        self._tracer = tracer
        self.shape = A.shape
        self.dtype = A.dtype
        self.nnz = A.nnz

    def norm_inf(self):
        with self._tracer.span("sparse.norm_inf"):
            return self._A.norm_inf()

    def __matmul__(self, x):
        with self._tracer.span("sparse.matvec"):
            return self._A @ x


def _process(tracer, name, fn):
    def wrapper(A, v, m, *args, **kwargs):
        with tracer.span(name) as rec:
            dec = fn(A, v, m, *args, **kwargs)
        rec.info = {"steps": dec.steps, "breakdown": dec.breakdown}
        return dec

    return wrapper


def _reduced(tracer, name, fn, singular_exc):
    def wrapper(*args, **kwargs):
        with tracer.span(name) as rec:
            try:
                return fn(*args, **kwargs)
            except singular_exc:
                rec.info = {"singular": True}
                raise

    return wrapper


def _family(tracer, name, fn):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            out = fn(*args, **kwargs)
        tracer.last_family = out
        return out

    return wrapper


@contextlib.contextmanager
def installed(tracer):
    """Wrap the layer entry points that the solver and matfunc modules call."""
    import shiftkrylov.matfunc as matfunc
    import shiftkrylov.solvers as solvers
    from shiftkrylov.errors import SingularReducedSystem

    targets = [
        (solvers, "run_hessenberg", _process(tracer, "processes.run_hessenberg",
                                             solvers.run_hessenberg)),
        (solvers, "run_arnoldi", _process(tracer, "processes.run_arnoldi",
                                          solvers.run_arnoldi)),
        (matfunc, "solve_shifted_hessen", _family(tracer, "solvers.solve_shifted_hessen",
                                                  matfunc.solve_shifted_hessen)),
    ]
    for name in ("solve_shifted_hessenberg", "solve_hessenberg", "collinearity_scalar"):
        targets.append((solvers, name, _reduced(
            tracer, f"reduced.{name}", getattr(solvers, name), SingularReducedSystem)))
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in targets]
    try:
        for mod, name, fn in targets:
            setattr(mod, name, fn)
        yield tracer
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


# Per-layer metrics and their units.  "1/call" and "s/call" are means
# over the traced calls; "count" is a total over them.
PER_LAYER = {
    "sparse.matvec_calls": "1/call",
    "sparse.matvec_s": "s/call",
    "sparse.matvec_gflops": "GFLOP/s",
    "sparse.matvec_gbytes_computed": "GB/call",
    "sparse.norm_inf_calls": "1/call",
    "sparse.norm_inf_s": "s/call",
    "processes.calls": "1/call",
    "processes.steps": "1/call",
    "processes.self_s": "s/call",
    "processes.s_per_step": "s",
    "processes.vector_gflops": "GFLOP/s",
    "processes.breakdowns": "count",
    "reduced.calls": "1/call",
    "reduced.s": "s/call",
    "reduced.us_per_call": "us",
    "reduced.singular": "count",
    "solvers.cycles_per_call": "1/call",
    "solvers.self_s": "s/call",
    "solvers.residual_checks": "1/call",
    "solvers.confirm_ratio": "ratio",
    "solvers.skipped_shift_cycles": "count",
    "solvers.peak_alloc_mb": "MB",
    "solvers.max_true_residual": "ratio",
    "mvps_per_call": "1/call",
    "matfunc.combine_s": "s/call",
    "matfunc.max_rel_error": "ratio",
    "matfunc.ml_near_s": "s/call",
    "matfunc.ml_far_s": "s/call",
    "matfunc.ml_max_rel_error": "ratio",
    "problems.gen_s": "s",
    "mmio.save_s": "s",
    "mmio.load_s": "s",
    "mmio.file_bytes": "B",
    "costs.predicted_gflop_per_call": "GFLOP/call",
    "costs.achieved_gflops": "GFLOP/s",
    "failed_fraction": "ratio",
    "trace.overhead_frac": "ratio",
}


def _ratio(num, den):
    return num / den if den else 0.0


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(w, tracer, untraced, traced, setup):
    """Per-layer metrics from the spans of the traced replay.

    ``untraced`` and ``traced`` are the calls of the two phases, on the
    same inputs in the same order; reports and checks come from them,
    set-up timings from the set-up probes.  ``solvers.peak_alloc_mb``,
    ``failed_fraction`` and ``trace.overhead_frac`` are filled in by the
    caller.  A layer the workload does not reach reads zero.
    """
    from shiftkrylov.costs import attach_costs, predicted_flops

    ncalls = len(traced)
    own = tracer.self_times()
    count, total, self_s = {}, {}, {}
    for s, o in zip(tracer.spans, own):
        layer = s.name.split(".")[0]
        for key in (s.name, layer):
            count[key] = count.get(key, 0) + 1
            total[key] = total.get(key, 0.0) + (s.end - s.start)
            self_s[key] = self_s.get(key, 0.0) + o

    def per_call(table, key):
        return table.get(key, 0.0) / ncalls

    A = getattr(w, "A", None)
    steps = vector_flops = 0
    breakdowns = 0
    for s in tracer.spans:
        if s.name.startswith("processes."):
            # a process that raised has no step count
            k = s.info.get("steps", 0)
            steps += k
            breakdowns += s.info.get("breakdown", False)
            process = s.name.split(".")[1].removeprefix("run_")
            vector_flops += predicted_flops(process, k, A.shape[0], A.nnz) - 2 * k * A.nnz
    matvecs = count.get("sparse.matvec", 0)
    if A is not None:
        matvec_bytes = (A.nnz * (A.values.itemsize + A.col_idx.itemsize)
                        + A.row_ptr.size * A.row_ptr.itemsize
                        + (A.shape[0] + A.shape[1]) * A.values.itemsize)
        matvec_flops = 2 * A.nnz
    else:
        matvec_bytes = matvec_flops = 0

    reports = [c.result.detail.get("report") for c in traced]
    reports = [r for r in reports if r is not None]
    for r in reports:
        attach_costs(r)
    residuals = [x for c in traced for x in c.result.detail.get("true_residuals", [])]
    mf_errors = [c.result.detail["rel_error"] for c in traced
                 if w.name == "matfunc-exp" and "rel_error" in c.result.detail]
    ml = [(abs(c.result.detail["z"]), c.seconds, c.result.detail["rel_error"])
          for c in traced if "z" in c.result.detail]
    radius = getattr(w, "series_radius", 0.0)
    untraced_reports = [c.result.detail["report"] for c in untraced
                        if "report" in c.result.detail]
    for r in untraced_reports:
        attach_costs(r)

    return {
        "sparse.matvec_calls": matvecs / ncalls,
        "sparse.matvec_s": per_call(total, "sparse.matvec"),
        "sparse.matvec_gflops": _ratio(matvecs * matvec_flops,
                                       total.get("sparse.matvec", 0.0)) / 1e9,
        "sparse.matvec_gbytes_computed": matvecs * matvec_bytes / ncalls / 1e9,
        "sparse.norm_inf_calls": count.get("sparse.norm_inf", 0) / ncalls,
        "sparse.norm_inf_s": per_call(total, "sparse.norm_inf"),
        "processes.calls": count.get("processes", 0) / ncalls,
        "processes.steps": steps / ncalls,
        "processes.self_s": per_call(self_s, "processes"),
        "processes.s_per_step": _ratio(self_s.get("processes", 0.0), steps),
        "processes.vector_gflops": _ratio(vector_flops, self_s.get("processes", 0.0)) / 1e9,
        "processes.breakdowns": breakdowns,
        "reduced.calls": count.get("reduced", 0) / ncalls,
        "reduced.s": per_call(total, "reduced"),
        "reduced.us_per_call": _ratio(total.get("reduced", 0.0), count.get("reduced", 0)) * 1e6,
        "reduced.singular": sum(1 for s in tracer.spans if s.info.get("singular")),
        "solvers.cycles_per_call": _mean(r.cycles for r in reports),
        "solvers.self_s": per_call(self_s, "solvers"),
        "solvers.residual_checks": _mean(r.residual_mvps for r in reports),
        "solvers.confirm_ratio": _ratio(sum(r.num_converged for r in reports),
                                        sum(r.residual_mvps for r in reports)),
        "solvers.skipped_shift_cycles": sum(h.skipped_cycles for r in reports
                                            for h in r.shifts),
        "solvers.max_true_residual": max(residuals, default=0.0),
        "mvps_per_call": _mean(r.total_mvps for r in untraced_reports),
        "matfunc.combine_s": per_call(self_s, "matfunc.eval_rational_action"),
        "matfunc.max_rel_error": max(mf_errors, default=0.0),
        "matfunc.ml_near_s": _mean(t for z, t, _ in ml if z <= radius),
        "matfunc.ml_far_s": _mean(t for z, t, _ in ml if z > radius),
        "matfunc.ml_max_rel_error": max((e for _, _, e in ml), default=0.0),
        "problems.gen_s": setup.get("problems.gen_s", 0.0),
        "mmio.save_s": setup.get("mmio.save_s", 0.0),
        "mmio.load_s": setup.get("mmio.load_s", 0.0),
        "mmio.file_bytes": setup.get("mmio.file_bytes", 0),
        "costs.predicted_gflop_per_call": _mean(r.predicted_flops for r in reports) / 1e9,
        "costs.achieved_gflops": _ratio(
            sum(r.predicted_flops for r in untraced_reports),
            sum(c.seconds for c in untraced if "report" in c.result.detail)) / 1e9,
    }
