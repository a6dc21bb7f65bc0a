"""Outside-in tracing of the coupledfp layers.

The tracer wraps the public functions of each layer module from here, never
from inside the library: every module attribute bound to a wrapped function
is replaced (so names imported by value, such as ``cli.solve``, are covered
too), and so are the ``apply`` / ``sampler`` / ``distance`` callables of each
problem that ``resolve_problem`` returns. ``uninstall`` restores everything.

Two kinds of wrapper:
  span   records (id, parent, job, lane, layer, name, start, duration, self
         time, counter deltas, extras) when the call returns
  count  increments a counter only; used for hot leaf calls (F evaluations,
         distances, admissibility tests) that run up to millions of times

Counters are global; each span stores how much every counter moved while it
was open, so counts are attributed at the same boundaries as the spans. A
span's self time is its duration minus the durations of its child spans.
Spans are kept in memory and written once, by ``write``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("cli", "problems", "solver", "conditions", "kernels", "operators",
          "spaces", "uniqueness", "reports")

# Hot leaf functions: counted, not spanned.
COUNT_ONLY = {
    "operators": ("product_T", "evaluation_lane"),
    "spaces": ("d2", "product_leq", "pairs_comparable"),
    "solver": ("check_start", "residual"),
    "kernels": ("stream_seed",),
    "conditions": ("delta_from_k",),
}

# Layers whose nested calls into the same layer are not separate spans
# (reports.jsonable recurses once per element).
OUTERMOST_ONLY = ("reports",)

# Counters of the problem callables; every COUNT_ONLY function adds its own.
COUNTERS = ("apply", "distance", "sampler_calls", "sampler_points")

KERNEL_SWEEPS = {"banach_sweep": 4, "band_sweep": 5, "strict_sweep": 3}  # index of n
CONDITION_CHECKS = ("check_banach_k", "check_samet", "check_symmetric_mk",
                    "check_strict_contraction")


class Tracer:
    def __init__(self):
        from coupledfp import operators

        self._lane_of = operators.evaluation_lane
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.records = []
        self._stack = []
        self._depth = dict.fromkeys(LAYERS + ("job",), 0)
        self._patches = []
        self._next_id = 0
        self.job = None
        self.job_lane = {}
        self.active = False

    # -- spans ---------------------------------------------------------------

    def _open(self, layer, name, lane=None):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        top = self._depth[layer] == 0
        self._depth[layer] += 1
        frame = [sid, parent, layer, name, lane, top, dict(self.counts), {}, 0.0,
                 time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        t1 = time.perf_counter()
        popped = self._stack.pop()
        assert popped is frame, "span stack out of order"
        sid, parent, layer, name, lane, top, snap, extra, child, t0 = frame
        self._depth[layer] -= 1
        dur = t1 - t0
        if self._stack:
            self._stack[-1][8] += dur
        deltas = {k: v - snap[k] for k, v in self.counts.items() if v != snap[k]}
        self.records.append({
            "id": sid, "parent": parent, "job": self.job, "lane": lane,
            "layer": layer, "name": name, "top": top, "start": t0, "dur": dur,
            "self": dur - child, "counts": deltas, "extra": extra,
        })

    def begin_job(self, job_id, lane):
        self.job = job_id
        self.job_lane[job_id] = lane
        self.active = True
        return self._open("job", "job", lane)

    def end_job(self, frame, **extra):
        frame[7].update(extra)
        self._close(frame)
        self.active = False
        self.job = None

    # -- wrapping ------------------------------------------------------------

    def _span_wrapper(self, fn, layer, name, post=None):
        tracer = self
        nested_ok = layer not in OUTERMOST_ONLY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or (not nested_ok and tracer._depth[layer]):
                return fn(*args, **kwargs)
            lane = None
            if layer == "conditions" and args:
                lane = tracer._lane_of(args[0])
            frame = tracer._open(layer, name, lane)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                frame[7]["error"] = type(exc).__name__
                tracer._close(frame)
                raise
            if post is not None:
                post(frame[7], args, kwargs, result)
            tracer._close(frame)
            return result

        return wrapper

    def _count_wrapper(self, fn, counter):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapped):
        """Rebind every coupledfp module attribute that holds original."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "coupledfp" or mod_name.startswith("coupledfp.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def wrap_problem(self, problem):
        """Wrap the callables a problem's space and operator carry."""
        space, op = problem.space, problem.operator
        if getattr(op.apply, "_perfbench", False):
            return
        apply = self._count_wrapper(op.apply, "apply")
        distance = self._count_wrapper(space.distance, "distance")
        counts = self.counts

        def sampler_post(extra, args, kwargs, result):
            counts["sampler_calls"] += 1
            counts["sampler_points"] += len(result)
            extra["points"] = len(result)

        sampler = self._span_wrapper(space.sampler, "spaces", "sampler", sampler_post)
        for fn in (apply, distance, sampler):
            fn._perfbench = True
        self._set(op, "apply", apply)
        self._set(space, "distance", distance)
        self._set(space, "sampler", sampler)
        if op.space is not space:
            self._set(op.space, "distance", distance)
            self._set(op.space, "sampler", sampler)

    def install(self, problems=()):
        import coupledfp.cli  # noqa: F401  (load every layer module)
        from coupledfp import reports

        counts = self.counts
        tracer = self
        posts = {
            "solve": lambda e, a, k, r: e.update(iterations=r.iterations),
            "sample_admissible_starts": lambda e, a, k, r: e.update(found=len(r)),
            "audit_space": lambda e, a, k, r: e.update(
                checks=sum(ax.checks for ax in r.axioms)),
        }

        def resolve_post(extra, args, kwargs, result):
            tracer.wrap_problem(result)
            tracer.job_lane[tracer.job] = tracer._lane_of(result.operator)

        def report_post(extra, args, kwargs, result):
            extra.update(samples=result.samples_used,
                         comparable=result.comparable_pairs_used,
                         verdict=result.verdict)

        def sweep_post(n_index):
            def post(extra, args, kwargs, result):
                found, used = result[0], result[1]
                extra["draws"] = used if found else args[n_index]
                if n_index == KERNEL_SWEEPS["band_sweep"]:
                    extra["hits"] = used
            return post

        posts["resolve_problem"] = resolve_post
        for name in CONDITION_CHECKS:
            posts[name] = report_post
        for name, n_index in KERNEL_SWEEPS.items():
            posts[name] = sweep_post(n_index)

        for layer in LAYERS:
            mod = sys.modules[f"coupledfp.{layer}"]
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                # kernels re-exports the sweeps of its backend module
                if not fn.__module__.startswith(mod.__name__):
                    continue
                if name in COUNT_ONLY.get(layer, ()):
                    counts.setdefault(name, 0)
                    wrapped = self._count_wrapper(fn, name)
                else:
                    wrapped = self._span_wrapper(fn, layer, name, posts.get(name))
                self._replace_everywhere(fn, wrapped)
        for cls in (reports.ConditionReport, reports.Witness):
            self._set(cls, "to_jsonable",
                      self._span_wrapper(cls.to_jsonable, "reports",
                                         f"{cls.__name__}.to_jsonable"))
        for problem in problems:
            self.wrap_problem(problem)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.records:
                rec = dict(rec, lane=rec["lane"] or self.job_lane.get(rec["job"]))
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

UNITS = {
    "calls": "count", "draws": "count", "quadruples": "count", "apply_calls": "count",
    "admissible_points_drawn": "count", "admissible_points_tested": "count",
    "iterations": "count", "sampler_calls": "count", "sampler_points": "count",
    "audit_checks": "count", "bytes_out": "bytes",
}


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    field = name.split(".", 1)[1]
    if field.endswith("_ms"):
        return "ms"
    if field.endswith("_per_s"):
        return "1/s"
    return UNITS.get(field, "ratio")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(records, passes, job_lane, factors):
    """Per-layer numbers from the spans of `passes` traced passes.

    Counts and times are per pass of the job list, so they repeat exactly
    (counts) or closely (times) for a given seed. Times are scaled by their
    job's speed factor (speed.py), like the end-to-end times. Returns
    (metrics, predicted_zero_checks).
    """
    by_id = {r["id"]: r for r in records}
    for r in records:
        f = factors[r["job"]]
        r["dur_n"] = r["dur"] * f
        r["self_n"] = r["self"] * f

    def where(layer=None, name=None, top=None):
        for r in records:
            if layer is not None and r["layer"] != layer:
                continue
            if name is not None and r["name"] not in (name if isinstance(name, tuple) else (name,)):
                continue
            if top is not None and r["top"] != top:
                continue
            yield r

    def ms(rs):
        return 1000.0 * sum(r["dur_n"] for r in rs) / passes

    def busy(layer):
        return ms(where(layer, top=True))

    def self_ms(layer):
        return 1000.0 * sum(r["self_n"] for r in where(layer)) / passes

    def under(r, layer):
        p = r["parent"]
        while p is not None:
            pr = by_id[p]
            if pr["layer"] == layer:
                return True
            p = pr["parent"]
        return False

    jobs = list(where("job"))
    job_ms = ms(jobs)

    sweeps = list(where("kernels", name=tuple(KERNEL_SWEEPS)))
    k_draws = sum(r["extra"]["draws"] for r in sweeps)
    k_busy = ms(sweeps)
    bands = [r for r in sweeps if r["name"] == "band_sweep"]
    band_draws = sum(r["extra"]["draws"] for r in bands)
    band_hits = sum(r["extra"]["hits"] for r in bands)

    checks = list(where("conditions", name=CONDITION_CHECKS, top=True))
    quads = sum(r["extra"].get("samples", 0) for r in checks)
    comparable = sum(r["extra"].get("comparable", 0) for r in checks)
    fails = sum(r["extra"].get("verdict") == "fails" for r in checks)
    checks_s = sum(r["dur_n"] for r in checks)
    check_apply = sum(r["counts"].get("apply", 0) for r in checks)

    admissible = list(where("problems", name="sample_admissible_starts"))
    tested = sum(r["counts"].get("check_start", 0) for r in admissible)
    found = sum(r["extra"].get("found", 0) for r in admissible)

    solves = list(where("solver", name="solve"))
    iterations = sum(r["extra"].get("iterations", 0) for r in solves)
    samplers = list(where("spaces", name="sampler"))
    audits = list(where("spaces", name="audit_space"))
    cli_main = list(where("cli", name="main"))

    m = {
        "kernels.calls": len(sweeps) / passes,
        "kernels.draws": k_draws / passes,
        "kernels.busy_ms": k_busy,
        "kernels.busy_share": _ratio(k_busy, job_ms),
        "kernels.draws_per_s": _ratio(k_draws, k_busy * passes / 1000.0),
        "kernels.band_hit_ratio": _ratio(band_hits, band_draws),
        "conditions.busy_ms": busy("conditions"),
        "conditions.self_ms": self_ms("conditions"),
        "conditions.curve_ms": ms(where("conditions", name="estimate_delta_curve", top=True)),
        "conditions.quadruples": quads / passes,
        "conditions.comparable_ratio": _ratio(comparable, quads),
        "conditions.quadruples_per_s": _ratio(quads, checks_s),
        "conditions.fails_share": _ratio(fails, len(checks)),
        "operators.apply_calls": sum(r["counts"].get("apply", 0) for r in jobs) / passes,
        "operators.apply_per_quadruple": _ratio(check_apply, quads),
        "operators.mixed_monotone_ms": ms(where("operators", name="check_mixed_monotone")),
        "problems.resolve_ms": ms(where("problems", name="resolve_problem")),
        "problems.resolve_share": _ratio(ms(where("problems", name="resolve_problem")), job_ms),
        "problems.admissible_ms": ms(admissible),
        "problems.admissible_points_drawn":
            sum(r["counts"].get("sampler_points", 0) for r in admissible) / passes,
        "problems.admissible_points_tested": tested / passes,
        "problems.admissible_use_ratio": _ratio(found, tested),
        "solver.calls": len(solves) / passes,
        "solver.iterations": iterations / passes,
        "solver.busy_ms": busy("solver"),
        "solver.steps_per_s": _ratio(iterations, busy("solver") * passes / 1000.0),
        "spaces.sampler_calls": len(samplers) / passes,
        "spaces.sampler_points": sum(r["extra"].get("points", 0) for r in samplers) / passes,
        "spaces.sampler_ms": ms(samplers),
        "spaces.audit_ms": ms(audits),
        "spaces.audit_checks": sum(r["extra"].get("checks", 0) for r in audits) / passes,
        "uniqueness.busy_ms": busy("uniqueness"),
        "uniqueness.self_ms": self_ms("uniqueness"),
        "uniqueness.comparability_ms": ms(where("uniqueness", name="probe_comparability")),
        "cli.calls": len(cli_main) / passes,
        "cli.self_ms": self_ms("cli"),
        "cli.self_share": _ratio(self_ms("cli"), job_ms),
        "cli.bytes_out": sum(r["extra"].get("bytes_out", 0) for r in jobs) / passes,
        "reports.to_jsonable_ms": busy("reports"),
    }

    cond_lanes = {}
    for r in where("conditions"):
        lane = r["lane"] or job_lane.get(r["job"])
        cond_lanes[lane] = cond_lanes.get(lane, 0) + 1
    conditions_samplers = sum(1 for r in samplers if under(r, "conditions"))
    zeros = {
        "kernel_calls": len(sweeps),
        "generic_lane_condition_spans": cond_lanes.get("generic", 0),
        "sampler_calls_under_conditions": conditions_samplers,
        "condition_spans_by_lane": cond_lanes,
    }
    return m, zeros
