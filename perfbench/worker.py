"""One workload in one fresh process: build the seeded job list, run it in a
closed loop (one caller, no threads) and write the raw results as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR --result FILE

run.py starts this with PYTHONPATH pointing at the checkout's src/, so the
peak RSS it reports belongs to this workload alone.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ORACLE = os.path.join(ROOT, "tests", "finite_oracle.py")
FIXTURE = os.path.join(ROOT, "tests", "data", "diamond5.json")

sys.path.insert(0, HERE)

import gate  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def load_oracle():
    spec = importlib.util.spec_from_file_location("finite_oracle", ORACLE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _dumps(payload):
    # the CLI's serialisation: sorted keys, indent 2, trailing newline
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def run_api_job(job):
    """The library calls equivalent to one CLI subcommand."""
    import coupledfp as cf

    p = job.problem
    op = p.operator
    samples, seed = job.samples, job.seed
    if job.cmd == "verify":
        reports = [cf.check_mixed_monotone(op, samples=samples, seed=seed)]
        la, lb = op.lipschitz_data
        k_cand = 2.0 * max(la, lb)
        k = k_cand if k_cand < 1.0 else 1.0 - 2.0 ** -20
        reports.append(cf.check_banach_k(op, k, samples=samples, seed=seed))
        reports.append(cf.check_samet(op, workloads.EPS_GRID, workloads.delta_rule,
                                      samples=samples, seed=seed))
        reports.append(cf.check_symmetric_mk(op, workloads.EPS_GRID, workloads.delta_rule,
                                             samples=samples, seed=seed))
        reports.append(cf.check_strict_contraction(op, samples=samples, seed=seed))
        payload = {"reports": [r.to_jsonable() for r in reports]}
    elif job.cmd == "delta-curve":
        curve = cf.estimate_delta_curve(op, workloads.EPS_GRID, samples=samples, seed=seed)
        payload = {"curve": [[eps, dmax] for eps, dmax in curve]}
    elif job.cmd == "solve":
        trace = cf.solve(op, p.default_start, tol=workloads.TOL,
                         max_iter=workloads.MAX_ITER, require_admissible=True)
        payload = {"trace": trace.to_jsonable()}
    elif job.cmd == "uniqueness":
        starts = [p.default_start]
        starts += cf.sample_admissible_starts(p, workloads.UNIQUENESS_STARTS, seed=seed)
        report = cf.multi_start_uniqueness(op, starts, tol=workloads.TOL,
                                           max_iter=workloads.MAX_ITER,
                                           bound_search=p.bound_search, seed=seed)
        payload = {"uniqueness": report.to_jsonable()}
    else:
        report = cf.audit_space(p.space, samples=min(samples, 500), seed=seed)
        payload = {"audit": report.to_jsonable()}
    return _dumps(payload).encode()


def run_cli_job(job):
    from coupledfp import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(job.argv)
    if rc != 0:
        raise RuntimeError(f"exit status {rc}: {err.getvalue().strip()}")
    base = job.argv[job.argv.index("--output") + 1]
    with open(base + ".json", "rb") as fh:
        text = fh.read()
    extra = os.path.getsize(base + ".csv") if os.path.exists(base + ".csv") else 0
    return text, len(text) + extra


class Runner:
    """Runs jobs, times them and gates their outputs.

    mutate(job, payload) lets the self-test corrupt an output before the
    gate sees it.
    """

    def __init__(self, jobs, tracer=None, mutate=None):
        import coupledfp as cf

        self.jobs = jobs
        self.tracer = tracer
        self.mutate = mutate
        self.ops = {}
        for job in jobs:
            if job.problem is not None:
                self.ops[job.label] = job.problem.operator
            elif job.label not in self.ops:
                self.ops[job.label] = cf.resolve_problem(job.label).operator
        self.first_digest = {}
        self.timed = []         # (cmd, wall seconds) per timed job
        self.refs = []          # reference timings at the job boundaries
        self.seq = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.verdicts = [0, 0, 0]
        self.nondeterministic = 0

    def _fail(self, job, message):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"job {job.jid} {job.cmd} {job.label}: {message}")

    def execute(self, job, timed=True):
        """Run one job; returns its output bytes (None on error).

        A timed job starts after a garbage collection, as a fresh CLI process
        would, and sits between two reference timings (speed.py); the one
        after a job serves as the one before the next.
        """
        tracer = self.tracer if timed else None
        frame = None
        if timed:
            self.seq += 1
            gc.collect()
            if not self.refs:
                self.refs.append(speed.reference_ms())
        if tracer is not None:
            lane = None if job.problem is None else tracer._lane_of(job.problem.operator)
            frame = tracer.begin_job(self.seq, lane)
            frame[7]["jid"] = job.jid
        t0 = time.perf_counter()
        error = None
        text, nbytes = None, 0
        try:
            if job.problem is None:
                text, nbytes = run_cli_job(job)
            else:
                text = run_api_job(job)
        except (Exception, SystemExit) as exc:  # a job failure, not a benchmark failure
            error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        dt = time.perf_counter() - t0
        if frame is not None:
            tracer.end_job(frame, bytes_out=nbytes)
        if not timed:
            return text
        self.refs.append(speed.reference_ms())
        self.attempted += 1
        self.timed.append((job.cmd, dt))
        if error is not None:
            self._fail(job, error)
            return None
        self.gate(job, text)
        return text

    def gate(self, job, text):
        digest = hashlib.sha256(text).hexdigest()
        first = self.first_digest.setdefault(job.jid, digest)
        problems = []
        if first != digest:
            self.nondeterministic += 1
            problems.append("output differs from the first run of the same job")
        try:
            payload = json.loads(text)
            if self.mutate is not None:
                payload = self.mutate(job, payload)
            problems += gate.check(job, payload, self.ops[job.label])
        except Exception as exc:  # a malformed output fails the job, not the run
            self._fail(job, "gate raised " + "".join(
                traceback.format_exception_only(type(exc), exc)).strip())
            return
        h, f, o = gate.verdict_counts(job, payload)
        self.verdicts[0] += h
        self.verdicts[1] += f
        self.verdicts[2] += o
        if problems:
            self._fail(job, "; ".join(problems))

    def latencies(self):
        """(cmd, wall seconds, normalised seconds) per timed job."""
        return [(cmd, dt, dt * f) for (cmd, dt), f in zip(self.timed, speed.factors(self.refs))]

    def factors(self):
        """Job sequence number -> speed factor."""
        return dict(enumerate(speed.factors(self.refs), start=1))

    def check_repeat(self, job):
        """Run a job again, untimed, and compare its bytes with the first run."""
        text = self.execute(job, timed=False)
        if text is None or hashlib.sha256(text).hexdigest() != self.first_digest.get(job.jid):
            self.attempted += 1
            self._fail(job, "repeated run is not byte-identical")

    def run_passes(self, deadline=None, passes=None):
        """Whole passes until `passes` are done, or jobs until the deadline;
        the first pass always completes, so every subcommand is measured."""
        done = 0
        while True:
            for job in self.jobs:
                if deadline is not None and done and time.perf_counter() >= deadline:
                    return done
                self.execute(job)
                if done == 0 and job is self.jobs[0]:
                    self.check_repeat(job)
            done += 1
            if passes is not None and done >= passes:
                return done


def environment():
    import coupledfp
    from coupledfp import kernels

    try:
        from importlib.metadata import PackageNotFoundError, version
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = None
    return {
        "kernel_backend": kernels.KERNEL_BACKEND,
        "coupledfp_file": os.path.relpath(coupledfp.__file__, ROOT),
        "numpy": numpy_version,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace-file", default="")
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args(argv)

    import coupledfp

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(coupledfp.__file__).startswith(src + os.sep):
        raise SystemExit(f"coupledfp imported from {coupledfp.__file__}, not from {src}")

    jobs = workloads.build(args.workload, args.seed, args.workdir, load_oracle(), FIXTURE,
                           small=args.small)
    out = {"workload": args.workload, "seed": args.seed, "jobs_per_pass": len(jobs),
           "env": environment()}

    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install([j.problem for j in jobs if j.problem is not None])
        runner = Runner(jobs, tracer=tracer)
        t0 = time.perf_counter()
        passes = 0
        # whole traced passes, so the per-pass counts repeat exactly
        while passes == 0 or time.perf_counter() - t0 < args.seconds / 2:
            passes += runner.run_passes(passes=1)
        tracer.uninstall()
        plain = Runner(jobs)
        plain.run_passes(passes=passes)
        traced_s = sum(norm for _, _, norm in runner.latencies())
        plain_s = sum(norm for _, _, norm in plain.latencies())
        metrics, zeros = layer_metrics(tracer.records, passes, tracer.job_lane,
                                       runner.factors())
        metrics["trace.overhead_ratio"] = traced_s / plain_s
        if args.trace_file:
            tracer.write(args.trace_file)
        out.update(passes=passes, layers=metrics, predicted_zeros=zeros,
                   spans=len(tracer.records))
        runners = (runner, plain)
    else:
        runner = Runner(jobs)
        t0 = time.perf_counter()
        runner.run_passes(deadline=t0 + args.seconds)
        out["wall_s"] = time.perf_counter() - t0
        out["latencies"] = runner.latencies()
        runners = (runner,)

    out["attempted"] = sum(r.attempted for r in runners)
    out["failed"] = sum(r.failed for r in runners)
    out["failures"] = [f for r in runners for f in r.failures][:20]
    out["verdicts"] = runners[0].verdicts
    out["nondeterministic"] = sum(r.nondeterministic for r in runners)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
