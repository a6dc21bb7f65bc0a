#!/usr/bin/env python3
"""coupledfp benchmark: end-to-end and per-layer numbers for one workload.

    python3 perfbench/run.py --workload linear_cli --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # the three in turn
    python3 perfbench/run.py --self-test

Run from the root of a source checkout; the program is imported from its
src/ directory (nothing is installed or built). Workloads, why each exists
and what a correct output is are described in perfbench/workloads.py.

--trace 0  end-to-end metrics, tracing off: the workload's job list runs in a
           closed loop (one caller, no threads) in a fresh child process for
           --seconds, at least one whole pass; set-up is measured separately.
--trace 1  per-layer metrics: whole passes of the job list run with the
           outside-in tracer (perfbench/tracing.py) until --seconds/2 have
           passed, then the same passes untraced for trace.overhead_ratio.
           Spans go to .perfbench/trace/<workload>-seed<N>.jsonl.

Times are normalised to a reference machine speed (perfbench/speed.py),
because shared virtual machines can switch between speeds about 2x apart
every few seconds. Raw wall times are printed alongside.

Every job's output is checked (perfbench/gate.py); a job fails if it raises,
exits non-zero or fails the check. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
STATE = os.path.join(ROOT, ".perfbench")
REQUIRED = ("src/coupledfp/__init__.py", "src/coupledfp/cli.py",
            "tests/finite_oracle.py", "tests/data/diamond5.json")

SETUP_LAUNCHES = 15
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
COMMAND_METRICS = (("verify", "verify_p50_ms"), ("delta-curve", "delta_curve_p50_ms"),
                   ("solve", "solve_p50_ms"), ("uniqueness", "uniqueness_p50_ms"),
                   ("audit-space", "audit_space_p50_ms"))
CHILD_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("COUPLED_FP_PURE_PYTHON", None)
    env.pop("COUPLED_FP_THREADS", None)
    return env


def measure_setup(env):
    """Median time of a fresh interpreter importing the CLI module, which is
    what every coupled-fp invocation pays before doing work.

    Each launch first times the reference loop of speed.py (twice, keeping
    the warm run); that time is subtracted from the launch and used to scale
    it to the reference speed. Returns (normalised median, raw median,
    launches).
    """
    code = (f"import sys; sys.path.insert(0, {HERE!r}); import speed; "
            "speed.reference_ms(); r = speed.reference_ms(); "
            "import coupledfp.cli; sys.stdout.write(repr(r))")
    raw, norm = [], []
    for i in range(SETUP_LAUNCHES + 1):
        t0 = time.perf_counter()
        # a blocking wait: subprocess's wait with a timeout polls in steps of
        # up to 50 ms, which would quantise a ~0.1 s launch
        proc = subprocess.Popen([sys.executable, "-c", code], env=env, cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        out = proc.communicate()[0]
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"'import coupledfp.cli' exited with status {proc.returncode}")
        if i:  # the first launch also compiles bytecode
            ref_ms = float(out)
            launch = wall - 2 * ref_ms / 1000.0
            raw.append(launch)
            norm.append(launch * speed.REFERENCE_MS / ref_ms)
    return statistics.median(norm), statistics.median(raw), len(norm)


def percentile(sorted_values, p):
    """Linear interpolation between closest ranks."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest ladder percentile that leaves at least ten jobs beyond it.

    n is the smaller of the run's job count and one pass of the job list, so
    the choice is fixed per workload and does not flip with machine speed.
    """
    for p in TAIL_LADDER:
        if n * (1 - p / 100.0) >= 10:
            return p
    return TAIL_LADDER[-1]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        path = os.path.join(ROOT, ".git", *ref[5:].split("/"))
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(worker_env):
    return dict(worker_env, python=platform.python_version(), nproc=os.cpu_count(),
                cpu=cpu_model(), git_commit=git_commit())


def run_worker(workload, seed, seconds, trace, workdir, env, trace_file="", small=False):
    result = os.path.join(workdir, "result.json")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--workdir", workdir, "--result", result]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    if small:
        cmd.append("--small")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"worker for {workload} exited with status {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def end_to_end(res, setup_s, col):
    """End-to-end metrics from the job latencies; col 2 is the normalised
    time (speed.py), col 1 the raw wall time."""
    lat = [(row[0], row[col]) for row in res["latencies"]]
    all_ms = sorted(1000.0 * dt for _, dt in lat)
    n = len(all_ms)
    tail_p = tail_percentile(min(n, res["jobs_per_pass"]))
    m = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (n / sum(dt for _, dt in lat), "1/s"),
        "job_p50_ms": (percentile(all_ms, 50), "ms"),
        "job_tail_ms": (percentile(all_ms, tail_p), "ms"),
    }
    counts = {"jobs": n, "tail_percentile": tail_p}
    for cmd, name in COMMAND_METRICS:
        vals = sorted(1000.0 * dt for c, dt in lat if c == cmd)
        if vals:
            m[name] = (percentile(vals, 50), "ms")
            counts[name] = len(vals)
    m["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
    return m, counts


def print_env_and_verdicts(res, env):
    print("env: " + json.dumps(env, sort_keys=True))
    holds, fails, other = res["verdicts"]
    total = holds + fails + other
    if total:
        print(f"verdicts: holds {holds / total:.3f}, fails {fails / total:.3f}, "
              f"other {other / total:.3f} of {total} condition reports")
    attempted, failed = res["attempted"], res["failed"]
    print(f"fail_rate: {failed / attempted if attempted else 0.0:.4f} "
          f"({failed} of {attempted} jobs; {res['nondeterministic']} not byte-identical)")
    for line in res["failures"]:
        print(f"  FAILED {line}")


def run_traced(spec, args, workload, workdir, env):
    trace_dir = os.path.join(STATE, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    trace_file = os.path.join(trace_dir, f"{workload}-seed{args.seed}.jsonl")
    res = run_worker(workload, args.seed, args.seconds, 1, workdir, env, trace_file,
                     args.small)
    from tracing import unit_of

    layers = res["layers"]
    print(f"workload {workload} seed {args.seed}: traced {res['passes']} pass(es) of "
          f"{res['jobs_per_pass']} jobs, {res['spans']} spans "
          f"-> {os.path.relpath(trace_file, ROOT)} (times per pass, normalised)")
    for name in sorted(layers):
        print(f"  {name:40s} {layers[name]:.6g} {unit_of(name)}")
    print("predicted zeros: " + json.dumps(res["predicted_zeros"], sort_keys=True))
    return res, {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                 for m in spec["per_layer"]}


def run_untraced(spec, args, workload, workdir, env):
    setup_s, setup_raw, launches = measure_setup(env)
    res = run_worker(workload, args.seed, args.seconds, 0, workdir, env, small=args.small)
    m, counts = end_to_end(res, setup_s, 2)
    raw, _ = end_to_end(res, setup_raw, 1)
    factors = sorted(norm / wall for _, wall, norm in res["latencies"])
    print(f"workload {workload} seed {args.seed}: {counts['jobs']} jobs "
          f"({res['jobs_per_pass']} per pass) in {res['wall_s']:.1f} s; "
          f"tail = p{counts['tail_percentile']:g}; setup over {launches} launches")
    print(f"speed factor to the reference speed: median {percentile(factors, 50):.3f}, "
          f"range {factors[0]:.3f}-{factors[-1]:.3f} (times below are normalised; "
          f"raw wall times in brackets)")
    for name, (value, unit) in m.items():
        n = counts.get(name, counts["jobs"] if name.startswith("job") else
                       launches if name == "setup_s" else 1)
        print(f"  {name:22s} {value:.6g} {unit} (n={n}) [{raw[name][0]:.6g}]")
    return res, {e["name"]: {"value": m[e["name"]][0], "unit": e["unit"]}
                 for e in spec["end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description="coupledfp benchmark")
    ap.add_argument("--workload", help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="small-size check of the benchmark itself")
    ap.add_argument("--small", action="store_true",
                    help="first few problems at half the samples (used by --self-test)")
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        sys.stderr.write(f"error: not a coupledfp source checkout, missing {missing}\n")
        return 2
    if args.self_test:
        import selftest

        return selftest.main()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        ap.error(f"--workload must be 'all' or one of {names}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    os.makedirs(STATE, exist_ok=True)
    env = child_env()
    for workload in names if args.workload == "all" else [args.workload]:
        workdir = tempfile.mkdtemp(prefix="run-", dir=STATE)
        try:
            run_one = run_traced if args.trace else run_untraced
            res, metrics = run_one(spec, args, workload, workdir, env)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print_env_and_verdicts(res, environment(res["env"]))
        out = {"correct": res["failed"] == 0 and res["attempted"] > 0,
               "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
        print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
