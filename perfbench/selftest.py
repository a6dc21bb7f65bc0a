"""Self-test of the benchmark (``python3 perfbench/run.py --self-test``).

1. Small-size runs of every workload, traced and untraced, print every
   end-to-end and per-layer metric of BENCHMARK.json by name with its unit,
   and the result line carries exactly those metrics.
2. The correctness gate counts an injected wrong verdict and an injected
   witness that does not re-verify as failed jobs.
3. The predicted zeros hold: no kernel draws on generic_api and finite_cli,
   no generic-lane condition spans on linear_cli and finite_cli.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import run


class Checks:
    def __init__(self):
        self.failed = 0

    def __call__(self, ok, what):
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            self.failed += 1


def small_run(workload, trace):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, cwd=run.ROOT, timeout=170, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, lines, result


def check_printed(check, spec_metrics, workload, trace):
    proc, lines, result = small_run(workload, trace)
    check(result is not None, f"{workload} trace={trace}: run exits 0 with a result line")
    if result is None:
        sys.stdout.write(proc.stderr[-2000:])
        return None, lines
    expected = {m["name"]: m["unit"] for m in spec_metrics}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == expected, f"{workload} trace={trace}: result metrics and units match BENCHMARK.json")
    body = lines[:-1]
    missing = [name for name, unit in expected.items()
               if not any(line.split()[:1] == [name] and f" {unit}" in line for line in body)]
    check(not missing, f"{workload} trace={trace}: every metric printed by name with unit"
          + (f" (missing {missing})" if missing else ""))
    check(result["correct"] and result["failed"] == 0,
          f"{workload} trace={trace}: correct, {result['failed']} of {result['attempted']} failed")
    check(any(line.startswith("env: ") for line in body) and
          any(line.startswith("fail_rate: ") for line in body),
          f"{workload} trace={trace}: environment and fail_rate printed")
    return result, body


def check_gate(check):
    """Inject a wrong verdict and a non-re-verifying witness into real outputs."""
    sys.path.insert(0, run.SRC)
    import worker
    import workloads

    def flip_verdict(job, payload):
        if job.cmd == "verify":
            for rep in payload["reports"]:
                if rep["condition_id"] == "samet_mk":
                    rep["verdict"] = ("holds_on_samples" if rep["verdict"] == "fails"
                                      else "fails")
        return payload

    def break_witness(job, payload):
        if job.cmd == "verify":
            for rep in payload["reports"]:
                if rep["verdict"] == "fails":
                    w = rep["witness"]
                    w["x"] = w["u"] = w["y"] = w["v"] = 0.0
        return payload

    os.makedirs(run.STATE, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=run.STATE) as workdir:
        jobs = workloads.build("linear_cli", 7, workdir, None, None, small=True)
        verify = [j for j in jobs if j.cmd == "verify"]
        with_fails = [j for j in verify if "fails" in j.model.verdicts.values()]
        for label, mutate, expect in (("no injection", None, 0),
                                      ("wrong verdict", flip_verdict, len(verify)),
                                      ("witness that does not re-verify", break_witness,
                                       len(with_fails))):
            runner = worker.Runner(verify, mutate=mutate)
            runner.run_passes(passes=1)
            check(runner.attempted == len(verify) and runner.failed == expect,
                  f"gate, {label}: {runner.failed} of {runner.attempted} jobs failed "
                  f"(expected {expect})")
        check(len(with_fails) > 0, "gate: the injected witnesses come from real 'fails' reports")


def main():
    spec = run.load_spec()
    check = Checks()
    zeros = {}
    for w in (x["name"] for x in spec["workloads"]):
        check_printed(check, spec["end_to_end"], w, 0)
        result, body = check_printed(check, spec["per_layer"], w, 1)
        if result is None:
            continue
        line = next((x for x in body if x.startswith("predicted zeros: ")), None)
        zeros[w] = (result["metrics"], json.loads(line.split(": ", 1)[1]) if line else {})
    if "linear_cli" in zeros:
        check(zeros["linear_cli"][0]["kernels.draws"]["value"] > 0,
              "linear_cli: kernels do the sweep work")
        check(zeros["linear_cli"][1].get("generic_lane_condition_spans") == 0,
              "linear_cli: no generic-lane condition spans")
    for w in ("generic_api", "finite_cli"):
        if w in zeros:
            metrics, _ = zeros[w]
            check(metrics["kernels.draws"]["value"] == 0 and metrics["kernels.calls"]["value"] == 0,
                  f"{w}: kernels.draws == 0")
    if "finite_cli" in zeros:
        check(zeros["finite_cli"][1].get("generic_lane_condition_spans") == 0,
              "finite_cli: no generic-lane condition spans")
    check_gate(check)
    print(f"self-test: {check.failed} check(s) failed")
    return 1 if check.failed else 0
