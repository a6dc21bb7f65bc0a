"""Correctness gate: checks one job's JSON output against its Model.

The expected verdicts, curves and fixed points come from workloads.py
(closed forms, Lipschitz bounds, tests/finite_oracle.py and brute force over
the raw tables). The only library call here is ``reverify_witness``, which
re-evaluates each "fails" witness from the coordinates stored in the output.
"""

from __future__ import annotations

from fractions import Fraction

from workloads import EPS_GRID, FAILS, TOL


def _element(kind, value):
    if kind == "r2":
        return tuple(value)
    return value


def _measured(kind, measured):
    if kind != "finite":
        return dict(measured)
    return {k: Fraction(v) if isinstance(v, str) else v for k, v in measured.items()}


def witness_reverifies(op, kind, report):
    """Rebuild the report from its JSON form and re-evaluate the witness."""
    from coupledfp import reverify_witness
    from coupledfp.reports import ConditionReport, Witness

    w = report.get("witness")
    if not w:
        return False
    rebuilt = ConditionReport(
        condition_id=report["condition_id"],
        verdict=report["verdict"],
        witness=Witness(x=_element(kind, w["x"]), y=_element(kind, w["y"]),
                        u=_element(kind, w["u"]), v=_element(kind, w["v"]),
                        kind=w["kind"], measured=_measured(kind, w["measured"])),
        params=dict(report.get("params") or {}),
    )
    return bool(reverify_witness(op, rebuilt)["violated"])


def _at_fixed_point(model, point):
    if model.kind == "finite":
        return tuple(point) in model.fixed
    coords = []
    for value in point:
        coords.extend(value if model.kind == "r2" else [value])
    return all(isinstance(v, float) and abs(v) <= 2 * TOL for v in coords)


def check(job, payload, op):
    """Return the list of problems with one job's output (empty when correct).

    op is the job's operator, used only to re-verify witnesses.
    """
    model = job.model
    problems = []
    if job.cmd == "verify":
        reports = payload.get("reports", [])
        got = [r["condition_id"] for r in reports]
        if got != list(model.verdicts):
            return [f"verify reported {got}, expected {list(model.verdicts)}"]
        for rep in reports:
            cid = rep["condition_id"]
            if rep["verdict"] != model.verdicts[cid]:
                problems.append(f"{cid}: verdict {rep['verdict']}, expected {model.verdicts[cid]}")
            if rep["verdict"] == FAILS and not witness_reverifies(op, model.kind, rep):
                problems.append(f"{cid}: witness does not re-verify")
    elif job.cmd == "delta-curve":
        curve = payload.get("curve", [])
        if [c[0] for c in curve] != list(EPS_GRID):
            return [f"delta curve eps grid {[c[0] for c in curve]}"]
        for eps, dmax in curve:
            lo, hi = model.curve[eps]
            if not lo <= dmax <= hi:
                problems.append(f"delta({eps}) = {dmax!r} outside [{lo!r}, {hi!r}]")
    elif job.cmd == "solve":
        trace = payload.get("trace", {})
        if trace.get("termination") != "converged":
            problems.append(f"solve terminated {trace.get('termination')!r}")
        final = trace.get("final")
        if model.kind == "finite":
            if tuple(final or ()) != model.limit:
                problems.append(f"solve ended at {final}, expected {model.limit}")
        elif final is None or not _at_fixed_point(model, final):
            problems.append(f"solve ended at {final}, not within 2*tol of the fixed point")
    elif job.cmd == "uniqueness":
        report = payload.get("uniqueness", {})
        endpoints = report.get("endpoints", [])
        if not endpoints:
            problems.append("uniqueness: no converged endpoint")
        for point in endpoints:
            if not _at_fixed_point(model, point):
                problems.append(f"uniqueness endpoint {point} is not a coupled fixed point")
    elif job.cmd == "audit-space":
        audit = payload.get("audit", {})
        if audit.get("passed") is not True:
            problems.append(f"audit failed axioms on a valid space: {audit.get('axioms')}")
        if audit.get("exhaustive") is not model.exhaustive:
            problems.append(f"audit exhaustive={audit.get('exhaustive')}, expected {model.exhaustive}")
    else:
        problems.append(f"unknown command {job.cmd!r}")
    return problems


def verdict_counts(job, payload):
    """(holds, fails, other) over the condition reports of a verify job."""
    if job.cmd != "verify":
        return 0, 0, 0
    verdicts = [r.get("verdict") for r in payload.get("reports", [])]
    holds = sum(v == "holds_on_samples" for v in verdicts)
    fails = sum(v == FAILS for v in verdicts)
    return holds, fails, len(verdicts) - holds - fails
