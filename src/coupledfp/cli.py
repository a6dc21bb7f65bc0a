"""Command-line front end.

Subcommands: solve, verify, delta-curve, uniqueness, audit-space. Verdicts
(holds/fails/refuted uniqueness/failed axioms) never affect the exit status:
a run that completes exits 0 and puts the verdicts in its output, so
pipelines can tell "ran and refuted" from "could not run" (exit 2, an input
error or an artifact that cannot be written).

The parsed argparse namespace is the run's configuration: every flag and its
default is written once, in the parser. Each command returns its payload
fields and a CSV writer (or None); main writes one JSON payload of
schema_version, config (the namespace less --output) and those fields.
Artifacts are overwritten in place (reports.overwrite), not atomically.

Identical invocations (including --seed) produce byte-identical JSON. Floats
serialize as shortest round-trip decimals; exact rationals as "p/q" strings.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

from . import conditions, uniqueness as uniq
from .errors import InputError
from .operators import check_mixed_monotone
from .problems import resolve_problem, sample_admissible_starts
from .reports import overwrite
from .solver import solve
from .spaces import audit_space

UNIQUENESS_STARTS = 10


def _parse_eps_grid(text: str):
    try:
        grid = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise InputError(f"bad --eps-grid {text!r}: {exc}")
    if not grid or any(not 0 < e < math.inf for e in grid):
        raise InputError("--eps-grid must list positive finite numbers")
    return grid


@functools.cache  # one parser per process; main() may run many jobs
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coupled-fp",
        description="Coupled fixed-point solves and contractive-condition audits "
                    "on partially ordered metric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    command_help = {
        "solve": "run the pair-map iteration from the problem's default start",
        "verify": "check mixed monotonicity and the contractive conditions",
        "delta-curve": "estimate the largest workable delta per eps for the symmetric condition",
        "uniqueness": "multi-start probe for distinct coupled fixed points",
        "audit-space": "check the metric and order axioms of the problem's space",
    }
    for name, help_text in command_help.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--problem", required=True,
                       help="registry name (samet_example, linear(a,b,c), "
                            "finite_poset(path)) or a finite-problem .json path")
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--max-iter", type=int, default=10000)
        p.add_argument("--samples", type=int, default=10000,
                       help="draw budget per check (per eps for banded checks) and per "
                            "comparability probe, audit-space points (at most 500); unread by solve")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--eps-grid", default="0.1,1,10",
                       help="comma-separated positive eps values")
        p.add_argument("--output", default="",
                       help="base path for artifacts: BASE.json, plus BASE.csv from "
                            "solve, and from delta-curve with --format csv; stdout "
                            "when omitted")
        p.add_argument("--format", choices=("csv", "json"), default="json",
                       help="csv: with --output, delta-curve also writes its curve "
                            "as BASE.csv (solve always writes its trace table)")
    return parser


def _delta_rule(eps):
    # default candidate: an eighth of eps; tight enough to hold on the
    # built-in contractive instances, wide enough to be falsifiable
    return eps / 8


def _cmd_solve(args, problem):
    trace = solve(problem.operator, problem.default_start, tol=args.tol,
                  max_iter=args.max_iter, require_admissible=True)
    return {"trace": trace.to_jsonable()}, trace.write_csv


def _cmd_verify(args, problem):
    op = problem.operator
    reports = [check_mixed_monotone(op, samples=args.samples, seed=args.seed)]
    if op.lipschitz_data is not None:
        la, lb = op.lipschitz_data
        k_cand = 2.0 * max(la, lb)
        # probe just below 1 when the declared data admits no valid constant;
        # a failure there certifies no k < 1 is workable on these samples
        k = k_cand if k_cand < 1.0 else 1.0 - 2.0 ** -20
        rep = conditions.check_banach_k(op, k, samples=args.samples, seed=args.seed)
        rep.params["k_source"] = (
            "2*max(lipschitz_data)" if k_cand < 1.0 else "probe just below 1"
        )
        reports.append(rep)
    reports.append(conditions.check_samet(
        op, args.eps_grid, _delta_rule, samples=args.samples, seed=args.seed))
    reports.append(conditions.check_symmetric_mk(
        op, args.eps_grid, _delta_rule, samples=args.samples, seed=args.seed))
    reports.append(conditions.check_strict_contraction(
        op, samples=args.samples, seed=args.seed))
    return {"delta_rule": "eps/8", "reports": [r.to_jsonable() for r in reports]}, None


def _cmd_delta_curve(args, problem):
    curve = conditions.estimate_delta_curve(
        problem.operator, args.eps_grid, samples=args.samples, seed=args.seed)

    def write_csv(path):
        with overwrite(path, newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["eps", "delta_max"])
            for eps, dmax in curve:
                wr.writerow([repr(float(eps)), repr(float(dmax))])

    return ({"curve": [[eps, dmax] for eps, dmax in curve]},
            write_csv if args.format == "csv" else None)


def _cmd_uniqueness(args, problem):
    starts = [problem.default_start]
    starts += sample_admissible_starts(problem, UNIQUENESS_STARTS, seed=args.seed)
    report = uniq.multi_start_uniqueness(
        problem.operator, starts, tol=args.tol, max_iter=args.max_iter,
        bound_search=problem.bound_search, comparability_samples=args.samples, seed=args.seed)
    return {"uniqueness": report.to_jsonable()}, None


def _cmd_audit_space(args, problem):
    report = audit_space(problem.space, samples=min(args.samples, 500), seed=args.seed)
    return {"audit": report.to_jsonable()}, None


_COMMANDS = {
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "delta-curve": _cmd_delta_curve,
    "uniqueness": _cmd_uniqueness,
    "audit-space": _cmd_audit_space,
}


def main(argv=None) -> int:
    """Execute one command. Returns the process exit status (0 completed,
    2 input error)."""
    args = _build_parser().parse_args(argv)
    try:
        if not args.tol > 0:
            raise InputError("--tol must be positive")
        if args.max_iter < 1:
            raise InputError("--max-iter must be >= 1")
        if args.samples < 1:
            raise InputError("--samples must be >= 1")
        args.eps_grid = _parse_eps_grid(args.eps_grid)
        problem = resolve_problem(args.problem)
        fields, csv_writer = _COMMANDS[args.command](args, problem)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    config = {k: v for k, v in vars(args).items() if k != "output"}
    text = json.dumps({"schema_version": 1, "config": config, **fields},
                      sort_keys=True, indent=2) + "\n"
    if not args.output:
        sys.stdout.write(text)
        return 0
    path = args.output + ".json"
    try:
        with overwrite(path) as fh:
            fh.write(text)
        if csv_writer is not None:
            path = args.output + ".csv"
            csv_writer(path)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {path}: {exc.strerror or exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
