"""Picard iteration on the product space, with admissibility and convergence
diagnostics.

The iteration Z_{n+1} = T(Z_n) starts from an admissible pair (one whose
coordinates move in the right directions under F, so the pair sequence is
monotone in the product order). The step sizes eta_n = d2(Z_n, Z_{n-1}) are
recorded in full; under the symmetric Meir-Keeler hypotheses they are
non-increasing and vanish.

Convergence is declared only when three quantities fall within tol: the step
eta, the residual d2(T(Z), Z), and a geometric-extrapolation bound on how far
each coordinate can still travel. The extrapolation uses the measured step
ratio q ~ eta_{n+1}/eta_n: the remaining product-space distance is at most
residual/(1 - q), and each coordinate moves at most twice that. A small step
alone never certifies a fixed point, and a small residual alone can still
leave the endpoint several multiples of tol away from the limit.

The loop runs on the coordinates (x_n, y_n), with the same arithmetic as
d2(T(Z), Z): each new image is checked for membership once, when it is
computed (the start once, after its first image), and a PairPoint is built
only for an iterate the trace keeps.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

from .errors import InadmissibleStartError, InputError
from .operators import CoupledOperator, _with_slack, product_T
from .reports import Record, jsonable, overwrite
from .spaces import INCOMPARABLE, PairPoint, _half_sum, _require_members, d2

TERM_CONVERGED = "converged"
TERM_MAX_ITERATIONS = "max_iterations"
TERM_STALLED = "stalled"
TERM_DIVERGED = "diverged"
TERM_MONOTONICITY_VIOLATION = "monotonicity_violation"
TERM_NON_FINITE = "non_finite"

RATIO_WINDOW = 8
RATIO_CAP = 1.0 - 1e-9
STALL_WINDOW = 50
STALL_FACTOR = 1.0 - 1e-15


@dataclass
class StartVerdict(Record):
    """Admissibility of a starting pair.

    direction "up":   x0 <= F(x0, y0) and F(y0, x0) <= y0
    direction "down": the reversed pair of inequalities
    direction "none": neither (including incomparable evaluations)
    """

    admissible: bool
    direction: str
    details: str = ""


@dataclass
class IterationTrace:
    """Record of one Picard run.

    iterates may be thinned (keep_every > 1; iterate 0 and the final one are
    always kept); eta is never thinned. For an unthinned run of N steps,
    len(iterates) == N + 1 and len(eta) == N.
    """

    iterates: list
    eta: list
    termination: str
    residual: object
    iterations: int
    keep_every: int = 1
    start_verdict: Optional[StartVerdict] = None

    @property
    def final(self) -> PairPoint:
        return self.iterates[-1]

    def kept_indices(self):
        n = self.iterations
        idx = list(range(0, n + 1, self.keep_every))
        if idx[-1] != n:
            idx.append(n)
        return idx

    # not a reports.Record: the JSON adds schema_version and final, and numbers the kept iterates
    def to_jsonable(self):
        return {
            "schema_version": 1,
            "termination": self.termination,
            "iterations": self.iterations,
            "residual": jsonable(self.residual),
            "final": self.final.to_jsonable(),
            "eta": jsonable(self.eta),
            "keep_every": self.keep_every,
            "kept_iterates": [
                [n, z.to_jsonable()]
                for n, z in zip(self.kept_indices(), self.iterates)
            ],
            "start": None if self.start_verdict is None else self.start_verdict.to_jsonable(),
        }

    def write_csv(self, path):
        """Trace table: n, x_n, y_n, eta_n (eta blank for n = 0)."""
        with overwrite(path, newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["n", "x_n", "y_n", "eta_n"])
            for n, z in zip(self.kept_indices(), self.iterates):
                eta = "" if n == 0 else _num_str(self.eta[n - 1])
                wr.writerow([n, _num_str(z.first), _num_str(z.second), eta])


def _num_str(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def check_start(op: CoupledOperator, Z0: PairPoint, images=None) -> StartVerdict:
    """Classify a starting pair as up/down admissible or inadmissible.
    images, if given, is (F(x0, y0), F(y0, x0)), which F is then not asked."""
    space = op.space
    fx, fy = images or (op.apply(Z0.first, Z0.second), op.apply(Z0.second, Z0.first))
    x_below = space.leq(Z0.first, fx)
    y_above = space.leq(fy, Z0.second)
    if x_below is True and y_above is True:
        return StartVerdict(True, "up", "x0 <= F(x0,y0) and F(y0,x0) <= y0")
    x_above = space.leq(fx, Z0.first)
    y_below = space.leq(Z0.second, fy)
    if x_above is True and y_below is True:
        return StartVerdict(True, "down", "F(x0,y0) <= x0 and y0 <= F(y0,x0)")
    parts = [f"{name}: incomparable" for name, v in (
        ("x0 vs F(x0,y0)", x_below), ("F(y0,x0) vs y0", y_above),
        ("F(x0,y0) vs x0", x_above), ("y0 vs F(y0,x0)", y_below)) if v is INCOMPARABLE]
    detail = "; ".join(parts) or "neither the up nor the down pair of inequalities holds"
    return StartVerdict(False, "none", detail)


def residual(op: CoupledOperator, Z: PairPoint):
    """Fixed-point defect of Z under the pair map: d2(T(Z), Z)."""
    return d2(product_T(op, Z), Z, op.space)


def _grew(space, step, prev):
    """step > prev beyond the float rounding slack (none on exact spaces)."""
    return step > _with_slack(space, prev)


def solve(op: CoupledOperator, Z0: PairPoint, tol: float = 1e-10,
          max_iter: int = 10000, require_admissible: bool = True,
          keep_every: int = 1) -> IterationTrace:
    """Iterate Z_{n+1} = T(Z_n) until convergence or a diagnostic stop.

    Terminations:
      converged               step, residual and extrapolated coordinate error
                              all within tol (an exactly-zero residual, or a
                              start whose residual is already within tol,
                              converges immediately)
      max_iterations          budget exhausted
      stalled                 eta stopped decreasing over a 50-step window
                              while still above tol
      diverged                as stalled, but the last step exceeds every
                              step of that window: eta is growing, not
                              settling on a cycle or plateau
      monotonicity_violation  eta increased between steps (only monitored when
                              require_admissible is set; signals the monotone
                              hypotheses fail numerically)
      non_finite              the residual is NaN or infinite: the iterates
                              left the space's finite values, so no later
                              step can converge

    Raises InadmissibleStartError when require_admissible is set and the start
    fails check_start.
    """
    if not tol > 0:
        raise InputError("tol must be positive")
    if max_iter < 1:
        raise InputError("max_iter must be >= 1")
    if keep_every < 1:
        raise InputError("keep_every must be >= 1")
    space = op.space
    apply, distance = op.apply, space.distance
    check = space.contains is not None

    # fx, fy is T(x, y), which also decides the start's verdict, and r is
    # d2(T(Z), Z), with d2's membership order
    x, y = Z0.first, Z0.second
    fx, fy = apply(x, y), apply(y, x)
    verdict = check_start(op, Z0, (fx, fy))
    if require_admissible and not verdict.admissible:
        raise InadmissibleStartError(verdict)
    iterates, eta, ratios = [Z0], [], []
    if check:
        _require_members(space, fx, fy, x, y)
    r = _half_sum(space, distance(fx, x) + distance(fy, y))
    if r <= tol or not r < math.inf:
        return IterationTrace(iterates, eta, TERM_CONVERGED if r <= tol else TERM_NON_FINITE,
                              r, 0, keep_every, verdict)

    n = 0
    termination = TERM_MAX_ITERATIONS
    while n < max_iter:
        # take the step; the residual of the previous iterate is the new eta
        step = r
        x, y = fx, fy
        n += 1
        eta.append(step)
        if n % keep_every == 0:
            iterates.append(PairPoint(x, y))
        fx, fy = apply(x, y), apply(y, x)
        if check:
            _require_members(space, fx, fy)
        r = _half_sum(space, distance(fx, x) + distance(fy, y))
        if n >= 2:
            prev = eta[-2]
            if require_admissible and step > grow_bound:
                # the final residual is that of the iterate just reached
                termination = TERM_MONOTONICITY_VIOLATION
                break
            if prev > 0:
                ratios.append(step / prev)
        if require_admissible:  # _grew's bound for the next step, computed once
            grow_bound = _with_slack(space, step)
        if r == 0:
            termination = TERM_CONVERGED
            break
        if not r < math.inf:
            termination = TERM_NON_FINITE
            break
        if r <= tol and step <= tol:
            window = ratios[-(RATIO_WINDOW - 1):] if ratios else []
            qhat = max(window + [r / step])
            if qhat < RATIO_CAP:
                # remaining distance to the limit: future steps sum to at most
                # r/(1-q) in d2, and each coordinate moves at most twice that
                bound = 2 * (r / (1 - qhat))
                if bound <= tol:
                    termination = TERM_CONVERGED
                    break
        if n > STALL_WINDOW and float(eta[-1]) > tol:
            if float(eta[-1]) >= STALL_FACTOR * float(eta[-1 - STALL_WINDOW]):
                window = eta[-1 - STALL_WINDOW:-1]
                termination = TERM_DIVERGED if _grew(space, eta[-1], max(window)) else TERM_STALLED
                break

    if n % keep_every != 0:
        iterates.append(PairPoint(x, y))
    return IterationTrace(iterates, eta, termination, r, n, keep_every, verdict)
