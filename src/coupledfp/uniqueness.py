"""Empirical uniqueness and diagonal probes.

Uniqueness of the coupled fixed point hinges on a comparability property of
the product space (every two pairs admit a pair comparable to both). Sampling
cannot prove that property, so these probes either refute uniqueness outright
(two converged runs ending at distinct points) or report consistency: all
endpoints within 2*tol of each other. The runs are one loop with one step
per start, a solve, or on a finite space a walk of the start's orbit under
T(x, y) = (F(x, y), F(y, x)) on F's index table: exact, so an endpoint is a
coupled fixed point, tol plays no part, and an orbit that returns to a pair
it has visited ends in a "cycle". One spread and one list of diagonal gaps
follow the loop on both lanes. The diagonal check covers the stronger
conclusion that both coordinates of the fixed point coincide, which holds
when the base space has enough upper/lower bounds or the start pair is
comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Callable, Optional

from .errors import InputError
from .kernels import _sampler_seed
from .operators import CoupledOperator, _finite_table, evaluation_lane
from .reports import Record, jsonable
from .solver import TERM_CONVERGED, TERM_MAX_ITERATIONS, residual, solve
from .spaces import (INCOMPARABLE, PairPoint, SpaceModel, _half_sum, _own_real_line,
                     _product_order, _real_lattice_bound, _require_members)

TERM_CYCLE = "cycle"  # a finite orbit returned to a pair it had visited


@dataclass
class UniquenessReport:
    starts: list
    endpoints: list
    max_pairwise_d2: object
    comparability_rate: float
    diagonal_gaps: list
    failed: list = field(default_factory=list)  # (start, termination) for non-converged runs

    @property
    def all_converged(self):
        return not self.failed

    # not a reports.Record: the JSON writes failed runs as {start, termination} objects
    def to_jsonable(self):
        return {
            "starts": [z.to_jsonable() for z in self.starts],
            "endpoints": [z.to_jsonable() for z in self.endpoints],
            "max_pairwise_d2": jsonable(self.max_pairwise_d2),
            "comparability_rate": self.comparability_rate,
            "diagonal_gaps": jsonable(self.diagonal_gaps),
            "failed": [
                {"start": z.to_jsonable(), "termination": t} for z, t in self.failed
            ],
        }


@dataclass
class DiagonalCheck(Record):
    gap: object
    within: bool
    diagonal_residual: object  # d(F(x,x), x) at the endpoint's first coordinate


def probe_comparability(space: SpaceModel, samples: int = 1000, seed: int = 0,
                        bound_search: Optional[Callable] = None) -> float:
    """Fraction of distinct pair-of-pairs (Y, V) admitting a pair comparable
    to both. bound_search(Y, V) supplies the candidate (coordinatewise
    extremes on lattices); without it only direct comparability of Y and V
    counts.

    Y == V trials are vacuous and excluded from the denominator. Finite
    spaces are counted exactly (with bound_search only if n**4 <= 500,000);
    otherwise the rate is estimated from seeded samples. Both counts run on
    coordinates, with product_leq's membership tests and order, and build
    PairPoints only to call bound_search. A space with no distinct pairs
    reports 0.0. With the real line's lattice bound as bound_search on
    real_line() itself (spaces._own_real_line, with no contains), whose
    sampler draws finite floats, Z = (max(y1, v1), min(y2, v2)) is above both
    Y = (y1, y2) and V = (v1, v2), so the rate is 1.0, with nothing counted,
    as soon as the first trial has Y != V.

    Without bound_search the exact count is closed-form in the 0/1 matrix L:
    (a, b), (c, d) are comparable iff L[a][c] L[d][b] or L[c][a] L[b][d], so
    2P^2 - E^2 ordered pairs of pair points are (P = sum L[i][j], E = sum
    L[i][j] L[j][i]); dropping the r^2 with Y == V (r = trace L) and halving
    gives the O(n^4) enumeration's rate in O(n^2), at any size.
    """
    if samples < 1:
        raise InputError("samples must be positive")
    fd = space.finite
    if fd is not None and (bound_search is None or len(fd.elements) ** 4 <= 500_000):
        n = len(fd.elements)
        trials = n * n * (n * n - 1) // 2
        if bound_search is None:
            L = fd.leq
            P = sum(1 for row in L for v in row if v)
            E = sum(1 for i in range(n) for j in range(n) if L[i][j] and L[j][i])
            r = sum(1 for i in range(n) if L[i][i])
            good = (2 * P * P - E * E - r * r) // 2
        else:
            pairs = [(a, b) for a in fd.elements for b in fd.elements]
            good = _sampled_counts(chain.from_iterable(Y + V for Y, V in combinations(pairs, 2)),
                                   space, bound_search)[0]
        return good / trials if trials else 0.0
    rng_seed = _sampler_seed(seed, "comparability")
    if bound_search is _real_lattice_bound and space.contains is None and _own_real_line(space):
        y1, y2, v1, v2 = space.sampler(4, rng_seed)  # finite floats, the same first four at any count
        if (y1, y2) != (v1, v2):
            return 1.0
    good, trials = _sampled_counts(space.sampler(4 * samples, rng_seed), space, bound_search)
    return good / trials if trials else 0.0


def _sampled_counts(pool, space, bound_search):
    """(good, trials) of probe_comparability on the points of pool, any
    iterable: trial t takes Y and V from pool[4t:4t + 4], is dropped when
    Y == V, and is good when Y and V, or bound_search's Z and Y, then Z and
    V, are comparable. Membership is tested only if the space has a contains."""
    leq, check = space.leq, space.contains is not None

    def comparable(a1, a2, b1, b2):
        if check:
            _require_members(space, a1, a2, b1, b2)
        return _product_order(leq, a1, a2, b1, b2) is not INCOMPARABLE

    trials = good = 0
    for y1, y2, v1, v2 in zip(*[iter(pool)] * 4):
        if (y1, y2) == (v1, v2):
            continue
        trials += 1
        if bound_search is None:
            good += comparable(y1, y2, v1, v2)
        else:
            Z = bound_search(PairPoint(y1, y2), PairPoint(v1, v2))
            good += Z is not None and comparable(Z.first, Z.second, y1, y2) and comparable(
                Z.first, Z.second, v1, v2)
    return good, trials


def multi_start_uniqueness(op: CoupledOperator, starts, tol: float = 1e-10,
                           max_iter: int = 10000,
                           bound_search: Optional[Callable] = None,
                           comparability_samples: int = 500,
                           seed: int = 0) -> UniquenessReport:
    """Run the pair map from every start and compare the converged endpoints.

    max_pairwise_d2 <= 2*tol is consistent with a unique coupled fixed point;
    anything larger is a refutation certificate (two reproducible runs landed
    at distinct fixed points). It is the largest d2 over endpoint pairs, the
    int 0 if none is positive. Non-converged runs are excluded and flagged
    with their termination.

    tol and max_iter are validated once; then one loop takes one step per
    start. Off the finite lane the step is a solve, which tests membership.
    On the finite lane (operators.evaluation_lane) it walks the start's orbit
    on operators._finite_table, which raises DomainMismatchError if F leaves
    the space anywhere, even off the orbits walked: a run converges when its
    orbit reaches a coupled fixed point within max_iter steps, fails with
    "cycle" when it returns to a pair it has visited, and with
    "max_iterations" otherwise; tol plays no part. Both lanes then share one
    spread, over the distinct endpoints through space.distance (exact
    Fractions on a finite space), and one list of diagonal gaps.
    """
    starts = list(starts)
    if not starts:
        raise InputError("at least one start is required")
    if not tol > 0:
        raise InputError("tol must be positive")
    if max_iter < 1:
        raise InputError("max_iter must be >= 1")
    space = op.space
    # a space with no tables skips evaluation_lane's kernel-lane checks
    F = _finite_table(op) if space.finite is not None and evaluation_lane(op) == "finite" else None
    kept_starts, endpoints, failed = [], [], []
    for Z0 in starts:
        if F is None:
            # only the endpoint is read, so no iterate between start and end is kept
            trace = solve(op, Z0, tol=tol, max_iter=max_iter, require_admissible=False,
                          keep_every=max_iter)
            end, termination = trace.final, trace.termination
        else:
            _require_members(space, Z0.first, Z0.second)
            end, termination = _orbit_end(F, space.finite, Z0, max_iter)
        if termination == TERM_CONVERGED:
            kept_starts.append(Z0)
            endpoints.append(end)
        else:
            failed.append((Z0, termination))
    try:  # a repeated endpoint adds no distance
        distinct = list(dict.fromkeys(endpoints))
    except TypeError:  # unhashable points are all kept
        distinct = endpoints
    distance, worst = space.distance, 0  # the largest sum, halved once: halving is monotone
    for Y, V in combinations(distinct, 2):
        total = distance(Y.first, V.first) + distance(Y.second, V.second)
        if total > worst:
            worst = total
    rate = probe_comparability(space, comparability_samples, seed, bound_search)
    return UniquenessReport(
        starts=kept_starts,
        endpoints=endpoints,
        max_pairwise_d2=worst and _half_sum(space, worst),
        comparability_rate=rate,
        diagonal_gaps=[distance(z.first, z.second) for z in endpoints],
        failed=failed,
    )


def _orbit_end(F, fd, Z0, max_iter):
    """Where the orbit of Z0 under the pair map, walked on index pairs (i, j)
    -> (F[i][j], F[j][i]) of the finite space fd, ends within max_iter steps:
    (its first coupled fixed point, "converged"), or None with "cycle" when it
    returns to a pair it has visited, else None with "max_iterations"."""
    i, j = fd.index[Z0.first], fd.index[Z0.second]
    seen = {(i, j)}
    for _ in range(max_iter):
        a, b = F[i][j], F[j][i]
        if a == i and b == j:
            break
        i, j = a, b
        if (i, j) in seen:
            return None, TERM_CYCLE
        seen.add((i, j))
    if F[i][j] != i or F[j][i] != j:
        return None, TERM_MAX_ITERATIONS
    return PairPoint(fd.elements[i], fd.elements[j]), TERM_CONVERGED


def check_diagonal(op: CoupledOperator, endpoint: PairPoint, tol: float = 1e-10) -> DiagonalCheck:
    """Measure how far an (approximate) coupled fixed point sits from the
    diagonal, and the defect of its first coordinate as a plain fixed point:
    d(F(x, x), x). Requires the endpoint's residual to be within tol; a NaN
    residual is not.
    """
    if not residual(op, endpoint) <= tol:
        raise InputError("endpoint residual is not within tol; not an approximate fixed point")
    space = op.space
    gap = space.distance(endpoint.first, endpoint.second)
    x = endpoint.first
    diag_res = space.distance(op.apply(x, x), x)
    return DiagonalCheck(gap=gap, within=bool(gap <= 2 * tol), diagonal_residual=diag_res)
