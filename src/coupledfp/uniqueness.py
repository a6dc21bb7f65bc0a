"""Empirical uniqueness and diagonal probes.

Uniqueness of the coupled fixed point hinges on a comparability property of
the product space (every two pairs admit a pair comparable to both). Sampling
cannot prove that property, so these probes either refute uniqueness outright
(two converged runs ending at distinct points) or report consistency: all
endpoints within 2*tol of each other. The diagonal check covers the stronger
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
from .operators import CoupledOperator
from .reports import Record, jsonable
from .solver import TERM_CONVERGED, solve, residual
from .spaces import (INCOMPARABLE, PairPoint, SpaceModel, _half_sum, _own_real_line,
                     _product_order, _real_lattice_bound, _require_members)


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
    """Solve from every start and compare the converged endpoints.

    max_pairwise_d2 <= 2*tol is consistent with a unique coupled fixed point;
    anything larger is a refutation certificate (two reproducible runs landed
    at distinct fixed points). It is the largest d2 over endpoint pairs, the
    int 0 if none is positive, with no membership test: solve made one.
    Non-converged runs are excluded and flagged.
    """
    starts = list(starts)
    if not starts:
        raise InputError("at least one start is required")
    endpoints = []
    kept_starts = []
    failed = []
    for Z0 in starts:
        # only the endpoint is read, so no iterate between start and end is kept
        trace = solve(op, Z0, tol=tol, max_iter=max_iter, require_admissible=False,
                      keep_every=max_iter)
        if trace.termination == TERM_CONVERGED:
            kept_starts.append(Z0)
            endpoints.append(trace.final)
        else:
            failed.append((Z0, trace.termination))
    space = op.space
    distance, worst = space.distance, 0  # the largest sum, halved once: halving is monotone
    for Y, V in combinations(endpoints, 2):
        total = distance(Y.first, V.first) + distance(Y.second, V.second)
        if total > worst:
            worst = total
    gaps = [space.distance(z.first, z.second) for z in endpoints]
    rate = probe_comparability(space, comparability_samples, seed, bound_search)
    return UniquenessReport(
        starts=kept_starts,
        endpoints=endpoints,
        max_pairwise_d2=worst and _half_sum(space, worst),
        comparability_rate=rate,
        diagonal_gaps=gaps,
        failed=failed,
    )


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
