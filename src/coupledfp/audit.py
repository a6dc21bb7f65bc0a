"""The metric and order axiom checks behind spaces.audit_space.

A finite space is checked exhaustively on its integer matrices (the matrix
lane). real_line() itself passes every axiom by construction (see
spaces.audit_space), and its report says so without a check. Any other space
gets the sampled audit: every point, then all index pairs and triples up to
their caps and, past a cap, tuples drawn from a seeded index stream, each
checked through the space's distance and leq until every axiom of its width
has failed; the report counts every tuple and names the first failure of
each axiom. The report types live here; spaces re-exports AuditReport.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, combinations, compress, islice, product
from operator import gt, ne, sub
from typing import Optional

from .errors import InputError
from .kernels import _sampler_seed
from .reports import Record


@dataclass
class AxiomCheck(Record):
    name: str
    passed: bool
    checks: int
    counterexample: Optional[dict] = None


@dataclass
class AuditReport:
    space_description: str
    axioms: list = field(default_factory=list)
    exhaustive: bool = False
    method: Optional[str] = None  # "by_construction" when no axiom was checked

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.axioms)

    def failed_axioms(self):
        return [a.name for a in self.axioms if not a.passed]

    # not a reports.Record: the JSON names space_description "space" and adds the passed property
    def to_jsonable(self):
        out = {
            "space": self.space_description,
            "passed": self.passed,
            "exhaustive": self.exhaustive,
            "axioms": [a.to_jsonable() for a in self.axioms],
        }
        if self.method is not None:
            out["method"] = self.method
        return out


# rows per block of drawn tuples: a few lists of this length, so that the audit
# needs far less memory than a sweep (kernels.CHUNK draws)
AUDIT_BLOCK = 2048


def _randrange_stream(rng, n):
    """Endless rng.randrange(n) values, drawn with the same getrandbits
    rejection loop as CPython's randrange, minus its per-call frames."""
    getrandbits = rng.getrandbits
    k = n.bit_length()
    while True:
        r = getrandbits(k)
        if r < n:
            yield r


MAX_AUDIT_PAIRS = 200_000
MAX_AUDIT_TRIPLES = 200_000

# per tuple width: the cap on enumerating all index tuples (None: always
# all), the seed consumer of the index stream drawn past it, the axioms checked
_AUDIT_PHASES = (
    (1, None, None, ("metric_identity", "order_reflexive")),
    (2, MAX_AUDIT_PAIRS, "audit_pairs", ("metric_nonnegative", "metric_symmetry", "order_antisymmetric")),
    (3, MAX_AUDIT_TRIPLES, "audit_triples", ("metric_triangle", "order_transitive")),
)


# counterexample of each axiom from its witness points, read through the
# space's own callables; the key order is the report's axiom order
_COUNTEREXAMPLES = {
    "metric_identity": lambda d, leq, x: {"x": x, "d_xx": d(x, x)},
    "order_reflexive": lambda d, leq, x: {"x": x, "leq_xx": repr(leq(x, x))},
    "metric_nonnegative": lambda d, leq, x, y: {"x": x, "y": y, "d_xy": d(x, y)},
    "metric_symmetry": lambda d, leq, x, y: {"x": x, "y": y, "d_xy": d(x, y), "d_yx": d(y, x)},
    "order_antisymmetric": lambda d, leq, x, y: {"x": x, "y": y},
    "metric_triangle": lambda d, leq, x, y, z: {
        "x": x, "y": y, "z": z, "d_xz": d(x, z), "d_xy": d(x, y), "d_yz": d(y, z)},
    "order_transitive": lambda d, leq, x, y, z: {"x": x, "y": y, "z": z},
}


def _tuple_count(n, width):
    """The number of points, index pairs i < j or index triples of n points."""
    return math.comb(n, 2) if width == 2 else n ** width


def _audit_tuples(pts, width, cap, seed, consumer, sizes):
    """The tuples of points one phase of the sampled audit checks, as one
    iterator: all points, index pairs i < j or index triples, in
    lexicographic order, up to the cap; past it, cap tuples of width
    consecutive values of _randrange_stream(Random(_sampler_seed(seed, consumer))),
    sliced from lists of AUDIT_BLOCK rows, with each pair i == j dropped.
    sizes receives the number of tuples of each block as it is handed out."""
    total = _tuple_count(len(pts), width)
    if cap is None or total <= cap:
        sizes.append(total)
        return combinations(pts, width) if width < 3 else product(pts, repeat=3)
    rng = random.Random(_sampler_seed(seed, consumer))
    return chain.from_iterable(_drawn_blocks(pts, width, cap, rng, sizes))


def _drawn_blocks(pts, width, rows, rng, sizes):
    get, s = pts.__getitem__, _randrange_stream(rng, len(pts))
    for start in range(0, rows, AUDIT_BLOCK):
        m = min(AUDIT_BLOCK, rows - start)
        if width == 3:
            flat = list(islice(map(get, s), 3 * m))
            sizes.append(m)
            yield zip(flat[0::3], flat[1::3], flat[2::3])
        else:
            flat = list(islice(s, 2 * m))
            keep = list(map(ne, flat[0::2], flat[1::2]))
            sizes.append(sum(keep))
            yield compress(zip(map(get, flat[0::2]), map(get, flat[1::2])), keep)


# the sampled audit's scans, one per tuple width: the first failing tuple of
# each axiom of that width, in _AUDIT_PHASES order, or None; a scan stops once
# every axiom has failed
def _points(d, leq, tau, tuples):
    ident = refl = None
    for (x,) in tuples:
        if ident is None and abs(d(x, x)) > tau:
            ident = (x,)
        if refl is None and leq(x, x) is not True:
            refl = (x,)
        if ident is not None and refl is not None:
            break
    return ident, refl


def _pairs(d, leq, tau, tuples):
    nonneg = sym = antisym = None
    for x, y in tuples:
        dxy = d(x, y)
        if nonneg is None and dxy < -tau:
            nonneg = (x, y)
        if sym is None and abs(dxy - d(y, x)) > tau:
            sym = (x, y)
        if antisym is None and leq(x, y) is True and leq(y, x) is True and x != y:
            antisym = (x, y)
        if nonneg is not None and sym is not None and antisym is not None:
            break
    return nonneg, sym, antisym


def _triples(d, leq, tau, tuples):
    tri = trans = None
    for x, y, z in tuples:
        if tri is None:
            d_xz, via_y = d(x, z), d(x, y) + d(y, z)
            # the relative slack only matters once the plain comparison fails
            if d_xz > via_y and d_xz > via_y + tau * max(1, via_y):
                tri = (x, y, z)
        if trans is None and leq(x, y) is True and leq(y, z) is True and leq(x, z) is not True:
            trans = (x, y, z)
        if tri is not None and trans is not None:
            break
    return tri, trans


def _finite_witnesses(fd):
    """The matrix lane: the first failing index, index pair i < j and index
    triple per axiom, in lexicographic order, read with zero tolerance from
    the integer-scaled distance matrix and the 0/1 order matrix."""
    S, L, els = fd.scaled[1], fd.leq, fd.elements
    idx = range(len(S))
    return {
        "metric_identity": next(((i,) for i in idx if S[i][i]), None),
        "order_reflexive": next(((i,) for i in idx if not L[i][i]), None),
        "metric_nonnegative": next(((i, j) for i, j in combinations(idx, 2) if S[i][j] < 0),
                                   None),
        "metric_symmetry": next(((i, j) for i, j in combinations(idx, 2)
                                 if S[i][j] != S[j][i]), None),
        "order_antisymmetric": next(((i, j) for i, j in combinations(idx, 2)
                                     if L[i][j] and L[j][i] and els[i] != els[j]), None),
        "metric_triangle": _first_triangle_break(S),
        "order_transitive": _first_transitivity_break(L),
    }


def _first_triangle_break(S):
    """First (i, j, k) with d_ik > d_ij + d_jk, that is S[i][k] - S[j][k] >
    S[i][j] on the integer matrix S."""
    idx = range(len(S))
    for i in idx:
        Si = S[i]
        for j in idx:
            k = next(compress(idx, map(Si[j].__lt__, map(sub, Si, S[j]))), None)
            if k is not None:
                return i, j, k
    return None


def _first_transitivity_break(L):
    """First (i, j, k) with i <= j <= k but not i <= k."""
    idx = range(len(L))
    for i in idx:
        Li = L[i]
        for j in compress(idx, Li):
            k = next(compress(idx, map(gt, L[j], Li)), None)
            if k is not None:
                return i, j, k
    return None


def audit(space, samples, seed, tau):
    """spaces.audit_space, past its argument check and its by-construction
    path; tau is the metric slack of the sampled checks (the matrix lane has
    none)."""
    fd = space.finite
    if fd is None:
        return _sampled_audit(space, samples, seed, tau)
    pts = fd.elements
    found = {name: tuple(map(pts.__getitem__, w))
             for name, w in _finite_witnesses(fd).items() if w is not None}
    counts = [_tuple_count(len(pts), width) for width in (1, 2, 3)]
    return _audit_report(space, found, counts, exhaustive=True)


def audit_by_construction(space):
    """The report of a space whose axioms hold by construction: every axiom
    passed, with no check run."""
    return _audit_report(space, {}, (0, 0, 0), exhaustive=False, method="by_construction")


def _sampled_audit(space, samples, seed, tau):
    """audit of a space without matrices: per tuple width, its scan over the
    tuples of _audit_tuples through the space's distance and leq, and the
    number of those tuples, checked or not."""
    pts = list(space.sampler(samples, _sampler_seed(seed, "audit_points")))
    if not pts:
        raise InputError("sampler returned no points to audit")
    found, counts = {}, []
    for (width, cap, consumer, axioms), scan in zip(_AUDIT_PHASES, (_points, _pairs, _triples)):
        sizes = []
        tuples = _audit_tuples(pts, width, cap, seed, consumer, sizes)
        witnesses = scan(space.distance, space.leq, tau, tuples)
        found.update((a, w) for a, w in zip(axioms, witnesses) if w is not None)
        deque(tuples, 0)  # draw what a scan that stopped early left, to count it
        counts.append(sum(sizes))
    return _audit_report(space, found, counts, exhaustive=False)


def _audit_report(space, found, counts, exhaustive, method=None):
    """The report from the witness points of the failed axioms and the number
    of points, pairs and triples checked."""
    checks = {a: count for (_, _, _, axioms), count in zip(_AUDIT_PHASES, counts)
              for a in axioms}
    report = AuditReport(space_description=space.description, exhaustive=exhaustive,
                         method=method)
    for name, counterexample in _COUNTEREXAMPLES.items():
        w = found.get(name)
        report.axioms.append(AxiomCheck(
            name, w is None, checks[name],
            None if w is None else counterexample(space.distance, space.leq, *w)))
    return report
