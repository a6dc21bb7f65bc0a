"""Metric spaces with a partial order, pair points, and the derived product structure.

A SpaceModel bundles the three callables everything else is built from: a
metric ``distance``, a three-valued order ``leq`` and a deterministic
``sampler``. The order deliberately distinguishes "comparable but not below"
(False) from "no order relation either way" (INCOMPARABLE), because the
uniqueness probes must tell them apart.

The product space over pairs is derived, never stored: ``d2`` is half the sum
of coordinatewise distances and ``product_leq`` is the mixed order
(u, v) <= (x, y)  iff  u <= x and y <= v.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress, islice
from operator import gt, sub
from typing import Any, Callable, Optional

from .errors import DomainMismatchError, InputError

Element = Any

FLOAT_SLACK = 1e-12  # rounding slack of float spaces (audit, operators._with_slack)


class _Incomparable:
    """Singleton verdict for order queries with no relation either way."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INCOMPARABLE"

    def __bool__(self):
        # Force three-valued handling: `if leq(x, y):` is a bug, use `is True`.
        raise TypeError("incomparable order verdict used as a boolean")


INCOMPARABLE = _Incomparable()


@dataclass(frozen=True)
class PairPoint:
    """An element of the product space: a pair of base-space elements."""

    first: Element
    second: Element

    def to_jsonable(self):
        from .reports import jsonable

        return [jsonable(self.first), jsonable(self.second)]


@dataclass
class PairIndex:
    """The comparable pairs of a finite space, with their distances from the
    space's integer-scaled matrix (FiniteData.scaled).

    down holds (x, u, d(x,u) * scale) for u <= x and up holds
    (y, v, d(y,v) * scale) for y <= v, as element indices in row-major order.
    up_by_dist lists the positions into up sorted by distance (ties keep their
    order) and up_dists those sorted distances, so the up pairs completing a
    down pair to a half-sum in a band are one bisected slice. The index is
    O(comparable pairs); quadruples are never tabulated.
    """

    scale: int
    down: list
    up: list
    up_by_dist: list
    up_dists: list

    @classmethod
    def build(cls, fd):
        scale, dist = fd.scaled
        idx = range(len(fd.elements))
        leq = fd.leq
        down = [(i, j, dist[i][j]) for i in idx for j in idx if leq[j][i]]
        up = [(i, j, dist[i][j]) for i in idx for j in idx if leq[i][j]]
        up_by_dist = sorted(range(len(up)), key=lambda p: up[p][2])
        return cls(scale, down, up, up_by_dist, [up[p][2] for p in up_by_dist])


@dataclass
class FiniteData:
    """Exact tabulated structure of a finite space: labels, the n x n
    Fraction distance matrix and the n x n 0/1 order matrix.

    Two derived views are built on first use and kept with the space:
    ``scaled``, the pair (scale, distance matrix times scale) with scale the
    least common denominator of the distances, whose integer entries keep
    every sum and comparison of distances exact; and the pair index of
    pairs().
    """

    elements: tuple
    index: dict
    dist: list  # Fraction matrix
    leq: list  # 0/1 matrix
    pair_index: Optional[PairIndex] = field(default=None, repr=False, compare=False)

    @cached_property
    def scaled(self):
        scale = math.lcm(*(d.denominator for row in self.dist for d in row))
        return scale, [[d.numerator * (scale // d.denominator) for d in row]
                       for row in self.dist]

    def pairs(self) -> PairIndex:
        if self.pair_index is None:
            self.pair_index = PairIndex.build(self)
        return self.pair_index


@dataclass
class SpaceModel:
    """A metric space with a partial order.

    distance(x, y) -> nonnegative real (Fraction on exact finite spaces)
    leq(x, y)      -> True | False | INCOMPARABLE  (x <= y / x > y-comparable / unrelated)
    sampler(count, seed) -> deterministic list of elements

    kind tags the fast paths: "real_line" spaces carry a sampling radius and a
    metrically linear interpolate hook; "finite" spaces carry exact matrices
    that enable exhaustive, zero-tolerance checking.
    """

    distance: Callable[[Element, Element], Any]
    leq: Callable[[Element, Element], Any]
    sampler: Callable[[int, int], list]
    description: str = ""
    kind: str = "custom"
    exact: bool = False
    sample_radius: Optional[float] = None
    contains: Optional[Callable[[Element], bool]] = None
    interpolate: Optional[Callable[[Element, Element, float], Element]] = None
    finite: Optional[FiniteData] = None

    def member(self, x) -> bool:
        return True if self.contains is None else bool(self.contains(x))


def _require_members(space, *elements):
    for e in elements:
        if not space.member(e):
            raise DomainMismatchError(f"element {e!r} is not in {space.description or 'the space'}")


def d2(Y: PairPoint, V: PairPoint, space: SpaceModel):
    """Product metric on pairs: half the sum of coordinatewise distances."""
    _require_members(space, Y.first, Y.second, V.first, V.second)
    return (space.distance(Y.first, V.first) + space.distance(Y.second, V.second)) / 2


def product_leq(Y: PairPoint, V: PairPoint, space: SpaceModel):
    """Three-valued product order: True iff Y <=2 V, i.e. Y.first <= V.first
    and V.second <= Y.second; False when the reverse relation holds instead;
    INCOMPARABLE when neither direction does.
    """
    _require_members(space, Y.first, Y.second, V.first, V.second)
    if space.leq(Y.first, V.first) is True and space.leq(V.second, Y.second) is True:
        return True
    if space.leq(V.first, Y.first) is True and space.leq(Y.second, V.second) is True:
        return False
    return INCOMPARABLE


def pairs_comparable(Y: PairPoint, V: PairPoint, space: SpaceModel) -> bool:
    return product_leq(Y, V, space) is not INCOMPARABLE


@dataclass
class AxiomCheck:
    name: str
    passed: bool
    checks: int
    counterexample: Optional[dict] = None

    def to_jsonable(self):
        from .reports import jsonable

        return {
            "name": self.name,
            "passed": self.passed,
            "checks": self.checks,
            "counterexample": jsonable(self.counterexample),
        }


@dataclass
class AuditReport:
    space_description: str
    axioms: list = field(default_factory=list)
    exhaustive: bool = False

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.axioms)

    def failed_axioms(self):
        return [a.name for a in self.axioms if not a.passed]

    def to_jsonable(self):
        return {
            "space": self.space_description,
            "passed": self.passed,
            "exhaustive": self.exhaustive,
            "axioms": [a.to_jsonable() for a in self.axioms],
        }


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


def _sampled_witnesses(space, pts, seed, tau):
    """The callable lane: the first failing point, pair and triple per axiom
    through the space's distance and leq, with the number of pairs and
    triples checked. Pairs run over all index pairs up to MAX_AUDIT_PAIRS,
    triples over all index triples up to MAX_AUDIT_TRIPLES; past a cap a
    pair (triple) is two (three) consecutive draws of one seeded index
    stream. Both are generated lazily, so memory stays flat at the caps."""
    d, leq = space.distance, space.leq
    n = len(pts)
    found = {
        "metric_identity": next(((x,) for x in pts if abs(d(x, x)) > tau), None),
        "order_reflexive": next(((x,) for x in pts if leq(x, x) is not True), None),
    }

    if n * (n - 1) // 2 <= MAX_AUDIT_PAIRS:
        pairs = ((x, y) for i, x in enumerate(pts) for y in pts[i + 1:])
    else:
        s = _randrange_stream(random.Random(seed ^ 0x5EED), n)
        pairs = ((pts[i], pts[j]) for i, j in islice(zip(s, s), MAX_AUDIT_PAIRS) if i != j)
    nonneg = sym = antisym = None
    n_pairs = 0
    for x, y in pairs:
        n_pairs += 1
        dxy = d(x, y)
        if nonneg is None and dxy < -tau:
            nonneg = (x, y)
        if sym is None and abs(dxy - d(y, x)) > tau:
            sym = (x, y)
        if antisym is None and leq(x, y) is True and leq(y, x) is True and x != y:
            antisym = (x, y)
        if nonneg and sym and antisym:
            break
    # the reported count covers every pair the audit drew, checked or not
    n_pairs += sum(1 for _ in pairs)

    if n ** 3 <= MAX_AUDIT_TRIPLES:
        n_triples = n ** 3
        triples = ((x, y, z) for x in pts for y in pts for z in pts)
    else:
        n_triples = MAX_AUDIT_TRIPLES
        p = map(pts.__getitem__, _randrange_stream(random.Random(seed ^ 0x7A1A), n))
        triples = islice(zip(p, p, p), MAX_AUDIT_TRIPLES)
    tri = trans = None
    for x, y, z in triples:
        if tri is None:
            d_xz, via_y = d(x, z), d(x, y) + d(y, z)
            # the relative slack only matters once the plain comparison fails
            if d_xz > via_y and d_xz > via_y + tau * max(1, via_y):
                tri = (x, y, z)
        if trans is None and leq(x, y) is True and leq(y, z) is True and leq(x, z) is not True:
            trans = (x, y, z)
        if tri and trans:
            break
    found.update(metric_nonnegative=nonneg, metric_symmetry=sym, order_antisymmetric=antisym,
                 metric_triangle=tri, order_transitive=trans)
    return found, n_pairs, n_triples


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


def audit_space(space: SpaceModel, samples: int = 100, seed: int = 0) -> AuditReport:
    """Check the metric and order axioms. Each axiom gets a pass/fail entry
    with its first counterexample, in lexicographic order of the enumeration
    or draw order of the stream.

    A finite space, of any size, is checked exhaustively on its matrices (the
    matrix lane) with zero tolerance; its report is marked exhaustive. Every
    other space is checked on `samples` sampled points through its distance
    and leq (the callable lane), where pairs and triples past their caps are
    drawn from a seeded stream; its metric checks allow the slack FLOAT_SLACK
    (relative, on the triangle) unless the space is exact. Either way the
    counterexample is read back through the space's distance and leq.
    """
    if samples < 3:
        raise InputError("audit requires samples >= 3")
    fd = space.finite
    if fd is not None:
        pts = fd.elements
        n = len(pts)
        found = {name: None if w is None else tuple(map(pts.__getitem__, w))
                 for name, w in _finite_witnesses(fd).items()}
        n_pairs, n_triples = n * (n - 1) // 2, n ** 3
    else:
        pts = list(space.sampler(samples, seed))
        if not pts:
            raise InputError("sampler returned no points to audit")
        n = len(pts)
        found, n_pairs, n_triples = _sampled_witnesses(
            space, pts, seed, 0 if space.exact else FLOAT_SLACK)

    checks = {"metric_identity": n, "order_reflexive": n, "metric_nonnegative": n_pairs,
              "metric_symmetry": n_pairs, "order_antisymmetric": n_pairs,
              "metric_triangle": n_triples, "order_transitive": n_triples}
    report = AuditReport(space_description=space.description, exhaustive=fd is not None)
    for name, counterexample in _COUNTEREXAMPLES.items():
        w = found[name]
        report.axioms.append(AxiomCheck(
            name, w is None, checks[name],
            None if w is None else counterexample(space.distance, space.leq, *w)))
    return report


def real_line(radius: float = 10.0) -> SpaceModel:
    """The real line with |x - y| and the usual total order.

    The sampler draws uniformly from [-radius, radius]; the space itself is
    all of R. interpolate is the affine map x + t*(y - x) (metrically linear,
    order preserving for t >= 0), which the targeted band construction relies on.
    """
    if not (math.isfinite(radius) and radius > 0):
        raise InputError("radius must be positive and finite")

    def distance(x, y):
        return abs(x - y)

    def leq(x, y):
        # a Python bool even when F returns numpy floats (np.bool_ is not True)
        return True if x <= y else False

    def sampler(count, seed):
        rng = random.Random(seed)
        return [rng.uniform(-radius, radius) for _ in range(count)]

    def interpolate(x, y, t):
        return x + t * (y - x)

    return SpaceModel(
        distance=distance,
        leq=leq,
        sampler=sampler,
        description=f"real line (|.|, usual order, sampling box [-{radius}, {radius}])",
        kind="real_line",
        sample_radius=float(radius),
        interpolate=interpolate,
    )


_REJECTED = (TypeError, ValueError, OverflowError, ZeroDivisionError)


def _distance(v):
    if isinstance(v, bool):
        raise TypeError("expected a number or 'p/q' string")
    return Fraction(v)


def _zero_one(v):
    if isinstance(v, bool) or v not in (0, 1):
        raise ValueError("expected 0 or 1")
    return int(v)


def _is_row(v):
    return hasattr(v, "__len__") and not isinstance(v, (str, dict))


def square_matrix(rows, n, entry, name):
    """rows as an n x n list of lists of entry(v) values. Anything else raises
    InputError naming the first bad entry in row-major order as name[i][j]:
    one that entry() rejects, or one missing from or outside the n x n square.
    Locations are formatted only on failure."""
    try:
        if _is_row(rows) and len(rows) == n and all(_is_row(r) and len(r) == n for r in rows):
            return [[entry(v) for v in row] for row in rows]
    except _REJECTED:
        pass
    raise InputError(_first_bad_entry(rows, n, entry, name))


def _first_bad_entry(rows, n, entry, name):
    if _is_row(rows):
        rows = list(rows)
        for i in range(max(n, len(rows))):
            row = rows[i] if i < len(rows) else []
            if not _is_row(row):
                return f"{name}[{i}]: expected a row of {n} entries, got {type(row).__name__}"
            for j in range(max(n, len(row))):
                if i >= n or j >= n:
                    return f"{name}[{i}][{j}]: outside the {n}x{n} matrix"
                if j >= len(row):
                    return f"{name}[{i}][{j}]: missing from the {n}x{n} matrix"
                try:
                    entry(row[j])
                except _REJECTED as exc:
                    return f"{name}[{i}][{j}]: bad entry {row[j]!r}: {exc}"
    return f"{name}: expected a matrix of {n} rows, got {type(rows).__name__}"


def finite_space(elements, dist_matrix, leq_matrix, description="finite space") -> SpaceModel:
    """A finite space given by explicit matrices, validated and converted here
    once. Both are n x n (rows are sized sequences, not strings). Distances
    are finite numbers or "p/q" strings, stored as exact Fractions so checks
    on finite spaces run with zero tolerance; leq_matrix[i][j] is 0 or 1, 1
    encoding elements[i] <= elements[j]. Booleans are rejected in both.
    Anything else is an InputError naming the first bad entry as
    distance[i][j] or leq[i][j]. The axioms themselves are audit_space's job.
    """
    elements = tuple(elements)
    n = len(elements)
    if n == 0:
        raise InputError("finite space needs at least one element")
    if len(set(elements)) != n:
        raise InputError("finite space elements must be distinct")
    index = {e: i for i, e in enumerate(elements)}
    dist = square_matrix(dist_matrix, n, _distance, "distance")
    leq_m = square_matrix(leq_matrix, n, _zero_one, "leq")

    def distance(x, y):
        return dist[index[x]][index[y]]

    def leq(x, y):
        i, j = index[x], index[y]
        if leq_m[i][j]:
            return True
        if leq_m[j][i]:
            return False
        return INCOMPARABLE

    def sampler(count, seed):
        rng = random.Random(seed)
        return [elements[rng.randrange(n)] for _ in range(count)]

    return SpaceModel(
        distance=distance,
        leq=leq,
        sampler=sampler,
        description=description,
        kind="finite",
        exact=True,
        contains=lambda x: x in index,
        finite=FiniteData(elements=elements, index=index, dist=dist, leq=leq_m),
    )
