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
from itertools import islice
from typing import Any, Callable, Optional

from .errors import DomainMismatchError, InputError

Element = Any

DEFAULT_TAU_METRIC = 1e-12


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
    """The comparable pairs of a finite space, with distances scaled to
    integers: scale is the least common denominator of the distance matrix.

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
        scale = math.lcm(*(d.denominator for row in fd.dist for d in row))
        idx = range(len(fd.elements))
        dist, leq = fd.dist, fd.leq
        down = [(i, j, int(dist[i][j] * scale)) for i in idx for j in idx if leq[j][i]]
        up = [(i, j, int(dist[i][j] * scale)) for i in idx for j in idx if leq[i][j]]
        up_by_dist = sorted(range(len(up)), key=lambda p: up[p][2])
        return cls(scale, down, up, up_by_dist, [up[p][2] for p in up_by_dist])


@dataclass
class FiniteData:
    """Exact tabulated structure of a finite space (labels, matrices), and
    its pair index, built on first use by pairs() and kept with the space."""

    elements: tuple
    index: dict
    dist: list  # Fraction matrix
    leq: list  # 0/1 matrix
    pair_index: Optional[PairIndex] = field(default=None, repr=False, compare=False)

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


def _audit_points(space, samples, seed):
    if space.finite is not None:
        return list(space.finite.elements), True
    pts = space.sampler(samples, seed)
    if not pts:
        raise InputError("sampler returned no points to audit")
    return list(pts), False


def audit_space(space: SpaceModel, samples: int = 100, seed: int = 0,
                tau_metric: float = DEFAULT_TAU_METRIC) -> AuditReport:
    """Check the metric and order axioms on sampled (or, for finite spaces,
    all) points. Each axiom gets a pass/fail entry with the first
    counterexample found.

    Pair axioms run over all index pairs up to a deterministic cap; triangle
    and transitivity triples are drawn from a seeded stream when exhaustive
    enumeration would be too large.
    """
    if samples < 3:
        raise InputError("audit requires samples >= 3")
    pts, exhaustive = _audit_points(space, samples, seed)
    n = len(pts)
    d = space.distance
    leq = space.leq
    report = AuditReport(space_description=space.description, exhaustive=exhaustive)

    # identity and reflexivity: every point
    ident_bad = None
    refl_bad = None
    for x in pts:
        if ident_bad is None and abs(d(x, x)) > tau_metric:
            ident_bad = {"x": x, "d_xx": d(x, x)}
        if refl_bad is None and leq(x, x) is not True:
            refl_bad = {"x": x, "leq_xx": repr(leq(x, x))}
    report.axioms.append(AxiomCheck("metric_identity", ident_bad is None, n, ident_bad))
    report.axioms.append(AxiomCheck("order_reflexive", refl_bad is None, n, refl_bad))

    # pairs: nonnegativity, symmetry, antisymmetry. Point pairs and triples
    # are generated lazily, so memory stays flat at the caps; a sampled pair
    # (triple) is two (three) consecutive draws of one index stream.
    max_pairs = 200_000
    total_pairs = n * (n - 1) // 2
    if total_pairs <= max_pairs:
        pairs = ((x, y) for i, x in enumerate(pts) for y in pts[i + 1:])
    else:
        s = _randrange_stream(random.Random(seed ^ 0x5EED), n)
        pairs = ((pts[i], pts[j]) for i, j in islice(zip(s, s), max_pairs) if i != j)
    nonneg_bad = sym_bad = antisym_bad = None
    n_pairs = 0
    for x, y in pairs:
        n_pairs += 1
        dxy = d(x, y)
        if nonneg_bad is None and dxy < -tau_metric:
            nonneg_bad = {"x": x, "y": y, "d_xy": dxy}
        if sym_bad is None and abs(dxy - d(y, x)) > tau_metric:
            sym_bad = {"x": x, "y": y, "d_xy": dxy, "d_yx": d(y, x)}
        if antisym_bad is None and leq(x, y) is True and leq(y, x) is True and x != y:
            antisym_bad = {"x": x, "y": y}
        if nonneg_bad and sym_bad and antisym_bad:
            break
    # the reported count covers every pair the audit drew, checked or not
    n_pairs += sum(1 for _ in pairs)
    report.axioms.append(AxiomCheck("metric_nonnegative", nonneg_bad is None, n_pairs, nonneg_bad))
    report.axioms.append(AxiomCheck("metric_symmetry", sym_bad is None, n_pairs, sym_bad))
    report.axioms.append(AxiomCheck("order_antisymmetric", antisym_bad is None, n_pairs,
                                    antisym_bad))

    # triples: triangle inequality, transitivity
    max_triples = 200_000
    if n ** 3 <= max_triples:
        n_triples = n ** 3
        triples = ((x, y, z) for x in pts for y in pts for z in pts)
    else:
        n_triples = max_triples
        p = map(pts.__getitem__, _randrange_stream(random.Random(seed ^ 0x7A1A), n))
        triples = islice(zip(p, p, p), max_triples)
    tri_bad = trans_bad = None
    for x, y, z in triples:
        if tri_bad is None:
            d_xz, via_y = d(x, z), d(x, y) + d(y, z)
            # the relative slack only matters once the plain comparison fails
            if d_xz > via_y and d_xz > via_y + tau_metric * max(1, via_y):
                tri_bad = {
                    "x": x, "y": y, "z": z,
                    "d_xz": d_xz, "d_xy": d(x, y), "d_yz": d(y, z),
                }
        if trans_bad is None and leq(x, y) is True and leq(y, z) is True and leq(x, z) is not True:
            trans_bad = {"x": x, "y": y, "z": z}
        if tri_bad and trans_bad:
            break
    report.axioms.append(AxiomCheck("metric_triangle", tri_bad is None, n_triples, tri_bad))
    report.axioms.append(AxiomCheck("order_transitive", trans_bad is None, n_triples, trans_bad))
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


def finite_space(elements, dist_matrix, leq_matrix, description="finite space") -> SpaceModel:
    """A finite space given by explicit matrices.

    Distances are stored as exact Fractions so checks on finite spaces run
    with zero tolerance; leq_matrix[i][j] == 1 encodes elements[i] <= elements[j].
    """
    elements = tuple(elements)
    n = len(elements)
    if n == 0:
        raise InputError("finite space needs at least one element")
    if len(set(elements)) != n:
        raise InputError("finite space elements must be distinct")
    index = {e: i for i, e in enumerate(elements)}
    dist = [[Fraction(v) for v in row] for row in dist_matrix]
    leq_m = [[int(v) for v in row] for row in leq_matrix]

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
