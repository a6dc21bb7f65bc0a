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
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, islice
from typing import Any, Callable, Optional

from .audit import AuditReport, audit, audit_by_construction
from .errors import DomainMismatchError, InputError
from .reports import jsonable

Element = Any

FLOAT_SLACK = 1e-12  # rounding slack of float spaces (audit, operators._with_slack)
_SMALLEST_SUBNORMAL = math.ulp(0.0)  # 5e-324


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

    # not a reports.Record: the JSON is the list [first, second], not an object
    def to_jsonable(self):
        return [jsonable(self.first), jsonable(self.second)]


@dataclass
class PairIndex:
    """The comparable pairs of a finite space, with their distances from the
    space's integer-scaled matrix (FiniteData.scaled), in the order the
    finite lane walks them.

    down holds (x, u, d(x,u) * scale) for u <= x, as element indices in
    row-major order. The up pairs y <= v are the parallel lists dists
    (d(y,v) * scale), pos (the pair's row-major position), ys and vs, sorted
    by distance with ties in row-major order, so the up pairs completing a
    down pair to a half-sum in a band are one bisected slice. The index is
    O(comparable pairs); quadruples are never tabulated.
    """

    scale: int
    down: list
    dists: list
    pos: list
    ys: list
    vs: list


@dataclass
class FiniteData:
    """Exact tabulated structure of a finite space: labels, the n x n
    Fraction distance matrix and the n x n 0/1 order matrix.

    Derived views are built on first use and kept with the space:
    ``distances``, the distinct Fraction objects of dist, one per distinct
    entry of the input matrix (square_matrix gives equal entries one object);
    ``scaled``, the pair (scale, distance matrix times scale) with scale the
    least common denominator of the distances, whose integer entries keep
    every sum and comparison of distances exact, worked out once per
    distinct distance; and ``pair_index``, the space's PairIndex.
    """

    elements: tuple
    index: dict
    dist: list  # Fraction matrix
    leq: list  # 0/1 matrix

    @cached_property
    def distances(self):
        return list({id(d): d for d in chain.from_iterable(self.dist)}.values())

    @cached_property
    def scaled(self):
        scale = math.lcm(*(d.denominator for d in self.distances))
        by_id = {id(d): d.numerator * (scale // d.denominator) for d in self.distances}
        return scale, [list(map(by_id.__getitem__, map(id, row))) for row in self.dist]

    @cached_property
    def pair_index(self) -> PairIndex:
        scale, dist = self.scaled
        idx, leq = range(len(self.elements)), self.leq
        down = [(i, j, dist[i][j]) for i in idx for j in idx if leq[j][i]]
        up = sorted((dist[i][j], p, i, j) for p, (i, j) in
                    enumerate((i, j) for i in idx for j in idx if leq[i][j]))
        return PairIndex(scale, down, *([t[k] for t in up] for k in range(4)))


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


def _half_sum(space: SpaceModel, total):
    """Half a sum of two distances, as d2 and every check that stands for d2
    halve it. On a float space a sum of 5e-324, the smallest subnormal and
    the one positive float that halves to 0.0, is returned whole, so the
    half is positive whenever the sum is; the test is elementwise on the
    sweeps' float64 arrays, and inf and NaN halve as before. Exact spaces
    halve exactly."""
    if space.exact:
        return total / 2
    # 2.0, not 2: on arrays a float divisor skips an int64 cast of the mask
    return total / (2.0 - (total == _SMALLEST_SUBNORMAL))


def d2(Y: PairPoint, V: PairPoint, space: SpaceModel):
    """Product metric on pairs: half the sum of coordinatewise distances."""
    _require_members(space, Y.first, Y.second, V.first, V.second)
    return _half_sum(space, space.distance(Y.first, V.first) + space.distance(Y.second, V.second))


def _product_order(leq, a1, a2, b1, b2):
    """product_leq of (a1, a2) and (b1, b2) under the base order leq, without
    its membership test: True, False or INCOMPARABLE."""
    if leq(a1, b1) is True and leq(b2, a2) is True:
        return True
    if leq(b1, a1) is True and leq(a2, b2) is True:
        return False
    return INCOMPARABLE


def product_leq(Y: PairPoint, V: PairPoint, space: SpaceModel):
    """Three-valued product order: True iff Y <=2 V, i.e. Y.first <= V.first
    and V.second <= Y.second; False when the reverse relation holds instead;
    INCOMPARABLE when neither direction does. It tests membership, then
    reads _product_order, which the comparability probe calls on coordinates.
    """
    _require_members(space, Y.first, Y.second, V.first, V.second)
    return _product_order(space.leq, Y.first, Y.second, V.first, V.second)


def pairs_comparable(Y: PairPoint, V: PairPoint, space: SpaceModel) -> bool:
    return product_leq(Y, V, space) is not INCOMPARABLE


def audit_space(space: SpaceModel, samples: int = 100, seed: int = 0) -> AuditReport:
    """Check the metric and order axioms. Each axiom gets a pass/fail entry
    with its first counterexample, in lexicographic order of the enumeration
    or draw order of the stream.

    A finite space, of any size, is checked exhaustively on its matrices (the
    matrix lane) with zero tolerance; its report is marked exhaustive.

    A space that keeps all of real_line()'s own parts (its kind, leq,
    distance and sampler, and the float slack of a space not marked exact)
    passes every axiom by construction, and is reported so, with no sampling
    and no distance or leq call: each axiom passed, with 0 checks and no
    counterexample, "exhaustive" false and "method" "by_construction". The
    argument, for floats x, y, z drawn by its sampler:
    - abs(x - x) == 0 and abs(x - y) == abs(y - x) hold exactly in IEEE
      arithmetic, and an absolute value is never negative;
    - <= on floats other than NaN is a total order (reflexive, antisymmetric
      with -0.0 == 0.0, and transitive), and _line_leq reads it;
    - the sampler draws finite floats in [-r, r], with 2r finite, so every
      distance is finite;
    - each of the three subtractions and the one addition of the triangle
      check rounds by at most u = 2**-53 relative, so the computed d(x, z)
      exceeds the computed d(x, y) + d(y, z) by at most about 3u times that
      sum, far inside the slack FLOAT_SLACK * max(1, sum).

    Any other space without matrices, one made from real_line() with a
    replaced distance, leq or sampler or with kind "custom" among them, is
    checked on `samples` sampled points through its distance and leq (the
    sampled audit), where pairs and triples past their caps are drawn from a
    seeded index stream (see coupledfp.audit); its metric checks allow the
    slack FLOAT_SLACK (relative, on the triangle) unless the space is exact.
    The counterexample is read back through the space's distance and leq.
    """
    if samples < 3:
        raise InputError("audit requires samples >= 3")
    if _own_real_line(space):
        return audit_by_construction(space)
    return audit(space, samples, seed, 0 if space.exact else FLOAT_SLACK)


def _own_real_line(space: SpaceModel) -> bool:
    """Whether space keeps real_line()'s kind, leq, distance and sampler,
    and its float slack: the premises of audit_space's by-construction path."""
    sampler = space.sampler
    return (usual_real_order(space) and space.distance is _line_distance and not space.exact
            and isinstance(sampler, partial) and sampler.func is _line_sampler)


def _line_leq(x, y):
    # a Python bool even when F returns numpy floats (np.bool_ is not True)
    return True if x <= y else False


def usual_real_order(space: SpaceModel) -> bool:
    """True for a space of kind "real_line" that keeps real_line()'s own leq.

    This is the one gate of the real line's array paths (the sweep kernels
    and the array mixed-monotone check), of the comparability probe's closed
    form and, with the distance and sampler also real_line()'s own, of the
    audit's by-construction path: they compare with <= in place of calling
    leq, so a space made from real_line() with a replaced leq, which keeps
    the kind, must not pass.
    """
    return space.kind == "real_line" and space.leq is _line_leq


def maps_arrays(distance) -> bool:
    """Whether distance takes two float64 arrays to an array of the same
    shape, as real_line()'s does; one that only takes floats does not.
    Imports numpy."""
    import numpy as np

    xs = np.array([0.0, 1.0])
    try:
        out = distance(xs, xs[::-1])
    except (TypeError, ValueError):
        return False
    return isinstance(out, np.ndarray) and out.shape == xs.shape


def _real_lattice_bound(Y: PairPoint, V: PairPoint) -> PairPoint:
    # coordinatewise extremes give an upper bound in the product order
    return PairPoint(max(Y.first, V.first), min(Y.second, V.second))


def _line_distance(x, y):
    return abs(x - y)


def _line_sampler(lo, span, count, seed):
    # rng.uniform(lo, lo + span) is lo + span * rng.random(): the same
    # floats, without a method call per point
    rng = random.Random(seed)
    return [lo + span * u for u in islice(iter(rng.random, None), count)]


def real_line(radius: float = 10.0) -> SpaceModel:
    """The real line with |x - y| and the usual total order.

    The sampler draws uniformly from [-radius, radius]; the space itself is
    all of R. interpolate is the affine map x + t*(y - x) (metrically linear,
    order preserving for t >= 0), which the targeted band construction relies on.
    distance also maps arrays (the sweep kernels call it so). The distance
    and the sampler are module-level functions, so audit_space can tell that
    a space keeps them. The box's width 2*radius must be finite, or every
    sampled point is inf.
    """
    if not (radius > 0 and math.isfinite(2 * radius)):
        raise InputError("radius must be positive, with 2*radius finite")
    lo = -radius

    def interpolate(x, y, t):
        return x + t * (y - x)

    return SpaceModel(
        distance=_line_distance,
        leq=_line_leq,
        sampler=partial(_line_sampler, lo, radius - lo),
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
    # a numpy bool equals 0 or 1 too; one exists only once numpy is loaded
    np = sys.modules.get("numpy")
    if isinstance(v, bool) or (np is not None and isinstance(v, np.bool_)) or v not in (0, 1):
        raise ValueError("expected 0 or 1")
    return int(v)


def _is_row(v):
    # an ordered sized sequence: strings, bytes, dicts and sets are not rows
    return hasattr(v, "__len__") and not isinstance(v, (str, bytes, bytearray, dict, set, frozenset))


def square_matrix(rows, n, entry, name):
    """rows as an n x n list of lists of entry(v) values. rows and each of
    its rows are ordered sequences, not strings, bytes, dicts or sets.
    Each distinct entry is converted once, and equal entries share the one
    converted value: entries are told apart by type and value, so 1, 1.0 and
    True each keep their own verdict. Anything else raises InputError naming
    the first bad entry in row-major order as name[i][j]: one that entry()
    rejects, or one missing from or outside the n x n square. Locations are
    formatted only on failure."""
    try:
        if _is_row(rows) and len(rows) == n and all(_is_row(r) and len(r) == n for r in rows):
            return _convert_distinct(rows, entry)
    except _REJECTED:
        pass
    raise InputError(_first_bad_entry(rows, n, entry, name))


def _convert_distinct(rows, entry):
    types = set(map(type, chain.from_iterable(rows)))
    # entries of one type, or ints and strs (no int equals a str), are told
    # apart by value alone; any other mix is keyed on (type, value)
    by_value = len(types) == 1 or types == {int, str}
    keys = rows if by_value else [list(zip(map(type, row), row)) for row in rows]
    try:
        conv = dict.fromkeys(chain.from_iterable(keys))
    except TypeError:  # an unhashable entry: convert entry by entry
        return [[entry(v) for v in row] for row in rows]
    for k in conv:
        conv[k] = entry(k if by_value else k[1])
    return [list(map(conv.__getitem__, row)) for row in keys]


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
    once, each distinct entry once (square_matrix). Both are n x n, and their
    rows are ordered sequences (not strings, bytes, dicts or sets). Distances
    are finite numbers or "p/q" strings, stored as exact Fractions so checks
    on finite spaces run with zero tolerance; leq_matrix[i][j] is 0 or 1, 1
    encoding elements[i] <= elements[j]. Booleans, Python's or numpy's, are
    rejected in both.
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

    def contains(x):
        try:
            return x in index
        except TypeError:  # unhashable, so not an element
            return False

    return SpaceModel(
        distance=distance,
        leq=leq,
        sampler=sampler,
        description=description,
        kind="finite",
        exact=True,
        contains=contains,
        finite=FiniteData(elements=elements, index=index, dist=dist, leq=leq_m),
    )
