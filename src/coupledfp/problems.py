"""Built-in problem instances and the finite-problem JSON loader.

Registry:
  samet_example        the real line with F(x, y) = (x - 3y)/5, start (-3, 3),
                       coupled fixed point (0, 0); separates the symmetric
                       banded condition from the asymmetric one
  linear(a,b,c)        F(x, y) = (a*x - b*y)/c with finite a, b >= 0, c > 0; mixed
                       monotone by construction, contracts to (0, 0) when
                       a + b < c
  finite_poset(path)   a fully tabulated instance loaded from JSON; all
                       checkers run exhaustively in exact rational arithmetic

Finite-problem JSON schema (schema_version 1):
  {
    "schema_version": 1,
    "elements": ["a", "b", "c"],          distinct labels
    "distance": [[...], ...],             n x n, numbers or exact "p/q" strings
    "leq": [[0/1, ...], ...],             leq[i][j] == 1  iff  elements[i] <= elements[j]
    "F": [[index, ...], ...],             F[i][j] = index of F(elements[i], elements[j])
    "start": [i, j],                      optional default start (indices)
    "expected": [i, j]                    optional known coupled fixed point
  }
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

from .errors import InputError, SchemaError
from .kernels import _sampler_seed
from .operators import CoupledOperator
from .solver import check_start
from .spaces import (PairPoint, SpaceModel, _real_lattice_bound, _require_members, finite_space,
                     real_line, square_matrix)

DEFAULT_RADIUS = 10.0

REGISTRY_FORMS = ("samet_example", "linear(a,b,c)", "finite_poset(path)")


@dataclass
class ProblemInstance:
    name: str
    space: SpaceModel
    operator: CoupledOperator
    default_start: PairPoint
    expected_fixed_point: Optional[PairPoint] = None
    bound_search: Optional[Callable] = None


def make_linear(a: float, b: float, c: float, radius: float = DEFAULT_RADIUS,
                name: Optional[str] = None) -> ProblemInstance:
    """The linear family F(x, y) = (a*x - b*y)/c on the real line."""
    if not (0 <= a < math.inf and 0 <= b < math.inf):  # NaN fails both tests
        raise InputError("linear(a,b,c) requires finite a >= 0 and b >= 0")
    if not c > 0:
        raise InputError("linear(a,b,c) requires c > 0")
    a, b, c = float(a), float(b), float(c)
    space = real_line(radius)

    def apply(x, y):
        return (a * x - b * y) / c

    op = CoupledOperator(
        apply=apply,
        space=space,
        lipschitz_data=(a / c, b / c),
        description=f"F(x,y) = ({a}*x - {b}*y)/{c}",
        vectorized=True,
    )
    contractive = a + b < c
    start = PairPoint(-1.0, 1.0) if contractive else PairPoint(0.0, 0.0)
    return ProblemInstance(
        name=name or f"linear({a:g},{b:g},{c:g})",
        space=space,
        operator=op,
        default_start=start,
        expected_fixed_point=PairPoint(0.0, 0.0),
        bound_search=_real_lattice_bound,
    )


def _samet_example() -> ProblemInstance:
    return replace(make_linear(1.0, 3.0, 5.0, name="samet_example"),
                   default_start=PairPoint(-3.0, 3.0))


_LINEAR_RE = re.compile(r"^linear\(\s*([^,\s]+)\s*,\s*([^,\s]+)\s*,\s*([^,\s)]+)\s*\)$")
_FINITE_RE = re.compile(r"^finite_poset\((.+)\)$")


def builtin(name: str) -> ProblemInstance:
    """Resolve a problem by registry name. Unknown names raise InputError
    listing the registered forms."""
    name = name.strip()
    if name == "samet_example":
        return _samet_example()
    m = _LINEAR_RE.match(name)
    if m:
        try:
            a, b, c = (float(g) for g in m.groups())
        except ValueError as exc:
            raise InputError(f"could not parse linear(a,b,c) numbers in {name!r}: {exc}")
        return make_linear(a, b, c)
    m = _FINITE_RE.match(name)
    if m:
        return load_finite(m.group(1).strip())
    raise InputError(
        f"unknown problem {name!r}; registered forms: {', '.join(REGISTRY_FORMS)}"
    )


def resolve_problem(name_or_path: str) -> ProblemInstance:
    """CLI-facing resolution: a registry name, or a path to a finite-problem
    JSON file."""
    try:
        return builtin(name_or_path)
    except InputError:
        if name_or_path.endswith(".json"):
            return load_finite(name_or_path)
        raise


def _schema_require(cond, message, location):
    if not cond:
        raise SchemaError(message, location)


def _is_index(v, n):
    # JSON true/false load as bool, a subclass of int; they are not indices
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n


def _element_index(n, v):
    if not _is_index(v, n):
        raise ValueError(f"expected an element index in [0, {n})")
    return v


def load_finite(path: str) -> ProblemInstance:
    """Load a fully tabulated finite problem (see the module docstring for the
    schema). Structural validation only; metric and order axioms are the
    audit's job. The distance and leq matrices go unconverted to
    finite_space, which validates them; its InputError, like a malformed F
    table, becomes a SchemaError with the file path. This loader keeps only
    the schema's own rules: string labels, nonnegative distances, F entries
    that are element indices, and the start and expected pairs."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read problem file {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}", path)

    _schema_require(isinstance(doc, dict), "top level must be an object", path)
    _schema_require("schema_version" in doc, "missing required field 'schema_version'", path)
    _schema_require(type(doc["schema_version"]) is int and doc["schema_version"] == 1,
                    f"unsupported schema_version {doc['schema_version']!r}", path)
    for key in ("elements", "distance", "leq", "F"):
        _schema_require(key in doc, f"missing required field '{key}'", path)

    elements = doc["elements"]
    _schema_require(isinstance(elements, list) and elements, "'elements' must be a nonempty list", f"{path}:elements")
    _schema_require(all(isinstance(e, str) for e in elements), "elements must be strings", f"{path}:elements")
    _schema_require(len(set(elements)) == len(elements), "elements must be distinct", f"{path}:elements")
    n = len(elements)

    try:
        space = finite_space(elements, doc["distance"], doc["leq"],
                             description=doc.get("description", f"finite space ({path})"))
        ftab = square_matrix(doc["F"], n, partial(_element_index, n), "F")
    except InputError as exc:
        raise SchemaError(str(exc), path) from None
    if min(d.numerator for d in space.finite.distances) < 0:
        dist = space.finite.dist
        i, j = next((i, j) for i, row in enumerate(dist) for j, d in enumerate(row) if d < 0)
        raise SchemaError(f"distance[{i}][{j}]: must be nonnegative, got {dist[i][j]}", path)
    index = space.finite.index

    def apply(x, y):
        try:
            return elements[ftab[index[x]][index[y]]]
        except (KeyError, TypeError):  # not an element, or not even hashable
            _require_members(space, x, y)
            raise

    apply.table = ftab  # read by the finite checks instead of tabulating apply again
    op = CoupledOperator(apply=apply, space=space,
                         description=f"tabulated F ({path})")

    def pair_from(key):
        if key not in doc:
            return None
        val = doc[key]
        _schema_require(isinstance(val, list) and len(val) == 2
                        and all(_is_index(i, n) for i in val),
                        f"'{key}' must be a pair of element indices", f"{path}:{key}")
        return PairPoint(elements[val[0]], elements[val[1]])

    start = pair_from("start") or PairPoint(elements[0], elements[0])
    expected = pair_from("expected")
    return ProblemInstance(
        name=f"finite_poset({path})",
        space=space,
        operator=op,
        default_start=start,
        expected_fixed_point=expected,
    )


def sample_admissible_starts(problem: ProblemInstance, count: int, seed: int = 0,
                             max_draws: int = 200_000) -> list:
    """Deterministically rejection-sample starting pairs that pass
    check_start. Returns at most count pairs (possibly fewer when the
    admissible region is thin).

    The candidates are consecutive pairs of one sampler stream of up to
    2 * max_draws points. The stream is requested in prefixes of growing
    length and only the pairs new to each prefix are tested, so the search
    stops soon after count starts are found. This relies on the sampler being
    prefix-stable (sampler(m, s) is the first m points of sampler(M, s) for
    m < M), as the real-line and finite samplers are.
    """
    if count < 1:
        raise InputError("count must be positive")
    op = problem.operator
    found = []
    tested = 0
    size = 128
    while True:
        size = min(size, 2 * max_draws)
        pool = problem.space.sampler(size, _sampler_seed(seed, "starts"))
        for t in range(tested, len(pool) // 2):
            Z = PairPoint(pool[2 * t], pool[2 * t + 1])
            if check_start(op, Z).admissible:
                found.append(Z)
                if len(found) == count:
                    return found
        tested = len(pool) // 2
        if size == 2 * max_draws or len(pool) < size:
            return found
        size *= 4
