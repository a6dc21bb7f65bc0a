"""Coupled operators F: X x X -> X and the induced pair map T(x, y) = (F(x,y), F(y,x)).

A coupled fixed point of F is exactly a fixed point of T, so the solver works
through product_T; the condition checkers measure T's images through the
definitions below instead. Operators are plain callables plus metadata.

Each sampled condition is written once, here, as a _Condition in
_CONDITIONS: the parameters it binds, which comparable quadruples it counts,
its test (_banach_holds, the band test around _banded_conclusion,
_strict_holds, and _monotone_holds, F(u, v) <= F(x, y): T is monotone in the
product order) and the names of its two measured values. The sweeps in
``kernels``, the checkers in ``conditions`` and reverify_witness all read
it. The tests work on floats, exact Fractions and numpy arrays without
importing numpy, and return the *holds* comparison (False on NaN), which
scalar callers negate with ``not`` and the sweeps with ``~``. The exhaustive
finite lane compares the same quantities as integers on index tables and
measures only its witness through the definition, in Fractions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Any, Callable, NamedTuple, Optional

from . import kernels
from .errors import DomainMismatchError, InputError
from .reports import ConditionReport, Witness
from .spaces import (FLOAT_SLACK, INCOMPARABLE, PairPoint, SpaceModel, _half_sum, _line_leq, maps_arrays,
                     usual_real_order)

MIN_COMPARABLE = 10
DELTA_CAP_FACTOR = 10.0  # the delta curve's cap, and the drawn width of an infinite band


@dataclass
class CoupledOperator:
    """The map F together with its space and optional metadata.

    lipschitz_data = (la, lb) declares the coordinatewise bound
    d(F(x,y), F(u,v)) <= la*d(x,u) + lb*d(y,v) for comparable arguments;
    it is metadata, checked empirically by audit_lipschitz.

    vectorized = True declares that apply maps float64 arrays elementwise to
    the values it gives on floats (numpy ufuncs such as np.tanh, not math
    functions), so the sweep kernels can run it on the real line.
    """

    apply: Callable[[Any, Any], Any]
    space: SpaceModel
    lipschitz_data: Optional[tuple] = None
    description: str = ""
    vectorized: bool = False


def evaluation_lane(op: CoupledOperator) -> str:
    """How the checkers should evaluate this operator.

    "kernel"  -> numpy arrays: the sweep kernels (a vectorized operator on a
                 space with the real line's own order, spaces.usual_real_order)
    "finite"  -> exhaustive enumeration on the space's integer tables
    "generic" -> sampled evaluation through the Python callables

    The kernel lane loads numpy; a distance that does not map arrays there is
    an InputError.
    """
    space = op.space
    if op.vectorized and usual_real_order(space):
        if not maps_arrays(space.distance):
            raise InputError(f"the distance of {space.description or 'the space'} does not map "
                             "float64 arrays, which a vectorized operator on the real line "
                             "needs; give one that does, or set vectorized=False")
        return "kernel"
    if space.finite is not None:
        return "finite"
    return "generic"


def product_T(op: CoupledOperator, Z: PairPoint) -> PairPoint:
    """Apply the induced pair map: (x, y) -> (F(x,y), F(y,x))."""
    return PairPoint(op.apply(Z.first, Z.second), op.apply(Z.second, Z.first))


def _sampled_quadruples(space, samples, seed):
    """Rejection draws of comparable quadruples (x >= u, y <= v): (draws, an
    iterator of (t, x, y, u, v, d(x,u), d(y,v)) for every draw t whose two
    point pairs are comparable). Draw t orients pool points 4t..4t+3 in place,
    asking leq(a, b), then leq(b, a), of each pair (a, b)."""
    pool = space.sampler(4 * samples, seed)
    draws = len(pool) // 4

    def quadruples():
        distance, leq = space.distance, space.leq
        it = iter(pool)
        for t, a, b, c, e in zip(range(draws), it, it, it, it):
            if leq(a, b) is True:
                u, x = a, b
            elif leq(b, a) is True:
                u, x = b, a
            else:
                u = INCOMPARABLE  # the second pair is oriented all the same
            if leq(c, e) is True:
                y, v = c, e
            elif leq(e, c) is True:
                y, v = e, c
            else:
                continue
            if u is not INCOMPARABLE:
                yield t, x, y, u, v, distance(x, u), distance(y, v)

    return draws, quadruples()


def _argument_quadruples(space, samples, seed):
    """check_mixed_monotone's trials on the space's sampler: (draws, an
    iterator shaped like _sampled_quadruples', with None for the distances,
    which the test does not read). Trial t takes pool points 3t..3t+2 as
    (a, b, w), orders a and b as lo <= hi and is the quadruple (hi, w, lo, w)
    on even t, (w, lo, w, hi) on odd t; it is dropped unless a and b are
    comparable and w <= w."""
    pool = space.sampler(3 * samples, seed)
    if len(pool) < 3:
        raise InputError("sampler returned too few points")
    draws = len(pool) // 3

    def quadruples():
        leq = space.leq
        it = iter(pool)
        for t, a, b, w in zip(range(draws), it, it, it):
            if leq(a, b) is True:
                lo, hi = a, b
            elif leq(b, a) is True:
                lo, hi = b, a
            else:
                continue
            if leq(w, w) is True:
                yield (t, hi, w, lo, w, None, None) if t % 2 == 0 else (t, w, lo, w, hi, None, None)

    return draws, quadruples()


def _too_few(count, draws, what):
    """Inconclusive note of a sampled check with fewer than MIN_COMPARABLE
    usable draws; empty when there are enough."""
    return f"only {count} {what} among {draws} draws" if count < MIN_COMPARABLE else ""


def _with_slack(space, bound, direction=1):
    """bound moved by the rounding slack, FLOAT_SLACK * max(1, bound), in the
    direction (+1 or -1) that excuses rounding; exact spaces get it unchanged.
    max(1, bound) is spelled as a bool product so that arrays take it too."""
    if space.exact:
        return bound
    return bound + direction * FLOAT_SLACK * ((bound > 1.0) * bound + (bound <= 1.0))


def _half_k(space, k):
    """k/2 in the space's arithmetic, computed once per check, not per quadruple."""
    return Fraction(k) / 2 if space.exact else 0.5 * k


def _banach_holds(op, p, x, y, u, v, dxu, dyv, half, lazy):
    """banach_k, p = (_half_k(space, k),), over every quadruple:
    (True, lhs, rhs, holds)."""
    space = op.space
    lhs = space.distance(op.apply(x, y), op.apply(u, v))
    rhs = p[0] * (dxu + dyv)
    return True, lhs, rhs, lhs <= _with_slack(space, rhs)


def _banded_conclusion(op, x, y, u, v, symmetric):
    """Conclusion quantity of the banded conditions, which holds below
    _with_slack(space, eps). In the symmetric case it equals d2 of the
    pair-map images, T(x, y) and T(u, v), bit for bit (same operations in the
    same order); the tests pin that identity."""
    space = op.space
    d1 = space.distance(op.apply(x, y), op.apply(u, v))
    if not symmetric:
        return d1
    return _half_sum(space, d1 + space.distance(op.apply(y, x), op.apply(v, u)))


def _strict_holds(op, p, x, y, u, v, dxu, dyv, before, lazy):
    """strict_contraction, over the quadruples with d2 before = the half-sum
    > 0 and finite: (distinct, before, after, holds); after is the symmetric
    conclusion, d2 of the pair-map images without a membership test. An
    infinite before bounds nothing (its slackened value is NaN): not counted."""
    distinct = (before > 0) & (before < math.inf)
    if lazy and not distinct:
        return distinct, before, None, True
    after = _banded_conclusion(op, x, y, u, v, True)
    return distinct, before, after, after < _with_slack(op.space, before, -1)


def _monotone_holds(op, p, x, y, u, v, dxu, dyv, half, lazy):
    """mixed_monotone, over every quadruple: (True, F(u, v), F(x, y), holds),
    compared with <= when the space has real_line()'s own leq, which is <=
    and which usual_real_order requires of arrays, and through leq elsewhere."""
    leq = op.space.leq
    low, high = op.apply(u, v), op.apply(x, y)
    return True, low, high, low <= high if leq is _line_leq else leq(low, high) is True


def _band_bounds(space, eps, delta):
    """The band's parameters: eps, eps + delta, the slackened eps that the
    conclusion must stay below, and the width of the half-sums the band
    draws aim at, from eps: delta, or for the band [eps, inf) of an infinite
    delta the curve's cap DELTA_CAP_FACTOR * eps, since an infinite width
    draws only inf and NaN half-sums; past eps of about 1.8e307 the cap
    overflows, so the width stops at the largest float less eps."""
    width = delta if delta < math.inf else min(DELTA_CAP_FACTOR * eps, sys.float_info.max - eps)
    return eps, eps + delta, _with_slack(space, eps), width


class _Condition(NamedTuple):
    """A sampled contractive condition, as every lane and reverify_witness
    read it. bind(space, *args) makes the check's parameters, named by params,
    into the p its test takes. test(op, p, x, y, u, v, d(x,u), d(y,v), half,
    lazy) gives whether the condition counts the quadruple, the two measured
    values named by fields, and holds (False on NaN); half is the half-sum
    when halves is set. A lazy test returns an uncounted scalar quadruple
    before F is evaluated, with None for what F gives. keys orders the
    witness's measured dict; flag names the counted flag in reverify_witness.
    """

    fields: tuple
    params: tuple
    keys: tuple
    bind: Callable
    halves: bool
    test: Callable
    flag: Optional[str] = None


def _banded(symmetric):
    def test(op, p, x, y, u, v, dxu, dyv, half, lazy):
        # over the quadruples with half-sum in [eps, eps + delta)
        in_band = (half >= p[0]) & (half < p[1])
        if lazy and not in_band:
            return in_band, half, None, True
        lhs = _banded_conclusion(op, x, y, u, v, symmetric)
        return in_band, half, lhs, lhs < p[2]

    return _Condition(("half_sum", "lhs"), ("eps", "delta"), ("eps", "delta", "half_sum", "lhs"),
                      _band_bounds, True, test, "in_band")


_CONDITIONS = {
    "banach_k": _Condition(("lhs", "rhs"), ("k",), ("lhs", "rhs", "k"),
                           lambda space, k: (_half_k(space, k),), False, _banach_holds),
    "samet_mk": _banded(False),
    "symmetric_mk": _banded(True),
    "strict_contraction": _Condition(("d2_before", "d2_after"), (), ("d2_before", "d2_after"),
                                     lambda space: (), True, _strict_holds),
    "mixed_monotone": _Condition(("f_of_u_v", "f_of_x_y"), (), ("f_of_u_v", "f_of_x_y"),
                                 lambda space: (), False, _monotone_holds),
}


def _measure(op, cond, p, x, y, u, v):
    """cond's test on a quadruple of scalars or of arrays: (counted, first
    measured value, second, holds)."""
    space = op.space
    dxu, dyv = space.distance(x, u), space.distance(y, v)
    half = _half_sum(space, dxu + dyv) if cond.halves else None
    return cond.test(op, p, x, y, u, v, dxu, dyv, half, False)


def check_mixed_monotone(op: CoupledOperator, samples: int = 10000, seed: int = 0) -> ConditionReport:
    """Sample the two monotonicity clauses: F nondecreasing in its first
    argument and nonincreasing in its second, over comparable argument pairs.

    Trial t tests F(u, v) <= F(x, y) on the first clause's quadruple on even
    t, the second's on odd t (_argument_quadruples; on the kernel lane
    kernels.monotone_sweep), and a witness's kind names its clause. Fewer
    than MIN_COMPARABLE comparable trials yield an inconclusive verdict
    rather than a vacuous pass. Finite spaces are enumerated exhaustively.
    """
    if samples < 2:
        raise InputError("check_mixed_monotone requires samples >= 2")
    from . import conditions

    lane = evaluation_lane(op)
    if lane == "finite":
        return conditions._FiniteTables(op).mixed_monotone()
    return conditions._sampled_check(op, lane, "mixed_monotone", samples, seed)


def _finite_table(op: CoupledOperator) -> list:
    """F on a finite space as an n x n table of element indices:
    op.apply.table when apply carries one (load_finite's tabulated F does),
    else from n**2 op.apply calls; table[i][j] is the index of
    F(elements[i], elements[j]). An image outside the space raises
    DomainMismatchError naming its (x, y). Callers do not modify the table."""
    table = getattr(op.apply, "table", None)
    if table is not None:
        return table
    space = op.space
    els, index = space.finite.elements, space.finite.index
    images = [list(map(op.apply, repeat(x), els)) for x in els]
    try:
        return [list(map(index.__getitem__, row)) for row in images]
    except (KeyError, TypeError):  # not an element, or not even hashable
        pass
    for x, row in zip(els, images):
        for y, z in zip(els, row):
            try:
                index[z]
            except (KeyError, TypeError):
                raise DomainMismatchError(f"F({x!r}, {y!r}) = {z!r} is not an element of "
                                          f"{space.description or 'the space'}") from None


def audit_lipschitz(op: CoupledOperator, samples: int = 2000, seed: int = 0):
    """Empirically check the declared lipschitz_data bound on comparable
    quadruples, each against its bound moved by _with_slack. Returns
    (ok, worst_excess, witness_or_None): the witness is the violating
    quadruple with the largest excess; a NaN excess is the worst there is, so
    it stops the search and fails the audit.
    """
    if op.lipschitz_data is None:
        raise InputError("operator declares no lipschitz_data")
    la, lb = op.lipschitz_data
    space = op.space
    _, quadruples = _sampled_quadruples(space, samples, kernels._sampler_seed(seed, "lipschitz"))
    worst = 0.0
    worst_violation = -math.inf
    witness = None
    for _, x, y, u, v, dxu, dyv in quadruples:
        lhs = space.distance(op.apply(x, y), op.apply(u, v))
        rhs = la * dxu + lb * dyv
        gap = lhs - rhs
        if not gap <= worst:
            worst = gap
        if not gap <= worst_violation and not lhs <= _with_slack(space, rhs):
            worst_violation = gap
            witness = Witness(x=x, y=y, u=u, v=v, measured={"lhs": lhs, "rhs": rhs})
            if math.isnan(gap):
                break
    return witness is None, worst, witness
