"""Coupled operators F: X x X -> X and the induced pair map T(x, y) = (F(x,y), F(y,x)).

A coupled fixed point of F is exactly a fixed point of T, so the solver and
the condition checkers mostly work through product_T. Operators are plain
callables plus metadata; ``linear_coeffs`` tags the built-in family
F(x, y) = (a*x - b*y)/c on the real line, which the vectorized sweep kernels
can evaluate without Python callbacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from .errors import InputError
from .reports import (
    VERDICT_FAILS,
    VERDICT_HOLDS,
    VERDICT_INCONCLUSIVE,
    HOLDS_NOTE,
    ConditionReport,
    Witness,
)
from .spaces import PairPoint, SpaceModel

MIN_COMPARABLE = 10


@dataclass
class CoupledOperator:
    """The map F together with its space and optional metadata.

    lipschitz_data = (la, lb) declares the coordinatewise bound
    d(F(x,y), F(u,v)) <= la*d(x,u) + lb*d(y,v) for comparable arguments;
    it is metadata, checked empirically by audit_lipschitz.
    """

    apply: Callable[[Any, Any], Any]
    space: SpaceModel
    lipschitz_data: Optional[tuple] = None
    description: str = ""
    linear_coeffs: Optional[tuple] = None  # (a, b, c) for (a*x - b*y)/c on the real line


def evaluation_lane(op: CoupledOperator) -> str:
    """How the checkers should evaluate this operator.

    "linear"  -> fused sweep kernels (built-in linear family on the real line)
    "finite"  -> exhaustive enumeration with exact rationals
    "generic" -> sampled evaluation through the Python callables
    """
    if op.linear_coeffs is not None and op.space.kind == "real_line":
        return "linear"
    if op.space.finite is not None:
        return "finite"
    return "generic"


def product_T(op: CoupledOperator, Z: PairPoint) -> PairPoint:
    """Apply the induced pair map: (x, y) -> (F(x,y), F(y,x))."""
    return PairPoint(op.apply(Z.first, Z.second), op.apply(Z.second, Z.first))


def _oriented(space, a, b):
    """Order a sampled pair so that the first element is <= the second.

    Returns None for incomparable draws; equal elements come back as-is.
    """
    v = space.leq(a, b)
    if v is True:
        return a, b
    if space.leq(b, a) is True:
        return b, a
    return None


def check_mixed_monotone(op: CoupledOperator, samples: int = 10000, seed: int = 0) -> ConditionReport:
    """Sample the two monotonicity clauses: F nondecreasing in its first
    argument and nonincreasing in its second, over comparable argument pairs.

    Incomparable draws are discarded (and counted); fewer than MIN_COMPARABLE
    surviving comparisons yields an inconclusive verdict rather than a
    vacuous pass. Finite spaces are enumerated exhaustively instead.
    """
    if samples < 2:
        raise InputError("check_mixed_monotone requires samples >= 2")
    space = op.space
    if space.finite is not None:
        return _mixed_monotone_finite(op)

    rng_seed = seed ^ 0x3A5C
    pool = space.sampler(3 * samples, rng_seed)
    if len(pool) < 3:
        raise InputError("sampler returned too few points")
    used = 0
    trials = len(pool) // 3
    for t in range(trials):
        a, b, w = pool[3 * t], pool[3 * t + 1], pool[3 * t + 2]
        pair = _oriented(space, a, b)
        if pair is None:
            continue
        lo, hi = pair
        if t % 2 == 0:
            # first-argument clause: x1 <= x2  =>  F(x1, y) <= F(x2, y)
            used += 1
            f_lo = op.apply(lo, w)
            f_hi = op.apply(hi, w)
            if space.leq(f_lo, f_hi) is not True:
                return ConditionReport(
                    condition_id="mixed_monotone",
                    verdict=VERDICT_FAILS,
                    witness=Witness(
                        x=hi, y=w, u=lo, v=w,
                        kind="first_argument",
                        measured={"f_of_u_y": f_lo, "f_of_x_y": f_hi},
                    ),
                    samples_used=t + 1,
                    comparable_pairs_used=used,
                    method="sampled",
                )
        else:
            # second-argument clause: y1 <= y2  =>  F(x, y1) >= F(x, y2)
            used += 1
            f_lo = op.apply(w, lo)
            f_hi = op.apply(w, hi)
            if space.leq(f_hi, f_lo) is not True:
                return ConditionReport(
                    condition_id="mixed_monotone",
                    verdict=VERDICT_FAILS,
                    witness=Witness(
                        x=w, y=lo, u=w, v=hi,
                        kind="second_argument",
                        measured={"f_of_x_y": f_lo, "f_of_x_v": f_hi},
                    ),
                    samples_used=t + 1,
                    comparable_pairs_used=used,
                    method="sampled",
                )
    if used < MIN_COMPARABLE:
        return ConditionReport(
            condition_id="mixed_monotone",
            verdict=VERDICT_INCONCLUSIVE,
            samples_used=trials,
            comparable_pairs_used=used,
            method="sampled",
            note=f"only {used} comparable argument pairs among {trials} draws",
        )
    return ConditionReport(
        condition_id="mixed_monotone",
        verdict=VERDICT_HOLDS,
        samples_used=trials,
        comparable_pairs_used=used,
        method="sampled",
        note=HOLDS_NOTE,
    )


def _mixed_monotone_finite(op: CoupledOperator) -> ConditionReport:
    fd = op.space.finite
    els = fd.elements
    n = len(els)
    leq = fd.leq
    space = op.space
    used = 0
    checked = 0
    for i in range(n):
        for j in range(n):
            if not leq[i][j]:
                continue
            lo, hi = els[i], els[j]
            for w in els:
                checked += 1
                used += 1
                f_lo = op.apply(lo, w)
                f_hi = op.apply(hi, w)
                if space.leq(f_lo, f_hi) is not True:
                    return ConditionReport(
                        condition_id="mixed_monotone",
                        verdict=VERDICT_FAILS,
                        witness=Witness(
                            x=hi, y=w, u=lo, v=w,
                            kind="first_argument",
                            measured={"f_of_u_y": f_lo, "f_of_x_y": f_hi},
                        ),
                        samples_used=checked,
                        comparable_pairs_used=used,
                        method="exhaustive",
                    )
                g_lo = op.apply(w, lo)
                g_hi = op.apply(w, hi)
                if space.leq(g_hi, g_lo) is not True:
                    return ConditionReport(
                        condition_id="mixed_monotone",
                        verdict=VERDICT_FAILS,
                        witness=Witness(
                            x=w, y=lo, u=w, v=hi,
                            kind="second_argument",
                            measured={"f_of_x_y": g_lo, "f_of_x_v": g_hi},
                        ),
                        samples_used=checked,
                        comparable_pairs_used=used,
                        method="exhaustive",
                    )
    # reflexive pairs alone still decide the clauses on a finite space, so an
    # exhaustive scan is conclusive even on an antichain
    return ConditionReport(
        condition_id="mixed_monotone",
        verdict=VERDICT_HOLDS,
        samples_used=checked,
        comparable_pairs_used=used,
        method="exhaustive",
        note="exhaustive over all comparable argument pairs",
    )


def audit_lipschitz(op: CoupledOperator, samples: int = 2000, seed: int = 0,
                    slack: float = 1e-12):
    """Empirically check the declared lipschitz_data bound on comparable
    quadruples. Returns (ok, worst_excess, witness_or_None).
    """
    if op.lipschitz_data is None:
        raise InputError("operator declares no lipschitz_data")
    la, lb = op.lipschitz_data
    space = op.space
    pool = space.sampler(4 * samples, seed ^ 0x11B5)
    worst = 0.0
    witness = None
    for t in range(len(pool) // 4):
        px = _oriented(space, pool[4 * t], pool[4 * t + 1])
        py = _oriented(space, pool[4 * t + 2], pool[4 * t + 3])
        if px is None or py is None:
            continue
        u, x = px
        y, v = py
        lhs = space.distance(op.apply(x, y), op.apply(u, v))
        rhs = la * space.distance(x, u) + lb * space.distance(y, v)
        gap = lhs - rhs
        if gap > worst:
            worst = gap
            witness = Witness(x=x, y=y, u=u, v=v, measured={"lhs": lhs, "rhs": rhs})
    m = 1.0
    ok = worst <= slack * m
    return ok, worst, (None if ok else witness)
