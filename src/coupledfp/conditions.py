"""Contractive-condition checkers and the delta(eps) curve estimator.

Three regimes are classified, from strongest to weakest:

  banach_k       d(F(x,y), F(u,v)) <= (k/2) [d(x,u) + d(y,v)]
  samet_mk       eps <= half-sum < eps + delta(eps)  =>  d(F(x,y), F(u,v)) < eps
  symmetric_mk   same band  =>  (d(F(x,y),F(u,v)) + d(F(y,x),F(v,u))) / 2 < eps

all quantified over comparable quadruples (x >= u, y <= v). banach_k with
constant k implies samet_mk with delta(eps) = (1/k - 1) eps, which implies
symmetric_mk with the same delta; checkers on the same sample budget must
never contradict that chain.

Every checker is a falsifier: "fails" comes with a reproducible witness,
"holds_on_samples" is evidence, never a proof. Band searches construct
quadruples whose half-sum lands inside [eps, eps + delta) directly (bands are
thin, rejection sampling would starve), and an adversarial coordinate-
degenerate phase (x == u, then y == v) always runs before the random phase.

Evaluation lanes: built-in linear operators on the real line go through the
numpy sweep kernels; finite tabulated spaces are
enumerated exhaustively in exact rational arithmetic with zero tolerance;
everything else is sampled through the Python callables with a relative
floating-point slack of 1e-12 so rounding cannot mint a false witness.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import kernels
from .errors import InputError
from .operators import CoupledOperator, evaluation_lane, product_T, _oriented
from .reports import (
    VERDICT_FAILS,
    VERDICT_HOLDS,
    VERDICT_INCONCLUSIVE,
    HOLDS_NOTE,
    ConditionReport,
    Witness,
)
from .spaces import PairPoint, d2

FLOAT_SLACK = 1e-12
MIN_COMPARABLE = 10
DEFAULT_SCALE = 10.0

_BASE_BANACH = 1
_BASE_STRICT = 2
_BASE_SAMET = 3
_BASE_SYMMETRIC = 4
_BASE_CURVE = 5


def _tag(base, eps_idx=0, mode=0, probe=0):
    return ((base & 0xFF) << 56) ^ ((probe & 0xFFFFFF) << 32) ^ ((eps_idx & 0xFFFF) << 8) ^ (mode & 0xFF)


def _scale(op):
    r = op.space.sample_radius
    return float(r) if r else DEFAULT_SCALE


def _validate_eps_grid(eps_grid):
    grid = list(eps_grid)
    if not grid:
        raise InputError("eps grid must not be empty")
    for e in grid:
        if not e > 0:
            raise InputError(f"eps values must be positive, got {e!r}")
    return grid


def delta_from_k(k, eps):
    """The delta(eps) induced by a Banach constant: (1/k - 1) * eps.

    k == 0 means every delta works; by convention the result is +inf then.
    """
    if k < 0 or k >= 1:
        raise InputError("k must lie in [0, 1)")
    if not eps > 0:
        raise InputError("eps must be positive")
    if k == 0:
        return math.inf
    return (1.0 / k - 1.0) * eps


def _phase_plan(samples):
    # adversarial degenerate slices first, bulk random directions afterwards
    n_adv = max(1, samples // 10)
    n_rand = max(0, samples - 2 * n_adv)
    return [(1, n_adv, "x_equals_u"), (2, n_adv, "y_equals_v"), (0, n_rand, "random")]


# ---------------------------------------------------------------------------
# banach_k
# ---------------------------------------------------------------------------

def check_banach_k(op: CoupledOperator, k, samples: int = 10000, seed: int = 0) -> ConditionReport:
    """Test the constant-k contraction on sampled comparable quadruples."""
    if k < 0 or k >= 1:
        raise InputError("k must lie in [0, 1)")
    if samples < 1:
        raise InputError("samples must be positive")
    lane = evaluation_lane(op)
    if lane == "linear":
        a, b, c = op.linear_coeffs
        found, checked, x, y, u, v, lhs, rhs = kernels.banach_sweep(
            a, b, c, float(k), samples, seed, _tag(_BASE_BANACH), _scale(op), FLOAT_SLACK
        )
        if found:
            return ConditionReport(
                condition_id="banach_k",
                verdict=VERDICT_FAILS,
                witness=Witness(x=x, y=y, u=u, v=v, kind="random",
                                measured={"lhs": lhs, "rhs": rhs, "k": float(k)}),
                samples_used=checked,
                comparable_pairs_used=checked,
                params={"k": float(k)},
                method="targeted-sampling",
            )
        return ConditionReport(
            condition_id="banach_k",
            verdict=VERDICT_HOLDS,
            samples_used=samples,
            comparable_pairs_used=checked,
            params={"k": float(k)},
            method="targeted-sampling",
            note=HOLDS_NOTE,
        )
    if lane == "finite":
        return _banach_finite(op, k)
    return _banach_generic(op, k, samples, seed)


def _banach_finite(op, k) -> ConditionReport:
    fd = op.space.finite
    els, dist, leq = fd.elements, fd.dist, fd.leq
    n = len(els)
    kf = Fraction(k)
    checked = 0
    for ix in range(n):
        for iu in range(n):
            if not leq[iu][ix]:  # need u <= x
                continue
            for iy in range(n):
                for iv in range(n):
                    if not leq[iy][iv]:  # need y <= v
                        continue
                    checked += 1
                    x, y, u, v = els[ix], els[iy], els[iu], els[iv]
                    lhs = op.space.distance(op.apply(x, y), op.apply(u, v))
                    rhs = kf * (dist[ix][iu] + dist[iy][iv]) / 2
                    if lhs > rhs:
                        return ConditionReport(
                            condition_id="banach_k",
                            verdict=VERDICT_FAILS,
                            witness=Witness(x=x, y=y, u=u, v=v, kind="exhaustive",
                                            measured={"lhs": lhs, "rhs": rhs, "k": kf}),
                            samples_used=checked,
                            comparable_pairs_used=checked,
                            params={"k": k},
                            method="exhaustive",
                        )
    return ConditionReport(
        condition_id="banach_k",
        verdict=VERDICT_HOLDS,
        samples_used=checked,
        comparable_pairs_used=checked,
        params={"k": k},
        method="exhaustive",
        note="exhaustive over all ordered quadruples",
    )


def _banach_generic(op, k, samples, seed) -> ConditionReport:
    space = op.space
    slack = 0.0 if space.exact else FLOAT_SLACK
    pool = space.sampler(4 * samples, seed ^ 0xB44A)
    checked = 0
    trials = len(pool) // 4
    for t in range(trials):
        px = _oriented(space, pool[4 * t], pool[4 * t + 1])
        py = _oriented(space, pool[4 * t + 2], pool[4 * t + 3])
        if px is None or py is None:
            continue
        u, x = px
        y, v = py
        checked += 1
        lhs = space.distance(op.apply(x, y), op.apply(u, v))
        dxu = space.distance(x, u)
        dyv = space.distance(y, v)
        if space.exact:
            rhs = Fraction(k) * (dxu + dyv) / 2
            violated = lhs > rhs
        else:
            rhs = 0.5 * k * (dxu + dyv)
            m = rhs if rhs > 1.0 else 1.0
            violated = lhs > rhs + slack * m
        if violated:
            return ConditionReport(
                condition_id="banach_k",
                verdict=VERDICT_FAILS,
                witness=Witness(x=x, y=y, u=u, v=v, kind="random",
                                measured={"lhs": lhs, "rhs": rhs, "k": k}),
                samples_used=t + 1,
                comparable_pairs_used=checked,
                params={"k": k},
                method="rejection-sampling",
            )
    if checked < MIN_COMPARABLE:
        return ConditionReport(
            condition_id="banach_k",
            verdict=VERDICT_INCONCLUSIVE,
            samples_used=trials,
            comparable_pairs_used=checked,
            params={"k": k},
            method="rejection-sampling",
            note=f"only {checked} comparable quadruples among {trials} draws",
        )
    return ConditionReport(
        condition_id="banach_k",
        verdict=VERDICT_HOLDS,
        samples_used=trials,
        comparable_pairs_used=checked,
        params={"k": k},
        method="rejection-sampling",
        note=HOLDS_NOTE,
    )


# ---------------------------------------------------------------------------
# banded Meir-Keeler checks (samet_mk / symmetric_mk)
# ---------------------------------------------------------------------------

def check_samet(op: CoupledOperator, eps_grid, delta_candidates,
                samples: int = 10000, seed: int = 0) -> ConditionReport:
    """Asymmetric banded check: band membership must force
    d(F(x,y), F(u,v)) < eps. samples is the per-eps draw budget."""
    return _check_banded(op, eps_grid, delta_candidates, samples, seed,
                         symmetric=False)


def check_symmetric_mk(op: CoupledOperator, eps_grid, delta_candidates,
                       samples: int = 10000, seed: int = 0) -> ConditionReport:
    """Symmetric banded check: the conclusion averages the two image
    distances, equivalently bounds the product-space distance of the pair
    map images. samples is the per-eps draw budget."""
    return _check_banded(op, eps_grid, delta_candidates, samples, seed,
                         symmetric=True)


def _banded_conclusion(op, x, y, u, v, symmetric):
    """Conclusion quantity through the coordinate formula. In the symmetric
    case it equals d2 of the pair-map images, T(x, y) and T(u, v), bit for bit
    (same operations in the same order); the tests pin that identity."""
    space = op.space
    d1 = space.distance(op.apply(x, y), op.apply(u, v))
    if not symmetric:
        return d1
    return (d1 + space.distance(op.apply(y, x), op.apply(v, u))) / 2


def _check_banded(op, eps_grid, delta_candidates, samples, seed, symmetric) -> ConditionReport:
    grid = _validate_eps_grid(eps_grid)
    if samples < 1:
        raise InputError("samples must be positive")
    cid = "symmetric_mk" if symmetric else "samet_mk"
    base = _BASE_SYMMETRIC if symmetric else _BASE_SAMET
    lane = evaluation_lane(op)
    eps_delta = []
    band_hits = []
    samples_used = 0
    hits_total = 0

    for e_idx, eps in enumerate(grid):
        delta = delta_candidates(eps)
        if not delta > 0:
            raise InputError(f"delta candidate for eps={eps} must be positive, got {delta!r}")
        eps_delta.append((eps, delta))
        if lane == "finite":
            hits, witness = _finite_band_check(op, eps, delta, symmetric)
            samples_used += hits
        elif lane == "linear":
            hits, witness, used = _linear_band_check(op, eps, delta, samples, seed,
                                                     base, e_idx, symmetric, probe=0)
            samples_used += used
        else:
            hits, witness, used = _generic_band_check(op, eps, delta, samples, seed,
                                                      base, e_idx, symmetric)
            samples_used += used
        band_hits.append((eps, hits))
        hits_total += hits
        if witness is not None:
            return ConditionReport(
                condition_id=cid,
                verdict=VERDICT_FAILS,
                witness=witness,
                epsilon_grid=eps_delta,
                samples_used=samples_used,
                comparable_pairs_used=hits_total,
                band_hits=band_hits,
                method="exhaustive" if lane == "finite" else "targeted-sampling",
            )
    if hits_total == 0:
        return ConditionReport(
            condition_id=cid,
            verdict=VERDICT_INCONCLUSIVE,
            epsilon_grid=eps_delta,
            samples_used=samples_used,
            comparable_pairs_used=0,
            band_hits=band_hits,
            method="exhaustive" if lane == "finite" else "targeted-sampling",
            note="no sampled quadruple landed in any band",
        )
    return ConditionReport(
        condition_id=cid,
        verdict=VERDICT_HOLDS,
        epsilon_grid=eps_delta,
        samples_used=samples_used,
        comparable_pairs_used=hits_total,
        band_hits=band_hits,
        method="exhaustive" if lane == "finite" else "targeted-sampling",
        note=HOLDS_NOTE,
    )


def _linear_band_check(op, eps, delta, samples, seed, base, e_idx, symmetric, probe):
    a, b, c = op.linear_coeffs
    scale = _scale(op)
    hits = 0
    used = 0
    for mode, count, kind in _phase_plan(samples):
        if count == 0:
            continue
        used += count
        found, phase_hits, x, y, u, v, half, lhs = kernels.band_sweep(
            a, b, c, float(eps), float(delta), count, seed,
            _tag(base, e_idx, mode, probe), scale, mode, 1 if symmetric else 0,
            FLOAT_SLACK,
        )
        hits += phase_hits
        if found:
            w = Witness(x=x, y=y, u=u, v=v, kind=kind,
                        measured={"eps": float(eps), "delta": float(delta),
                                  "half_sum": half, "lhs": lhs})
            return hits, w, used
    return hits, None, used


def _finite_band_check(op, eps, delta, symmetric):
    fd = op.space.finite
    els, dist, leq = fd.elements, fd.dist, fd.leq
    n = len(els)
    eps_f = eps if isinstance(eps, Fraction) else Fraction(eps)
    delta_f = delta if isinstance(delta, Fraction) else Fraction(delta)
    hi = eps_f + delta_f
    hits = 0
    for ix in range(n):
        for iu in range(n):
            if not leq[iu][ix]:
                continue
            dxu = dist[ix][iu]
            for iy in range(n):
                for iv in range(n):
                    if not leq[iy][iv]:
                        continue
                    half = (dxu + dist[iy][iv]) / 2
                    if not (eps_f <= half < hi):
                        continue
                    hits += 1
                    x, y, u, v = els[ix], els[iy], els[iu], els[iv]
                    lhs = _banded_conclusion(op, x, y, u, v, symmetric)
                    if lhs >= eps_f:
                        w = Witness(x=x, y=y, u=u, v=v, kind="exhaustive",
                                    measured={"eps": eps_f, "delta": delta_f,
                                              "half_sum": half, "lhs": lhs})
                        return hits, w
    return hits, None


def _generic_band_check(op, eps, delta, samples, seed, base, e_idx, symmetric, probe=0):
    """Targeted band construction through the space's interpolate hook, or
    plain rejection when the space has none."""
    space = op.space
    slack = 0.0 if space.exact else FLOAT_SLACK
    thresh = eps if space.exact else eps + FLOAT_SLACK * (eps if eps > 1.0 else 1.0)
    hi = eps + delta
    hits = 0
    used = 0

    if space.interpolate is None:
        rng_seed = kernels.stream_seed(seed, _tag(base, e_idx, 0, probe))
        pool = space.sampler(4 * samples, rng_seed & 0x7FFFFFFF)
        used = len(pool) // 4
        for t in range(used):
            px = _oriented(space, pool[4 * t], pool[4 * t + 1])
            py = _oriented(space, pool[4 * t + 2], pool[4 * t + 3])
            if px is None or py is None:
                continue
            u, x = px
            y, v = py
            half = (space.distance(x, u) + space.distance(y, v)) / 2
            if not (eps <= half < hi):
                continue
            hits += 1
            lhs = _banded_conclusion(op, x, y, u, v, symmetric)
            if not lhs < thresh:
                w = Witness(x=x, y=y, u=u, v=v, kind="rejection",
                            measured={"eps": eps, "delta": delta,
                                      "half_sum": half, "lhs": lhs})
                return hits, w, used
        return hits, None, used

    interp = space.interpolate
    for mode, count, kind in _phase_plan(samples):
        if count == 0:
            continue
        rng = random.Random(kernels.stream_seed(seed, _tag(base, e_idx, mode, probe)))
        pool = space.sampler(4 * count, rng.getrandbits(31))
        trials = len(pool) // 4
        used += trials
        for t in range(trials):
            h = eps + rng.random() * delta
            px = _oriented(space, pool[4 * t], pool[4 * t + 1])
            py = _oriented(space, pool[4 * t + 2], pool[4 * t + 3])
            if px is None or py is None:
                continue
            u0, x = px
            y0, v0 = py
            if mode == 1:
                tp, tq = 0.0, 2.0 * h
            elif mode == 2:
                tp, tq = 2.0 * h, 0.0
            else:
                s = rng.random()
                tp = 2.0 * h * s
                tq = 2.0 * h - tp
            # rescale each comparable leg so the half-sum hits the band;
            # relies on interpolate being metrically linear and order
            # preserving for t >= 0
            if tp == 0.0:
                u = x
            else:
                d0 = space.distance(x, u0)
                if d0 == 0:
                    continue
                u = interp(x, u0, tp / d0)
                if space.leq(u, x) is not True:
                    continue
            if tq == 0.0:
                v = y0
                y = y0
            else:
                y = y0
                d0 = space.distance(y0, v0)
                if d0 == 0:
                    continue
                v = interp(y0, v0, tq / d0)
                if space.leq(y, v) is not True:
                    continue
            half = (space.distance(x, u) + space.distance(y, v)) / 2
            if not (eps <= half < hi):
                continue
            hits += 1
            lhs = _banded_conclusion(op, x, y, u, v, symmetric)
            if not lhs < thresh:
                w = Witness(x=x, y=y, u=u, v=v, kind=kind,
                            measured={"eps": eps, "delta": delta,
                                      "half_sum": half, "lhs": lhs})
                return hits, w, used
    return hits, None, used


# ---------------------------------------------------------------------------
# strict contraction
# ---------------------------------------------------------------------------

def check_strict_contraction(op: CoupledOperator, samples: int = 10000, seed: int = 0) -> ConditionReport:
    """d2(T(Y), T(V)) < d2(Y, V) over strictly comparable distinct pairs."""
    if samples < 2:
        raise InputError("check_strict_contraction requires samples >= 2")
    lane = evaluation_lane(op)
    if lane == "linear":
        a, b, c = op.linear_coeffs
        found, checked, x, y, u, v, before, after = kernels.strict_sweep(
            a, b, c, samples, seed, _tag(_BASE_STRICT), _scale(op), FLOAT_SLACK
        )
        if found:
            return ConditionReport(
                condition_id="strict_contraction",
                verdict=VERDICT_FAILS,
                witness=Witness(x=x, y=y, u=u, v=v, kind="random",
                                measured={"d2_before": before, "d2_after": after}),
                samples_used=checked,
                comparable_pairs_used=checked,
                method="targeted-sampling",
            )
        return ConditionReport(
            condition_id="strict_contraction",
            verdict=VERDICT_HOLDS,
            samples_used=samples,
            comparable_pairs_used=checked,
            method="targeted-sampling",
            note=HOLDS_NOTE,
        )
    if lane == "finite":
        return _strict_finite(op)
    return _strict_generic(op, samples, seed)


def _strict_pair_violation(op, Y, V, before, slack):
    after = d2(product_T(op, Y), product_T(op, V), op.space)
    if op.space.exact:
        return after, after >= before
    m = before if before > 1.0 else 1.0
    return after, after >= before - slack * m


def _strict_finite(op) -> ConditionReport:
    fd = op.space.finite
    els, dist, leq = fd.elements, fd.dist, fd.leq
    n = len(els)
    checked = 0
    for ix in range(n):
        for iu in range(n):
            if not leq[iu][ix]:
                continue
            for iy in range(n):
                for iv in range(n):
                    if not leq[iy][iv]:
                        continue
                    before = (dist[ix][iu] + dist[iy][iv]) / 2
                    if before == 0:
                        continue
                    checked += 1
                    Y = PairPoint(els[ix], els[iy])
                    V = PairPoint(els[iu], els[iv])
                    after, violated = _strict_pair_violation(op, Y, V, before, 0.0)
                    if violated:
                        return ConditionReport(
                            condition_id="strict_contraction",
                            verdict=VERDICT_FAILS,
                            witness=Witness(x=els[ix], y=els[iy], u=els[iu], v=els[iv],
                                            kind="exhaustive",
                                            measured={"d2_before": before, "d2_after": after}),
                            samples_used=checked,
                            comparable_pairs_used=checked,
                            method="exhaustive",
                        )
    if checked == 0:
        return ConditionReport(
            condition_id="strict_contraction",
            verdict=VERDICT_INCONCLUSIVE,
            samples_used=0,
            comparable_pairs_used=0,
            method="exhaustive",
            note="no strictly comparable distinct pairs exist",
        )
    return ConditionReport(
        condition_id="strict_contraction",
        verdict=VERDICT_HOLDS,
        samples_used=checked,
        comparable_pairs_used=checked,
        method="exhaustive",
        note="exhaustive over all strictly comparable pairs",
    )


def _strict_generic(op, samples, seed) -> ConditionReport:
    space = op.space
    slack = 0.0 if space.exact else FLOAT_SLACK
    pool = space.sampler(4 * samples, seed ^ 0x57C1)
    checked = 0
    trials = len(pool) // 4
    for t in range(trials):
        px = _oriented(space, pool[4 * t], pool[4 * t + 1])
        py = _oriented(space, pool[4 * t + 2], pool[4 * t + 3])
        if px is None or py is None:
            continue
        u, x = px
        y, v = py
        Y = PairPoint(x, y)
        V = PairPoint(u, v)
        before = d2(Y, V, space)
        if not before > 0:
            continue
        checked += 1
        after, violated = _strict_pair_violation(op, Y, V, before, slack)
        if violated:
            return ConditionReport(
                condition_id="strict_contraction",
                verdict=VERDICT_FAILS,
                witness=Witness(x=x, y=y, u=u, v=v, kind="random",
                                measured={"d2_before": before, "d2_after": after}),
                samples_used=t + 1,
                comparable_pairs_used=checked,
                method="rejection-sampling",
            )
    if checked < MIN_COMPARABLE:
        return ConditionReport(
            condition_id="strict_contraction",
            verdict=VERDICT_INCONCLUSIVE,
            samples_used=trials,
            comparable_pairs_used=checked,
            method="rejection-sampling",
            note=f"only {checked} strictly comparable pairs among {trials} draws",
        )
    return ConditionReport(
        condition_id="strict_contraction",
        verdict=VERDICT_HOLDS,
        samples_used=trials,
        comparable_pairs_used=checked,
        method="rejection-sampling",
        note=HOLDS_NOTE,
    )


# ---------------------------------------------------------------------------
# delta(eps) curve
# ---------------------------------------------------------------------------

def estimate_delta_curve(op: CoupledOperator, eps_grid, samples: int = 2000,
                         seed: int = 0, delta_cap_factor: float = 10.0,
                         refine_iters: int = 48):
    """Estimate, per eps, the largest delta <= 10*eps for which no sampled
    violation of the symmetric condition occurs in [eps, eps + delta).

    Bisection over delta with a fresh deterministic sample stream per probe.
    The estimate is upper-biased near the true supremum (sampling can miss
    violations in a sliver); a 0.0 entry means the condition is already
    violated with an arbitrarily thin band. On finite spaces the answer is
    computed exactly from the violating half-sums instead.
    """
    grid = _validate_eps_grid(eps_grid)
    if samples < 1:
        raise InputError("samples must be positive")
    lane = evaluation_lane(op)
    out = []
    for e_idx, eps in enumerate(grid):
        cap = delta_cap_factor * eps
        if lane == "finite":
            out.append((float(eps), _finite_curve_point(op, eps, cap)))
            continue

        def probe(delta, probe_idx):
            if lane == "linear":
                _, w, _ = _linear_band_check(op, eps, delta, samples, seed,
                                             _BASE_CURVE, e_idx, True, probe_idx)
            else:
                _, w, _ = _generic_band_check(op, eps, delta, samples, seed,
                                              _BASE_CURVE, e_idx, True, probe_idx)
            return w is not None

        tiny = eps * 1e-9
        if probe(tiny, 0):
            out.append((float(eps), 0.0))
            continue
        if not probe(cap, 1):
            out.append((float(eps), cap))
            continue
        lo, hi = tiny, cap
        for it in range(refine_iters):
            mid = 0.5 * (lo + hi)
            if probe(mid, 2 + it):
                hi = mid
            else:
                lo = mid
        out.append((float(eps), lo))
    return out


def _finite_curve_point(op, eps, cap):
    fd = op.space.finite
    els, dist, leq = fd.elements, fd.dist, fd.leq
    n = len(els)
    eps_f = Fraction(eps)
    min_violating_half = None
    for ix in range(n):
        for iu in range(n):
            if not leq[iu][ix]:
                continue
            dxu = dist[ix][iu]
            for iy in range(n):
                for iv in range(n):
                    if not leq[iy][iv]:
                        continue
                    half = (dxu + dist[iy][iv]) / 2
                    if half < eps_f:
                        continue
                    lhs = _banded_conclusion(op, els[ix], els[iy], els[iu], els[iv], True)
                    if lhs >= eps_f:
                        if min_violating_half is None or half < min_violating_half:
                            min_violating_half = half
    if min_violating_half is None:
        return cap
    return float(min(min_violating_half - eps_f, Fraction(cap)))


# ---------------------------------------------------------------------------
# witness re-evaluation
# ---------------------------------------------------------------------------

def reverify_witness(op: CoupledOperator, report: ConditionReport) -> dict:
    """Recompute a failing report's witness from its stored coordinates.

    Returns the recomputed quantities plus "violated"; a genuine witness
    must re-violate its condition exactly (the arithmetic matches the
    checkers', including the rounding slack).
    """
    if report.witness is None:
        raise InputError("report carries no witness")
    w = report.witness
    space = op.space
    exact = space.exact
    slack = 0.0 if exact else FLOAT_SLACK
    cid = report.condition_id

    if cid == "banach_k":
        k = report.params["k"]
        lhs = space.distance(op.apply(w.x, w.y), op.apply(w.u, w.v))
        dxu = space.distance(w.x, w.u)
        dyv = space.distance(w.y, w.v)
        if exact:
            rhs = Fraction(k) * (dxu + dyv) / 2
            violated = lhs > rhs
        else:
            rhs = 0.5 * k * (dxu + dyv)
            m = rhs if rhs > 1.0 else 1.0
            violated = lhs > rhs + slack * m
        return {"lhs": lhs, "rhs": rhs, "violated": violated}

    if cid in ("samet_mk", "symmetric_mk"):
        eps = w.measured["eps"]
        delta = w.measured["delta"]
        half = (space.distance(w.x, w.u) + space.distance(w.y, w.v)) / 2
        in_band = eps <= half < eps + delta
        lhs = _banded_conclusion(op, w.x, w.y, w.u, w.v, cid == "symmetric_mk")
        if exact:
            thresh = eps
        else:
            thresh = eps + slack * (eps if eps > 1.0 else 1.0)
        return {"half_sum": half, "in_band": in_band, "lhs": lhs,
                "violated": bool(in_band and not lhs < thresh)}

    if cid == "strict_contraction":
        Y = PairPoint(w.x, w.y)
        V = PairPoint(w.u, w.v)
        before = d2(Y, V, space)
        after, violated = _strict_pair_violation(op, Y, V, before, slack)
        return {"d2_before": before, "d2_after": after, "violated": violated}

    if cid == "mixed_monotone":
        if w.kind == "first_argument":
            f_lo = op.apply(w.u, w.y)
            f_hi = op.apply(w.x, w.y)
            violated = space.leq(f_lo, f_hi) is not True
        else:
            f_lo = op.apply(w.x, w.y)
            f_hi = op.apply(w.x, w.v)
            violated = space.leq(f_hi, f_lo) is not True
        return {"image_low": f_lo, "image_high": f_hi, "violated": violated}

    raise InputError(f"unknown condition id {cid!r}")
