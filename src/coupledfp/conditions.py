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

Evaluation lanes are sources of comparable quadruples: vectorized operators
on the real line go through the numpy sweep kernels, finite tabulated spaces
enumerate every quadruple with zero tolerance, and other spaces draw them by
rejection sampling or, for bands, construct them through the space's
interpolate hook. The conditions, and check_mixed_monotone's
F(u, v) <= F(x, y), differ only in which quadruples they count (all of
them, those in the band, those with a finite half-sum > 0) and in the
conclusion that must hold, and each is written once, as its definition in
``operators`` (_CONDITIONS): its parameters, its test and the names of its
two measured values. The kernels' row loop runs the test on arrays, _scan
runs it on the generic lane's scalars, passing over an uncounted quadruple
before F is evaluated, and _measure runs it on one quadruple for the finite
lane's witness and for reverify_witness, which also checks every kernel
witness on floats (_float_confirmed); _witness lays out every lane's measured
dict. The floating-point slack of 1e-12 relative to max(1, bound)
(_with_slack) keeps rounding from minting a false witness, and the
comparisons are written so that a NaN never passes.

banach_k, strict_contraction and mixed_monotone share one driver, _check,
which dispatches the lane once: to the kernel sweep or the generic draws
named in _SAMPLED, or on a finite space to the _FiniteTables method named
by the condition id. The finite lane compares integers rather than running
the tests of _CONDITIONS: F as an index table, the distances scaled by the
matrix's common denominator (spaces.FiniteData.scaled), so every sum and
comparison is exact without a Fraction, and the space's pair index
(spaces.PairIndex), in which the in-band quadruples of each comparable
(x, u) pair are one bisected slice of the distance-sorted (y, v) pairs,
visited in enumeration order, so witnesses and hit counts equal a full
enumeration's. The first violation alone is measured again through the
condition's definition, in exact Fractions.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from operator import add, getitem, gt, le

from . import kernels
from .errors import InputError
from .kernels import _BASES, _sampler_seed, _tag
from .operators import (
    DELTA_CAP_FACTOR,
    CoupledOperator,
    evaluation_lane,
    _CONDITIONS,
    _argument_quadruples,
    _finite_table,
    _measure,
    _sampled_quadruples,
)
from .reports import ConditionReport, Witness, _report
from .spaces import INCOMPARABLE, _half_sum, _require_members

MIN_COMPARABLE = 10


def _validate_eps_grid(eps_grid):
    grid = list(eps_grid)
    if not grid:
        raise InputError("eps grid must not be empty")
    for e in grid:
        if not 0 < e < math.inf:
            raise InputError(f"eps values must be positive and finite, got {e!r}")
    return grid


def delta_from_k(k, eps):
    """The delta(eps) induced by a Banach constant: (1/k - 1) * eps.

    k == 0 means every delta works; by convention the result is +inf then.
    """
    if not 0 <= k < 1:
        raise InputError("k must lie in [0, 1)")
    if not 0 < eps < math.inf:
        raise InputError("eps must be positive and finite")
    if k == 0:
        return math.inf
    return (1.0 / k - 1.0) * eps


def _phase_plan(samples):
    # adversarial degenerate slices first, bulk random directions afterwards
    n_adv = max(1, samples // 10)
    phases = [(1, n_adv, "x_equals_u"), (2, n_adv, "y_equals_v"),
              (0, samples - 2 * n_adv, "random")]
    return [phase for phase in phases if phase[1] > 0]


def _witness(cond, kind, hit, args):
    """The witness of cond at hit = (x, y, u, v, first, second), the two
    measured values, with the check's parameters args in cond.params order."""
    x, y, u, v, first, second = hit
    values = dict(zip(cond.params + cond.fields, (*args, first, second)))
    return Witness(x=x, y=y, u=u, v=v, kind=kind,
                   measured={key: values[key] for key in cond.keys})


def _scan(op, cond, p, quadruples):
    """cond over quadruples (t, x, y, u, v, d(x,u), d(y,v)) to its first
    violation: (quadruples counted, the violation's (t, x, y, u, v, first,
    second) or None). A quadruple that cond does not count is passed over
    before F is evaluated (the lazy test)."""
    space, halves, test = op.space, cond.halves, cond.test
    count = 0
    half = None
    for t, x, y, u, v, dxu, dyv in quadruples:
        if halves:
            half = _half_sum(space, dxu + dyv)
        counted, first, second, holds = test(op, p, x, y, u, v, dxu, dyv, half, True)
        if not counted:
            continue
        count += 1
        if not holds:
            return count, (t, x, y, u, v, first, second)
    return count, None


# per sampled check: what it counts, its kernel sweep, its generic draws, its
# method on either lane, and the witness kinds, of which draw t takes kinds[t % len]
_SAMPLED = {
    "banach_k": ("comparable quadruples", "banach_sweep", _sampled_quadruples,
                 ("targeted-sampling", "rejection-sampling"), ("random",)),
    "strict_contraction": ("strictly comparable pairs", "strict_sweep", _sampled_quadruples,
                           ("targeted-sampling", "rejection-sampling"), ("random",)),
    "mixed_monotone": ("comparable argument pairs", "monotone_sweep", _argument_quadruples,
                       ("sampled", "sampled"), ("first_argument", "second_argument")),
}


def _check(op, cid, samples, seed, *args):
    """banach_k (args = (k,)), strict_contraction or mixed_monotone (no args)
    on op's lane: on a finite space by the _FiniteTables method named cid, on
    the kernel lane by its sweep, on the generic lane by its draws (_SAMPLED)."""
    lane = evaluation_lane(op)
    if lane == "finite":
        return getattr(_FiniteTables(op), cid)(*args)
    cond = _CONDITIONS[cid]
    what, sweep, draw, methods, kinds = _SAMPLED[cid]
    if lane == "kernel":
        args = tuple(map(float, args))
        found, checked, *hit = getattr(kernels, sweep)(op, *args, seed, _tag(_BASES[cid]), samples)
        used, draws, method = checked if found else samples, samples, methods[0]
    else:
        draws, quadruples = draw(op.space, samples, _sampler_seed(seed, cid))
        checked, hit = _scan(op, cond, cond.bind(op.space, *args), quadruples)
        found, used, method = hit is not None, draws, methods[1]
        if found:
            used, hit = hit[0] + 1, hit[1:]
    # a sweep whose kinds differ counts every draw, so used - 1 is the draw
    witness = _witness(cond, kinds[(used - 1) % len(kinds)], hit, args) if found else None
    few = f"only {checked} {what} among {draws} draws" if checked < MIN_COMPARABLE else ""
    return _report(cid, method, _float_confirmed(op, lane, cid, witness), used, checked,
                   params=dict(zip(cond.params, args)), inconclusive=few)


# ---------------------------------------------------------------------------
# the exhaustive finite lane
# ---------------------------------------------------------------------------

class _FiniteTables:
    """The integer view of a finite problem, built once per check: F as an
    index table (operators._finite_table: the loaded table, or n**2 op.apply
    calls) and its transpose FT, and on first use SF and SFT, the rows of the
    scaled distance matrix S = FiniteData.scaled[1] at the images. The walks
    read the space's pair index (FiniteData.pair_index, built once per
    space); the mixed-monotone scan reads neither.

    A comparable quadruple is a down pair (x, u), u <= x, with an up pair
    (y, v), y <= v; the enumeration order is down pairs, then up pairs, each
    row-major. Its scaled distance sum is S[x][u] + S[y][v], and its scaled
    conclusion S[F[x][y]][F[u][v]], plus S[F[y][x]][F[v][u]] when symmetric.
    The up pairs are read in distance order, so the ones completing a down
    pair to a sum in a band are one slice. The checks compare these integers;
    only a witness is measured again in Fractions, through the condition's
    definition in ``operators``."""

    def __init__(self, op):
        self.op, self.finite = op, op.space.finite
        self.F = F = _finite_table(op)
        self.FT = [list(col) for col in zip(*F)]  # FT[x][y] = F[y][x]

    # rows of S at the images: SF[x][y] = S[F[x][y]], SFT[x][y] = S[F[y][x]]
    @cached_property
    def SF(self):
        return [list(map(self.finite.scaled[1].__getitem__, row)) for row in self.F]

    @cached_property
    def SFT(self):
        return [list(map(self.finite.scaled[1].__getitem__, row)) for row in self.FT]

    def conclusions(self, i, j, start, end, symmetric):
        """The scaled conclusions of the down pair (i, j) with the up pairs
        start to end in distance order."""
        pairs = self.finite.pair_index
        ys, vs = pairs.ys[start:end], pairs.vs[start:end]
        c = map(getitem, map(self.SF[i].__getitem__, ys), map(self.F[j].__getitem__, vs))
        if symmetric:
            c = map(add, c, map(getitem, map(self.SFT[i].__getitem__, ys),
                                map(self.FT[j].__getitem__, vs)))
        return c

    def first_violation(self, cid, lo, hi, symmetric, violations, *args):
        """Walk cid's quadruples whose scaled distance sum lies in [lo, hi),
        in enumeration order, to the first violation; violations(conclusions,
        sums) turns conclusions and sums into violation flags, and args are
        the check's parameters. Returns (quadruples walked, the violation
        included; its witness, measured through cid's definition in exact
        Fractions, or None)."""
        pairs = self.finite.pair_index
        dists, pos = pairs.dists, pairs.pos
        walked = 0
        for i, j, d in pairs.down:
            start = bisect_left(dists, lo - d)
            end = bisect_left(dists, hi - d, start)
            if start == end:
                continue

            def flags():
                sums = map(d.__add__, dists[start:end])
                return violations(self.conclusions(i, j, start, end, symmetric), sums)

            if not any(flags()):
                walked += end - start
                continue
            # the first violation in enumeration order is the one at the
            # lowest row-major position; the walk counts the band's up pairs
            # up to it
            band = pos[start:end]
            p, q = min(itertools.compress(zip(band, range(start, end)), flags()))
            cond = _CONDITIONS[cid]
            x, y, u, v = (self.finite.elements[k] for k in (i, pairs.ys[q], j, pairs.vs[q]))
            _, first, second, _ = _measure(self.op, cond, cond.bind(self.op.space, *args),
                                           x, y, u, v)
            return (walked + sum(map(p.__ge__, band)),
                    _witness(cond, "exhaustive", (x, y, u, v, first, second), args))
        return walked, None

    def banach_k(self, k):
        """check_banach_k on every comparable quadruple: the conclusion
        d(F(x,y), F(u,v)) exceeds (k/2)(d(x,u) + d(y,v)) iff 2 k.den S1 >
        k.num s on the scaled integers."""
        k_exact = Fraction(k)
        a, b = 2 * k_exact.denominator, k_exact.numerator
        checked, witness = self.first_violation(
            "banach_k", -math.inf, math.inf, False,
            lambda c, s: map(gt, map(a.__mul__, c), map(b.__mul__, s)), k_exact)
        return _report("banach_k", "exhaustive", witness, checked, checked, params={"k": k},
                       holds_note="exhaustive over all ordered quadruples")

    def strict_contraction(self):
        """check_strict_contraction on every comparable quadruple with a
        positive scaled sum s: the symmetric conclusion must stay below s."""
        checked, witness = self.first_violation(
            "strict_contraction", 1, math.inf, True, lambda c, s: map(le, s, c))
        return _report("strict_contraction", "exhaustive", witness, checked, checked,
                       inconclusive="" if checked else "no strictly comparable distinct pairs exist",
                       holds_note="exhaustive over all strictly comparable pairs")

    def mixed_monotone(self):
        """check_mixed_monotone on a finite space: both clauses for
        every comparable pair lo <= hi and every w, in (lo, hi) row-major
        order, on F, FT and the 0/1 order matrix L: L[F[lo][w]][F[hi][w]] and
        L[F[w][hi]][F[w][lo]]. Only the first violation is measured, through
        the condition's definition, for its witness: the quadruple
        (hi, w, lo, w) of the first clause, else (w, lo, w, hi)."""
        els, L, F, FT = self.finite.elements, self.finite.leq, self.F, self.FT
        # up-set rows of the images: up_F[i][w] = L[F[i][w]], up_FT[i][w] = L[F[w][i]]
        up_F = [list(map(L.__getitem__, row)) for row in F]
        up_FT = [list(map(L.__getitem__, row)) for row in FT]
        idx = range(len(els))
        checked = 0
        witness = None
        for i, j in ((i, j) for i in idx for j in idx if L[i][j]):
            if all(map(getitem, up_F[i], F[j])) and all(map(getitem, up_FT[j], FT[i])):
                checked += len(idx)
                continue
            k = next(k for k in idx if not (up_F[i][k][F[j][k]] and up_FT[j][k][FT[i][k]]))
            checked += k + 1
            lo, hi, w = els[i], els[j], els[k]
            kind, quadruple = (("first_argument", (hi, w, lo, w)) if not up_F[i][k][F[j][k]]
                               else ("second_argument", (w, lo, w, hi)))
            cond = _CONDITIONS["mixed_monotone"]
            _, low, high, _ = _measure(self.op, cond, (), *quadruple)
            witness = _witness(cond, kind, (*quadruple, low, high), ())
            break
        # reflexive pairs alone still decide the clauses on a finite space, so an
        # exhaustive scan is conclusive even on an antichain
        return _report("mixed_monotone", "exhaustive", witness, checked, checked,
                       holds_note="exhaustive over all comparable argument pairs")

    def curve_point(self, eps, cap):
        """Exact curve entry: the smallest violating half-sum >= eps, less eps,
        at most cap. Each down pair walks its up pairs in distance order from
        the sum of eps and stops below the smallest violating sum found so
        far, which starts at the cap's; an infinite cap (DELTA_CAP_FACTOR *
        eps overflows) bounds nothing, and the entry is inf without a
        violation."""
        pairs = self.finite.pair_index
        eps = Fraction(eps)
        lo = math.ceil(2 * eps * pairs.scale)  # also the symmetric conclusion's bound
        best = math.ceil(2 * (eps + Fraction(cap)) * pairs.scale) if cap < math.inf else math.inf
        dists = pairs.dists
        for i, j, d in pairs.down:
            start = bisect_left(dists, lo - d)
            end = bisect_left(dists, best - d, start)
            if start == end:
                continue
            flags = map(lo.__le__, self.conclusions(i, j, start, end, True))
            m = next(itertools.compress(itertools.count(), flags), None)
            if m is not None:
                best = d + dists[start + m]
        return cap if best == math.inf else float(min(Fraction(best, 2 * pairs.scale) - eps, cap))


# ---------------------------------------------------------------------------
# mixed monotonicity
# ---------------------------------------------------------------------------

def check_mixed_monotone(op: CoupledOperator, samples: int = 10000, seed: int = 0) -> ConditionReport:
    """Sample the two monotonicity clauses: F nondecreasing in its first
    argument and nonincreasing in its second, over comparable argument pairs.

    Trial t tests F(u, v) <= F(x, y) on the first clause's quadruple on even
    t, the second's on odd t (operators._argument_quadruples; on the kernel
    lane kernels.monotone_sweep), and a witness's kind names its clause.
    Fewer than MIN_COMPARABLE comparable trials yield an inconclusive verdict
    rather than a vacuous pass. Finite spaces are enumerated exhaustively.
    """
    if samples < 2:
        raise InputError("check_mixed_monotone requires samples >= 2")
    return _check(op, "mixed_monotone", samples, seed)


# ---------------------------------------------------------------------------
# banach_k
# ---------------------------------------------------------------------------

def check_banach_k(op: CoupledOperator, k, samples: int = 10000, seed: int = 0) -> ConditionReport:
    """Test the constant-k contraction on sampled comparable quadruples, or
    on every one of a finite space."""
    if not 0 <= k < 1:
        raise InputError("k must lie in [0, 1)")
    if samples < 1:
        raise InputError("samples must be positive")
    return _check(op, "banach_k", samples, seed, k)


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


def _check_banded(op, eps_grid, delta_candidates, samples, seed, symmetric) -> ConditionReport:
    grid = _validate_eps_grid(eps_grid)
    if samples < 1:
        raise InputError("samples must be positive")
    cid = "symmetric_mk" if symmetric else "samet_mk"
    lane = evaluation_lane(op)
    # the whole grid is checked at once, up to the first invalid delta, which
    # is an error only when no eps before it fails
    eps_delta = []
    invalid = None
    for eps in grid:
        delta = delta_candidates(eps)
        if not delta > 0:
            invalid = InputError(f"delta candidate for eps={eps} must be positive, got {delta!r}")
            break
        eps_delta.append((eps, delta))
    results = _band_checks(op, lane, [(eps, delta, e_idx, 0) for e_idx, (eps, delta)
                                      in enumerate(eps_delta)],
                           samples, seed, _BASES[cid], symmetric)
    witness = _float_confirmed(op, lane, cid, results[-1][1] if results else None)
    if witness is None and invalid is not None:
        raise invalid
    band_hits = [(eps, hits) for (eps, _), (hits, _, _) in zip(eps_delta, results)]
    hits_total = sum(hits for _, hits in band_hits)
    return _report(cid, "exhaustive" if lane == "finite" else "targeted-sampling", witness,
                   sum(used for _, _, used in results), hits_total,
                   epsilon_grid=eps_delta[:len(results)], band_hits=band_hits,
                   inconclusive="" if hits_total else "no sampled quadruple landed in any band")


def _finite_band(tables, eps, delta, symmetric):
    """The exhaustive banded check at (eps, delta): (in-band quadruples up to
    the first violation, witness or None). In scaled integers the band is
    ceil(2 eps scale) <= s < ceil(2 (eps + delta) scale), and the conclusion
    violates from ceil(eps scale) on, or from ceil(2 eps scale) when
    symmetric."""
    # an infinite delta stays a float, so the band is [eps, inf)
    eps, delta = Fraction(eps), Fraction(delta) if delta < math.inf else delta
    scale = tables.finite.pair_index.scale
    lo = math.ceil(2 * eps * scale)
    hi = math.inf if delta == math.inf else math.ceil(2 * (eps + delta) * scale)
    bound = lo if symmetric else math.ceil(eps * scale)
    return tables.first_violation("symmetric_mk" if symmetric else "samet_mk", lo, hi, symmetric,
                                  lambda c, s: map(bound.__le__, c), eps, delta)


def _band_checks(op, lane, bands, samples, seed, base, symmetric, curve=False):
    """Banded checks of the bands (eps, delta, e_idx, probe): per band
    (in-band hits, witness or None, draws). On the kernel lane each phase is
    one batched sweep over the bands still without a witness; the other lanes
    check band after band. The list ends at the first band with a witness,
    and later bands are checked no further, except for the delta curve
    (curve), which checks every band and passes its block rule to
    kernels._band_sweeps; the other lanes keep the first violation."""
    if lane != "kernel":
        tables = _FiniteTables(op) if lane == "finite" else None
        results = []
        for eps, delta, e_idx, probe in bands:
            if tables is None:
                results.append(_generic_band(op, eps, delta, samples, seed, base, e_idx,
                                             symmetric, probe))
            else:
                hits, witness = _finite_band(tables, eps, delta, symmetric)
                results.append((hits, witness, hits))
            if not curve and results[-1][1] is not None:
                break
        return results

    cond = _CONDITIONS["symmetric_mk" if symmetric else "samet_mk"]
    floats = [(float(eps), float(delta)) for eps, delta, _, _ in bands]
    results = [[0, None, 0] for _ in bands]
    stop = len(bands)  # but for the curve, one past the first band with a witness
    for mode, count, kind in _phase_plan(samples):
        live = [i for i in range(stop) if results[i][1] is None]
        if not live:
            break
        sweeps = kernels._band_sweeps(
            op, [floats[i] + (_tag(base, bands[i][2], mode, bands[i][3]),) for i in live],
            seed, count, mode, symmetric, curve)
        for i, (found, hits, x, y, u, v, half, lhs) in zip(live, sweeps):
            r = results[i]
            r[0] += hits
            r[2] += count
            if found:
                r[1] = _witness(cond, kind, (x, y, u, v, half, lhs), floats[i])
                if not curve:
                    stop = min(stop, i + 1)
    return [tuple(r) for r in results[:stop]]


def _generic_band(op, eps, delta, samples, seed, base, e_idx, symmetric, probe=0):
    """One banded check at (eps, delta) on the generic lane: (in-band hits,
    witness or None, draws). Per phase the construction through the
    interpolate hook, or plain rejection without it."""
    space = op.space
    cond = _CONDITIONS["symmetric_mk" if symmetric else "samet_mk"]
    p = cond.bind(space, eps, delta)
    if space.interpolate is None:
        rng_seed = kernels.stream_seed(seed, _tag(base, e_idx, 0, probe))
        used, quadruples = _sampled_quadruples(space, samples, rng_seed & 0x7FFFFFFF)
        hits, hit = _scan(op, cond, p, quadruples)
        return hits, hit and _witness(cond, "rejection", hit[1:], (eps, delta)), used

    hits = 0
    used = 0
    for mode, count, kind in _phase_plan(samples):
        rng = random.Random(kernels.stream_seed(seed, _tag(base, e_idx, mode, probe)))
        trials, quadruples = _band_quadruples(space, p[0], p[3], count, mode, rng)
        used += trials
        phase_hits, hit = _scan(op, cond, p, quadruples)
        hits += phase_hits
        if hit is not None:
            return hits, _witness(cond, kind, hit[1:], (eps, delta)), used
    return hits, None, used


def _band_quadruples(space, eps, width, count, mode, rng):
    """Comparable quadruples aimed at half-sums in [eps, eps + width) through
    the interpolate hook: (draws, iterator shaped like _sampled_quadruples'),
    each draw oriented in place as there. A constructed leg outside the
    space's contains is dropped, so every witness lies in the space."""
    pool = space.sampler(4 * count, rng.getrandbits(31))
    trials = len(pool) // 4

    def quadruples():
        distance, leq, interp, rand = space.distance, space.leq, space.interpolate, rng.random
        contains = space.contains
        it = iter(pool)
        for t, a, b, c, e in zip(range(trials), it, it, it, it):
            h = eps + rand() * width
            if leq(a, b) is True:
                u0, x = a, b
            elif leq(b, a) is True:
                u0, x = b, a
            else:
                u0 = INCOMPARABLE
            if leq(c, e) is True:
                y0, v0 = c, e
            elif leq(e, c) is True:
                y0, v0 = e, c
            else:
                continue
            if u0 is INCOMPARABLE:
                continue
            if mode == 1:
                tp, tq = 0.0, 2.0 * h
            elif mode == 2:
                tp, tq = 2.0 * h, 0.0
            else:
                s = rand()
                tp = 2.0 * h * s
                tq = 2.0 * h - tp
            # rescale each comparable leg so the half-sum hits the band;
            # relies on interpolate being metrically linear and order
            # preserving for t >= 0
            if tp == 0.0:
                u = x
            else:
                d0 = distance(x, u0)
                if d0 == 0:
                    continue
                u = interp(x, u0, tp / d0)
                if leq(u, x) is not True or contains is not None and not contains(u):
                    continue
            y = y0
            if tq == 0.0:
                v = y0
            else:
                d0 = distance(y0, v0)
                if d0 == 0:
                    continue
                v = interp(y0, v0, tq / d0)
                if leq(y, v) is not True or contains is not None and not contains(v):
                    continue
            yield t, x, y, u, v, distance(x, u), distance(y, v)

    return trials, quadruples()


# ---------------------------------------------------------------------------
# strict contraction
# ---------------------------------------------------------------------------

def check_strict_contraction(op: CoupledOperator, samples: int = 10000, seed: int = 0) -> ConditionReport:
    """d2(T(Y), T(V)) < d2(Y, V) over strictly comparable distinct pairs."""
    if samples < 2:
        raise InputError("check_strict_contraction requires samples >= 2")
    return _check(op, "strict_contraction", samples, seed)


# ---------------------------------------------------------------------------
# delta(eps) curve
# ---------------------------------------------------------------------------

def estimate_delta_curve(op: CoupledOperator, eps_grid, samples: int = 2000, seed: int = 0):
    """Estimate, per eps, delta(eps) for the symmetric condition: the smallest
    violating half-sum >= eps found, less eps, at most DELTA_CAP_FACTOR * eps.

    A violation in a band of width 1e-9 * eps gives 0.0 (the condition fails
    with arbitrarily thin bands). Otherwise each round checks [eps, eps + delta)
    with a fresh sample stream, from delta = the cap, and shrinks delta to its
    witness's half-sum less eps; the first round without a witness ends the
    search. A round's witness is the violation of smallest half-sum in the
    first block of draws that holds one, the earliest on ties: on the kernel
    lane a block is kernels.CHUNK // 4 draws of a phase, on the generic lane,
    which evaluates one quadruple at a time, a single draw, so its witness is
    the first violation. The eps values advance in lockstep, the probes
    first, then one round at a time for every eps still searching, so on the
    kernel lane each phase of a round is one batched sweep; each band's
    stream depends only on its eps index and round, and its blocks on that
    stream alone, so the entries do not depend on the grid's other values.
    Sampling can miss violations just above the true value, so the estimate
    is upper-biased; finite spaces apply the rule exhaustively. A kernel-lane
    witness must violate on floats too, as in the checks (_float_confirmed).
    """
    grid = _validate_eps_grid(eps_grid)
    if samples < 1:
        raise InputError("samples must be positive")
    lane = evaluation_lane(op)
    if lane == "finite":
        tables = _FiniteTables(op)
        return [(float(eps), tables.curve_point(eps, DELTA_CAP_FACTOR * eps)) for eps in grid]

    def witnesses(deltas, probe):
        # per eps index i of deltas, the witness or None in [eps, eps + deltas[i])
        bands = [(grid[i], d, i, probe) for i, d in deltas.items()]
        results = _band_checks(op, lane, bands, samples, seed, _BASES["curve"], True,
                               curve=True)
        return {i: _float_confirmed(op, lane, "symmetric_mk", w)
                for i, (_, w, _) in zip(deltas, results)}

    thin = witnesses({i: eps * 1e-9 for i, eps in enumerate(grid)}, 0)
    delta = {i: DELTA_CAP_FACTOR * eps if thin[i] is None else 0.0 for i, eps in enumerate(grid)}
    searching = {i: delta[i] for i, w in thin.items() if w is None}
    # a witness lies inside its band, so each round narrows the band
    probe = 1
    while searching:
        found = witnesses(searching, probe)
        searching = {i: w.measured["half_sum"] - grid[i] for i, w in found.items() if w is not None}
        delta.update(searching)
        probe += 1
    return [(float(eps), delta[i]) for i, eps in enumerate(grid)]


# ---------------------------------------------------------------------------
# witness re-evaluation
# ---------------------------------------------------------------------------

def reverify_witness(op: CoupledOperator, report: ConditionReport) -> dict:
    """Recompute a failing report's witness from its stored coordinates.

    Returns the recomputed quantities plus "violated"; a genuine witness
    must re-violate its condition exactly: it is measured through the
    condition's definition, the checkers' own test with its rounding slack,
    and it must be a quadruple the condition quantifies over, with u <= x
    and y <= v (and, for the banded conditions and strict_contraction, a
    half-sum in the band or positive and finite).
    """
    if report.witness is None:
        raise InputError("report carries no witness")
    w = report.witness
    space = op.space
    cid = report.condition_id
    _require_members(space, w.x, w.y, w.u, w.v)
    cond = _CONDITIONS.get(cid)
    if cond is None:
        raise InputError(f"unknown condition id {cid!r}")
    missing = [key for key in cond.params if key not in w.measured]
    if missing:
        raise InputError(f"{cid} witness lacks the measured {missing[0]!r}")
    p = cond.bind(space, *(w.measured[key] for key in cond.params))
    counted, first, second, holds = _measure(op, cond, p, w.x, w.y, w.u, w.v)
    result = {cond.fields[0]: first}
    if cond.flag:
        result[cond.flag] = counted
    result[cond.fields[1]] = second
    oriented = space.leq(w.u, w.x) is True and space.leq(w.y, w.v) is True
    result["violated"] = bool(counted and oriented and not holds)
    return result


def _float_confirmed(op, lane, cid, witness):
    """witness, unless the kernel lane found it on arrays and it does not
    violate cid on floats: op then breaks its vectorized=True declaration."""
    if (lane == "kernel" and witness is not None
            and not reverify_witness(op, ConditionReport(cid, "fails", witness))["violated"]):
        raise InputError(f"the {cid} witness found on float64 arrays does not violate it on "
                         "floats: the operator's vectorized=True declaration does not hold; make "
                         "apply map arrays as it maps floats, or set vectorized=False")
    return witness
