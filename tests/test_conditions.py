import collections
import dataclasses
import itertools
import json
import math
import random
import re
import sys
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coupledfp as cf
from coupledfp import kernels
from coupledfp.conditions import DELTA_CAP_FACTOR
from coupledfp.kernels import _BASES, _tag, stream_seed
from coupledfp.operators import _banded_conclusion, _finite_table, evaluation_lane
from coupledfp.reports import Witness
from coupledfp.spaces import INCOMPARABLE, FiniteData, PairPoint

import finite_oracle as oracle
from conftest import antichain_reals, fixture_path, nan_beyond_five, np_tanh_operator

EIGHTH = lambda e: e / 8


# --- delta_from_k ----------------------------------------------------------

def test_delta_from_k_values():
    assert cf.delta_from_k(4 / 5, 1.0) == pytest.approx(0.25, rel=1e-12)
    assert cf.delta_from_k(0.5, 2.0) == pytest.approx(2.0, rel=1e-12)


def test_delta_from_k_zero_is_unbounded():
    assert cf.delta_from_k(0.0, 1.0) == math.inf


@pytest.mark.parametrize("k", [-0.1, 1.0, 1.5, math.nan])
def test_delta_from_k_domain(k):
    with pytest.raises(cf.InputError):
        cf.delta_from_k(k, 1.0)


@pytest.mark.parametrize("eps", [0.0, math.inf, math.nan])
def test_delta_from_k_rejects_non_finite_eps(eps):
    with pytest.raises(cf.InputError):
        cf.delta_from_k(0.5, eps)


@given(k=st.floats(min_value=0.05, max_value=0.95),
       eps=st.floats(min_value=1e-3, max_value=1e3),
       c=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=100)
def test_delta_from_k_scales_linearly(k, eps, c):
    assert cf.delta_from_k(k, c * eps) == pytest.approx(c * cf.delta_from_k(k, eps), rel=1e-9)


# --- banach_k --------------------------------------------------------------

def test_banach_spec_quadruple_arithmetic():
    # x = u = 0, y = 0, v = 1: image distance 3/5, bound k/2 * 1
    f = lambda x, y: (x - 3 * y) / 5
    lhs = abs(f(0.0, 0.0) - f(0.0, 1.0))
    assert lhs == pytest.approx(0.6, abs=1e-15)
    assert lhs > 0.5 * 0.5 * 1.0  # k = 1/2 bound is violated


def test_banach_half_fails_on_flagship(samet):
    rep = cf.check_banach_k(samet.operator, 0.5, samples=4000, seed=0)
    assert rep.verdict == "fails"
    assert cf.reverify_witness(samet.operator, rep)["violated"]


@pytest.mark.parametrize("k", [0.25, 0.5, 0.8, 1.0 - 2.0 ** -20])
def test_banach_fails_for_every_k_below_one_on_flagship(samet, k):
    # the image distance reaches 6/5 of the half-sum on the x == u slice, so
    # no constant below one can work
    rep = cf.check_banach_k(samet.operator, k, samples=4000, seed=1)
    assert rep.verdict == "fails"
    w = rep.witness
    assert w.measured["lhs"] > w.measured["rhs"]


def test_banach_tight_constant_is_two_max_over_c():
    # for (a, b, c) = (1, 2, 8): 2*max(a,b)/c = 1/2 works ...
    prob = cf.builtin("linear(1,2,8)")
    rep = cf.check_banach_k(prob.operator, 0.5, samples=4000, seed=2)
    assert rep.verdict == "holds_on_samples"
    # ... while (a+b)/c = 3/8 is below the tight constant and fails
    rep = cf.check_banach_k(prob.operator, 3 / 8, samples=4000, seed=2)
    assert rep.verdict == "fails"
    assert cf.reverify_witness(prob.operator, rep)["violated"]


def test_banach_constant_operator_any_k():
    prob = cf.builtin("linear(0,0,1)")
    for k in (0.0, 0.5):
        rep = cf.check_banach_k(prob.operator, k, samples=500, seed=0)
        assert rep.verdict == "holds_on_samples"


def test_banach_inconclusive_without_comparable_quadruples():
    space = antichain_reals()
    op = cf.CoupledOperator(apply=lambda x, y: x / 2, space=space)
    rep = cf.check_banach_k(op, 0.9, samples=200, seed=0)
    assert rep.verdict == "inconclusive"


def test_banach_k_domain(samet):
    with pytest.raises(cf.InputError):
        cf.check_banach_k(samet.operator, 1.0)


@pytest.mark.parametrize("problem", ["samet_example", fixture_path("diamond5.json")],
                         ids=["samet_example", "diamond5"])
def test_banach_rejects_nan_k(problem):
    op = cf.resolve_problem(problem).operator
    with pytest.raises(cf.InputError):
        cf.check_banach_k(op, math.nan, samples=100)


@pytest.mark.parametrize("check", ["banach", "strict"])
def test_kernel_lane_inconclusive_on_too_few_draws(check):
    # five draws are too few to call the condition held, in the kernel lane
    # as in the generic one
    linear = cf.builtin("linear(1,1,4)").operator
    for op in (linear, cf.CoupledOperator(apply=linear.apply, space=linear.space)):
        if check == "banach":
            rep = cf.check_banach_k(op, 0.5, samples=5, seed=0)
        else:
            rep = cf.check_strict_contraction(op, samples=5, seed=0)
        assert rep.verdict == "inconclusive", (evaluation_lane(op), rep.note)


def test_kernel_lane_inconclusive_without_finite_draws():
    # an infinite sampling box makes every draw NaN: no pair is distinct
    base = cf.builtin("linear(1,3,5)").operator
    op = dataclasses.replace(base, space=dataclasses.replace(base.space,
                                                              sample_radius=math.inf))
    assert evaluation_lane(op) == "kernel"
    rep = cf.check_strict_contraction(op, samples=300, seed=0)
    assert rep.verdict == "inconclusive"
    assert rep.comparable_pairs_used == 0


# --- samet_mk (asymmetric banded) -----------------------------------------

def brute_max_ratio_samet(a, b, c, grid=30):
    """Brute-force the worst image-distance / half-sum ratio over a grid of
    offsets, including the degenerate slices."""
    worst = 0.0
    for i in range(grid + 1):
        for j in range(grid + 1):
            p, q = i / 5.0, j / 5.0
            if p + q == 0:
                continue
            lhs = abs((a * p + b * q) / c)
            worst = max(worst, lhs / ((p + q) / 2))
    return worst


def test_flagship_samet_ratio_exceeds_one():
    # independent grid search: ratio reaches 6/5 on the p = 0 slice
    assert brute_max_ratio_samet(1, 3, 5) == pytest.approx(1.2, rel=1e-12)


@pytest.mark.parametrize("delta_rule", [EIGHTH, lambda e: e, lambda e: 10 * e])
def test_samet_fails_on_flagship_for_any_delta(samet, delta_rule):
    rep = cf.check_samet(samet.operator, [1.0], delta_rule, samples=2000, seed=0)
    assert rep.verdict == "fails"
    w = rep.witness
    assert w.kind == "x_equals_u"
    assert w.x == w.u
    assert w.measured["lhs"] >= 1.0
    assert cf.reverify_witness(samet.operator, rep)["violated"]


def test_samet_holds_for_quarter_map():
    # F(x, y) = (x - y)/4 admits the constant 1/2, so delta(eps) = eps works
    prob = cf.builtin("linear(1,1,4)")
    rep = cf.check_samet(prob.operator, [0.1, 1.0, 10.0], lambda e: e,
                         samples=3000, seed=0)
    assert rep.verdict == "holds_on_samples"
    assert all(hits > 0 for _, hits in rep.band_hits)


def test_samet_constant_operator_holds():
    prob = cf.builtin("linear(0,0,1)")
    rep = cf.check_samet(prob.operator, [1.0], lambda e: e, samples=500, seed=0)
    assert rep.verdict == "holds_on_samples"


def test_samet_inconclusive_when_no_band_hits():
    space = antichain_reals()
    op = cf.CoupledOperator(apply=lambda x, y: x / 2, space=space)
    rep = cf.check_samet(op, [1.0], lambda e: e, samples=300, seed=0)
    assert rep.verdict == "inconclusive"


def test_samet_rejects_bad_grid(samet):
    with pytest.raises(cf.InputError):
        cf.check_samet(samet.operator, [], EIGHTH)
    with pytest.raises(cf.InputError):
        cf.check_samet(samet.operator, [0.0], EIGHTH)
    with pytest.raises(cf.InputError):
        cf.check_samet(samet.operator, [1.0], lambda e: 0.0)


@pytest.mark.parametrize("problem", ["samet_example", fixture_path("diamond5.json")],
                         ids=["samet_example", "diamond5"])
@pytest.mark.parametrize("eps", [math.inf, math.nan])
def test_non_finite_eps_is_an_input_error(problem, eps):
    op = cf.resolve_problem(problem).operator
    for call in (lambda: cf.check_samet(op, [1.0, eps], EIGHTH, samples=100),
                 lambda: cf.check_symmetric_mk(op, [1.0, eps], EIGHTH, samples=100),
                 lambda: cf.estimate_delta_curve(op, [eps], samples=100)):
        with pytest.raises(cf.InputError):
            call()


@pytest.mark.parametrize("symmetric", [False, True])
def test_finite_lane_takes_an_infinite_delta(symmetric):
    # delta_from_k(0, eps) is inf: the exhaustive band is [eps, inf)
    op = cf.load_finite(fixture_path("diamond5.json")).operator
    check = cf.check_symmetric_mk if symmetric else cf.check_samet
    rep = check(op, [0.5, 1.0], lambda e: cf.delta_from_k(0.0, e))
    assert rep.verdict == "fails"
    assert rep.witness.measured["delta"] == math.inf
    assert cf.reverify_witness(op, rep)["violated"] is True
    # standard JSON: the infinite delta is written as the string "inf"
    doc = json.loads(json.dumps(rep.to_jsonable(), allow_nan=False))
    assert doc["epsilon_grid"][0] == [0.5, "inf"]
    assert float(doc["witness"]["measured"]["delta"]) == math.inf


@pytest.mark.parametrize("vectorized", [True, False], ids=["kernel", "generic"])
@pytest.mark.parametrize("check", [cf.check_samet, cf.check_symmetric_mk])
def test_sampled_lanes_draw_an_infinite_band_over_the_cap(samet, vectorized, check):
    # the band of delta_from_k(0, eps) = inf is [eps, inf); its half-sums are
    # drawn from [eps, eps + DELTA_CAP_FACTOR * eps), not as inf or NaN, so
    # the sampled lanes find the failure the finite lane would
    op = dataclasses.replace(samet.operator, vectorized=vectorized)
    assert evaluation_lane(op) == ("kernel" if vectorized else "generic")
    rep = check(op, [0.5, 1.0], lambda e: cf.delta_from_k(0.0, e), samples=2000, seed=0)
    assert rep.verdict == "fails"
    assert all(hits > 0 for _, hits in rep.band_hits)
    w = rep.witness.measured
    assert w["delta"] == math.inf
    assert w["eps"] <= w["half_sum"] < (1 + DELTA_CAP_FACTOR) * w["eps"]
    assert cf.reverify_witness(op, rep)["violated"] is True


@pytest.mark.parametrize("vectorized", [True, False], ids=["kernel", "generic"])
@pytest.mark.parametrize("check", [cf.check_samet, cf.check_symmetric_mk])
def test_sampled_lanes_draw_an_infinite_band_past_the_overflowing_cap(samet, vectorized, check):
    # at eps = 2e307 the cap DELTA_CAP_FACTOR * eps overflows; the band draws
    # up to the largest float instead, and finds that 3/5 |y - v| >= eps for
    # a large |y - v|; F overflows there, so the witness's lhs is inf
    op = dataclasses.replace(samet.operator, vectorized=vectorized)
    assert evaluation_lane(op) == ("kernel" if vectorized else "generic")
    rep = check(op, [2e307], lambda e: math.inf, samples=500)
    assert rep.verdict == "fails"
    assert rep.band_hits == [(2e307, 1)]
    w = rep.witness.measured
    assert w["delta"] == math.inf and w["lhs"] == math.inf
    assert 2e307 <= w["half_sum"] <= sys.float_info.max
    assert cf.reverify_witness(op, rep)["violated"] is True


def test_jsonable_writes_numpy_scalars_as_python_scalars():
    # a user sampler or operator may return numpy scalars: each keeps its
    # JSON type instead of becoming a string
    import numpy as np

    w = Witness(np.int64(5), np.float32(0.5), np.bool_(False), np.float32("inf"),
                measured={"n": np.uint8(3)})
    assert json.dumps(w.to_jsonable(), allow_nan=False) == (
        '{"x": 5, "y": 0.5, "u": false, "v": "inf", "kind": "random", "measured": {"n": 3}}')


def nan_below(threshold, vectorized):
    """(x - y)/4, but NaN when the first argument lies below threshold: on
    real_line(10) only a band wide enough to push u below it can fail."""
    if vectorized:
        import numpy as np

        return cf.CoupledOperator(apply=lambda x, y: np.where(x < threshold, np.nan, (x - y) / 4),
                                  space=cf.real_line(10.0), vectorized=True)
    return cf.CoupledOperator(apply=lambda x, y: math.nan if x < threshold else (x - y) / 4,
                              space=cf.real_line(10.0))


# per lane: an operator failing first at eps = 1.0, and one holding on the grid
BANDED_LANES = {
    "kernel": (lambda: nan_below(-10.5, True), lambda: cf.builtin("linear(1,1,4)").operator),
    "generic": (lambda: nan_below(-10.5, False),
                lambda: cf.CoupledOperator(apply=lambda x, y: (x - y) / 4, space=cf.real_line())),
    "finite": (lambda: cf.load_finite(fixture_path("diamond5.json")).operator,
               lambda: cf.load_finite(fixture_path("twocomp4.json")).operator),
}


@pytest.mark.parametrize("lane", sorted(BANDED_LANES))
@pytest.mark.parametrize("check", [cf.check_samet, cf.check_symmetric_mk])
def test_banded_error_order(lane, check):
    # the grid is checked at once, so delta_candidates is asked for every eps
    # up to the first invalid candidate; that candidate is an error only when
    # no eps before it fails
    failing, holding = (make() for make in BANDED_LANES[lane])
    assert evaluation_lane(failing) == evaluation_lane(holding) == lane
    asked = []

    def rule(e):
        asked.append(e)
        return e / 8 if e < 5 else -1.0

    rep = check(failing, [0.1, 1.0, 10.0], rule, samples=2000, seed=0)
    assert asked == [0.1, 1.0, 10.0]
    assert rep.verdict == "fails"
    assert rep.witness.measured["eps"] == 1.0
    assert [eps for eps, _ in rep.epsilon_grid] == [eps for eps, _ in rep.band_hits] == [0.1, 1.0]
    assert cf.reverify_witness(failing, rep)["violated"]
    with pytest.raises(cf.InputError, match=r"eps=10\.0 must be positive, got -1\.0"):
        check(holding, [0.1, 1.0, 10.0], rule, samples=2000, seed=0)
    # an invalid first candidate is an error before any band is checked
    with pytest.raises(cf.InputError, match=r"eps=0\.1 must be positive"):
        check(failing, [0.1, 1.0], lambda e: 0.0, samples=2000, seed=0)


# --- symmetric_mk ----------------------------------------------------------

def brute_symmetric_ratio(a, b, c, grid=30):
    worst = 0.0
    for i in range(grid + 1):
        for j in range(grid + 1):
            p, q = i / 5.0, j / 5.0
            if p + q == 0:
                continue
            lhs = (abs(a * p + b * q) + abs(b * p + a * q)) / (2 * c)
            worst = max(worst, lhs / ((p + q) / 2))
    return worst


def test_flagship_symmetric_ratio_is_four_fifths():
    assert brute_symmetric_ratio(1, 3, 5) == pytest.approx(0.8, rel=1e-12)


def test_symmetric_holds_on_flagship_with_eighth(samet):
    rep = cf.check_symmetric_mk(samet.operator, [0.1, 1.0, 10.0], EIGHTH,
                                samples=3000, seed=0)
    assert rep.verdict == "holds_on_samples"
    assert [eps for eps, _ in rep.band_hits] == [0.1, 1.0, 10.0]
    assert all(hits >= 2500 for _, hits in rep.band_hits)
    assert rep.epsilon_grid == [(0.1, 0.1 / 8), (1.0, 1.0 / 8), (10.0, 10.0 / 8)]


def test_symmetric_fails_on_flagship_with_half(samet):
    # ratio is exactly 4/5, so half-sums at or above 1.25*eps inside the band
    # [eps, 1.5*eps) violate the conclusion
    rep = cf.check_symmetric_mk(samet.operator, [1.0], lambda e: e / 2,
                                samples=3000, seed=0)
    assert rep.verdict == "fails"
    w = rep.witness
    assert w.measured["half_sum"] >= 1.25 * (1 - 1e-12)
    assert cf.reverify_witness(samet.operator, rep)["violated"]


def test_symmetric_constant_operator_holds():
    prob = cf.builtin("linear(0,0,1)")
    rep = cf.check_symmetric_mk(prob.operator, [1.0], lambda e: e, samples=500, seed=0)
    assert rep.verdict == "holds_on_samples"


def _conclusion_via_pairs(op, x, y, u, v):
    return cf.d2(cf.product_T(op, PairPoint(x, y)), cf.product_T(op, PairPoint(u, v)), op.space)


REAL_MAPS = {
    "linear": lambda a, b, c: lambda x, y: (a * x - b * y) / c,
    "tanh": lambda a, b, c: lambda x, y: (a * x - b * math.tanh(y)) / c,
    "atan": lambda a, b, c: lambda x, y: (a * math.atan(x) - b * y) / c,
}
coeff = st.floats(min_value=0.0, max_value=3.0)
real_point = st.floats(min_value=-10.0, max_value=10.0)


@given(family=st.sampled_from(sorted(REAL_MAPS)), a=coeff, b=coeff,
       c=st.floats(min_value=0.5, max_value=6.0),
       x=real_point, y=real_point, u=real_point, v=real_point)
@settings(max_examples=300)
@example(family="linear", a=1.0, b=0.0, c=1.0, x=5e-324, y=0.0, u=0.0, v=0.0)
def test_banded_conclusion_routes_agree_generic(family, a, b, c, x, y, u, v):
    # the symmetric conclusion is d2 of the pair-map images, bit for bit
    op = cf.CoupledOperator(apply=REAL_MAPS[family](a, b, c), space=cf.real_line())
    assert _banded_conclusion(op, x, y, u, v, True) == _conclusion_via_pairs(op, x, y, u, v)


@pytest.mark.parametrize("name", ["diamond5.json", "chain3_monotone.json"])
def test_banded_conclusion_routes_agree_finite(name):
    op = cf.load_finite(fixture_path(name)).operator
    els = op.space.finite.elements
    for x, y, u, v in itertools.product(els, repeat=4):
        assert _banded_conclusion(op, x, y, u, v, True) == _conclusion_via_pairs(op, x, y, u, v)


NAN_CHECKS = {
    "check_samet": lambda op: cf.check_samet(op, [1.0], EIGHTH, samples=500, seed=0),
    "check_symmetric_mk": lambda op: cf.check_symmetric_mk(op, [1.0], EIGHTH, samples=500, seed=0),
    "check_banach_k": lambda op: cf.check_banach_k(op, 0.5, samples=500, seed=0),
    "check_strict_contraction": lambda op: cf.check_strict_contraction(op, samples=500, seed=0),
}


@pytest.mark.parametrize("check", sorted(NAN_CHECKS))
def test_nan_conclusion_is_a_reverifying_failure(check):
    # every condition, not only the banded ones, must treat a NaN image
    # distance as a violation, or verify contradicts the implication chain;
    # in the generic and in the kernel lane
    for op in (nan_beyond_five(), nan_beyond_five(vectorized=True)):
        rep = NAN_CHECKS[check](op)
        assert rep.verdict == "fails"
        measured = rep.witness.measured
        assert math.isnan(measured["d2_after"] if "d2_after" in measured else measured["lhs"])
        assert cf.reverify_witness(op, rep)["violated"] is True


def _leaving_operator():
    # F(x, y) = 5 + x sends [-1, 1] outside itself; on comparable quadruples
    # every conclusion equals its bound, so each sampled check fails
    space = dataclasses.replace(cf.real_line(1), contains=lambda x: -1 <= x <= 1, kind="custom")
    return cf.CoupledOperator(apply=lambda x, y: 5 + x, space=space)


@pytest.mark.parametrize("check", sorted(NAN_CHECKS))
def test_sampled_checks_do_not_test_images_for_membership(check):
    # the checks measure F's images without a membership test, strict as the
    # others; solve, below, still rejects an image outside the space. The
    # points themselves stay in it: the band construction drops a leg it
    # steps outside [-1, 1], so every witness re-verifies
    op = _leaving_operator()
    assert evaluation_lane(op) == "generic"
    rep = NAN_CHECKS[check](op)
    assert rep.verdict == "fails"
    assert all(math.isfinite(value) for value in rep.witness.measured.values())
    w = rep.witness
    assert all(op.space.member(p) for p in (w.x, w.y, w.u, w.v))
    assert cf.reverify_witness(op, rep)["violated"] is True


def test_solve_rejects_an_image_outside_the_space():
    with pytest.raises(cf.DomainMismatchError, match="is not in real line"):
        cf.solve(_leaving_operator(), PairPoint(0.0, 0.0), require_admissible=False)


def test_nan_conclusion_rejects_every_delta():
    for op in (nan_beyond_five(), nan_beyond_five(vectorized=True)):
        assert cf.estimate_delta_curve(op, [1.0], samples=200, seed=0) == [(1.0, 0.0)]


def test_symmetric_generic_lane_agrees_with_kernel_verdicts(samet):
    # same formula without the linear tag goes through the generic banded
    # search and must reach the same verdicts
    space = cf.real_line()
    op = cf.CoupledOperator(apply=lambda x, y: (x - 3 * y) / 5, space=space)
    rep = cf.check_symmetric_mk(op, [1.0], EIGHTH, samples=1500, seed=0)
    assert rep.verdict == "holds_on_samples"
    rep = cf.check_samet(op, [1.0], EIGHTH, samples=1500, seed=0)
    assert rep.verdict == "fails"
    assert rep.witness.x == rep.witness.u
    assert cf.reverify_witness(op, rep)["violated"]


# --- strict contraction ----------------------------------------------------

def test_strict_holds_on_flagship(samet):
    rep = cf.check_strict_contraction(samet.operator, samples=3000, seed=0)
    assert rep.verdict == "holds_on_samples"


def test_strict_fails_for_projection():
    # F(x, y) = x makes T the identity: distances never shrink, on the kernel
    # and on the generic lane; diamond5 fails too. Each witness's d2 after is
    # d2 of the pair-map images, measured apart from the check
    prob = cf.builtin("linear(1,0,1)")
    ops = [prob.operator, cf.CoupledOperator(apply=prob.operator.apply, space=prob.space),
           cf.load_finite(fixture_path("diamond5.json")).operator]
    assert [evaluation_lane(op) for op in ops] == ["kernel", "generic", "finite"]
    for op in ops:
        rep = cf.check_strict_contraction(op, samples=2000, seed=0)
        assert rep.verdict == "fails"
        w = rep.witness
        assert w.measured["d2_after"] >= w.measured["d2_before"] * (1 - 1e-12)
        images = (cf.product_T(op, PairPoint(w.x, w.y)), cf.product_T(op, PairPoint(w.u, w.v)))
        assert w.measured["d2_after"] == cf.d2(*images, op.space)
        assert cf.reverify_witness(op, rep)["violated"]


def test_strict_spec_pair_arithmetic():
    f = lambda x, y: x
    Y, V = (1.0, 0.0), (0.0, 0.0)
    before = (abs(Y[0] - V[0]) + abs(Y[1] - V[1])) / 2
    after = (abs(f(*Y) - f(*V)) + abs(f(Y[1], Y[0]) - f(V[1], V[0]))) / 2
    assert before == 0.5 and after == 0.5  # not a strict decrease


def test_strict_constant_operator_holds():
    prob = cf.builtin("linear(0,0,1)")
    rep = cf.check_strict_contraction(prob.operator, samples=500, seed=0)
    assert rep.verdict == "holds_on_samples"


def test_strict_inconclusive_on_antichain():
    space = antichain_reals()
    op = cf.CoupledOperator(apply=lambda x, y: x / 2, space=space)
    rep = cf.check_strict_contraction(op, samples=300, seed=0)
    assert rep.verdict == "inconclusive"


# --- implication chain -----------------------------------------------------

CHAIN_TRIPLES = [
    (1.0, 1.0, 4.0),
    (2.0, 2.0, 5.0),
    (1.0, 2.0, 8.0),
    (3.0, 1.0, 10.0),
    (0.5, 2.0, 6.0),
    (0.0, 1.0, 3.0),
]


@pytest.mark.parametrize("a,b,c", CHAIN_TRIPLES)
def test_implication_chain_with_tight_constant(a, b, c):
    # the coordinatewise bound gives k = 2*max(a,b)/c < 1; the chain
    # banach -> samet -> symmetric must then hold with delta from k
    k = 2 * max(a, b) / c
    assert k < 1
    prob = cf.builtin(f"linear({a},{b},{c})")
    op = prob.operator
    delta = lambda e: cf.delta_from_k(k, e)
    assert cf.check_banach_k(op, k, samples=2000, seed=5).verdict == "holds_on_samples"
    assert cf.check_samet(op, [0.5, 2.0], delta, samples=2000, seed=5).verdict == "holds_on_samples"
    assert cf.check_symmetric_mk(op, [0.5, 2.0], delta, samples=2000, seed=5).verdict == "holds_on_samples"


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_chain_never_inverts(idx):
    # randomized triples: whenever banach holds at k, the banded checks with
    # delta from k may not fail
    import random as _r

    rng = _r.Random(idx)
    a = rng.uniform(0, 3)
    b = rng.uniform(0, 3)
    c = rng.uniform(0.5, 10)
    k = 2 * max(a, b) / c
    if not 0 < k < 1:
        return
    op = cf.make_linear(a, b, c).operator
    delta = lambda e: cf.delta_from_k(k, e)
    if cf.check_banach_k(op, k, samples=600, seed=idx).verdict == "holds_on_samples":
        assert cf.check_samet(op, [1.0], delta, samples=600, seed=idx).verdict != "fails"
        assert cf.check_symmetric_mk(op, [1.0], delta, samples=600, seed=idx).verdict != "fails"


linear_coeff = st.floats(min_value=0.0, max_value=3.0)


def test_vectorized_real_line_map_takes_the_kernel_lane():
    assert evaluation_lane(np_tanh_operator(vectorized=True)) == "kernel"
    assert evaluation_lane(np_tanh_operator()) == "generic"
    assert evaluation_lane(cf.builtin("samet_example").operator) == "kernel"


@given(a=linear_coeff, b=linear_coeff, c=st.floats(min_value=0.5, max_value=6.0),
       k=st.floats(min_value=0.05, max_value=0.95),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_every_failure_reverifies_in_kernel_and_generic_lanes(a, b, c, k, seed):
    # the linear map and the np.tanh map, each vectorized (kernel lane) and
    # as a plain callable (generic lane); each "fails" must re-violate its
    # condition
    linear = cf.make_linear(a, b, c).operator
    maps = (linear, np_tanh_operator(a, b, c, vectorized=True))
    ops = [op for m in maps for op in (m, cf.CoupledOperator(apply=m.apply, space=m.space))]
    for op in ops:
        reports = [
            cf.check_banach_k(op, k, samples=300, seed=seed),
            cf.check_samet(op, [0.5, 2.0], EIGHTH, samples=300, seed=seed),
            cf.check_symmetric_mk(op, [0.5, 2.0], EIGHTH, samples=300, seed=seed),
            cf.check_strict_contraction(op, samples=300, seed=seed),
        ]
        for rep in reports:
            if rep.verdict == "fails":
                assert cf.reverify_witness(op, rep)["violated"] is True, rep.condition_id


def test_reverify_rejects_witness_outside_the_space():
    op = cf.load_finite(fixture_path("diamond5.json")).operator
    rep = cf.check_banach_k(op, 0.5)
    assert rep.verdict == "fails"
    rep.witness.x = "not-an-element"
    with pytest.raises(cf.InputError):
        cf.reverify_witness(op, rep)


def _with_witness_at(rep, x, y, u, v):
    rep.witness = dataclasses.replace(rep.witness, x=x, y=y, u=u, v=v)
    return rep


def test_reverify_rejects_a_non_comparable_quadruple():
    # (bot, bot, top, bot) breaks the banach inequality, but u <= x fails,
    # so banach_k does not quantify over it; nor over any other quadruple
    # without u <= x and y <= v
    op = cf.load_finite(fixture_path("diamond5.json")).operator
    space = op.space
    rep = cf.check_banach_k(op, 0.9)
    assert rep.verdict == "fails"
    got = cf.reverify_witness(op, _with_witness_at(rep, "bot", "bot", "top", "bot"))
    assert got["lhs"] > got["rhs"] and got["violated"] is False
    for x, y, u, v in itertools.product(space.finite.elements, repeat=4):
        if not (space.leq(u, x) is True and space.leq(y, v) is True):
            assert cf.reverify_witness(op, _with_witness_at(rep, x, y, u, v))["violated"] is False


def test_reverify_strict_rejects_a_quadruple_without_distance(samet):
    # equal pairs are no strictly comparable distinct pairs: d2 before is 0
    rep = cf.ConditionReport("strict_contraction", "fails",
                             witness=cf.Witness(x=1.0, y=2.0, u=1.0, v=2.0))
    got = cf.reverify_witness(samet.operator, rep)
    assert got == {"d2_before": 0.0, "d2_after": 0.0, "violated": False}


@pytest.mark.parametrize("cid, measured, key", [
    ("banach_k", {}, "k"), ("samet_mk", {"eps": 1.0}, "delta"),
    ("symmetric_mk", {"delta": 0.5, "lhs": 0.1}, "eps"),
], ids=["banach_k", "samet_mk", "symmetric_mk"])
def test_reverify_names_a_missing_measured_param(samet, cid, measured, key):
    # a witness rebuilt from an edited artifact may lack a param of its condition
    rep = cf.ConditionReport(cid, "fails",
                             witness=cf.Witness(x=1.0, y=2.0, u=0.0, v=3.0, measured=measured))
    with pytest.raises(cf.InputError, match=f"{cid} witness lacks the measured '{key}'"):
        cf.reverify_witness(samet.operator, rep)


def _huge_sampler(count, seed):
    # finite points whose distances overflow to inf
    rng = random.Random(seed)
    return [1e308 * (2.0 * rng.random() - 1.0) for _ in range(count)]


def _zero_operators():
    """F = 0 where every d2 after is 0, so it contracts strictly: on the
    kernel lane over a real line whose sampling radius is 1e308, on the
    generic lane over a real line whose sampler spans +-1e308; both draw pairs
    with an infinite d2 before."""
    import numpy as np

    # real_line(1e308) is rejected: its box is 2e308 wide, so its sampler
    # would draw only inf; the kernel lane reads sample_radius alone
    kernel = cf.CoupledOperator(apply=lambda x, y: np.zeros(np.shape(x)),
                                space=dataclasses.replace(cf.real_line(), sample_radius=1e308),
                                vectorized=True)
    space = dataclasses.replace(cf.real_line(), sampler=_huge_sampler)
    return {"kernel": kernel, "generic": cf.CoupledOperator(apply=lambda x, y: 0.0, space=space)}


@pytest.mark.parametrize("lane", ["kernel", "generic"])
def test_strict_does_not_count_an_infinite_d2_before(lane):
    # an infinite d2 before bounds nothing: its slackened value is NaN, which
    # no d2 after stays below, so counting it would mint a false witness
    op = _zero_operators()[lane]
    assert evaluation_lane(op) == lane
    rep = cf.check_strict_contraction(op, samples=300, seed=0)
    assert rep.verdict == "holds_on_samples"
    assert 0 < rep.comparable_pairs_used < 300
    witness = cf.Witness(x=1e308, y=0.0, u=-1e308, v=0.0)
    got = cf.reverify_witness(op, cf.ConditionReport("strict_contraction", "fails",
                                                     witness=witness))
    assert got["d2_before"] == math.inf and got["violated"] is False


# the measured keys of a "fails" witness, and reverify_witness's keys less
# "violated" and "in_band", per condition
MEASURED_KEYS = {
    "banach_k": (lambda op: cf.check_banach_k(op, 0.5, samples=500), {"lhs", "rhs", "k"},
                 {"lhs", "rhs"}),
    "samet_mk": (lambda op: cf.check_samet(op, [0.5, 1.0], EIGHTH, samples=500),
                 {"eps", "delta", "half_sum", "lhs"}, {"half_sum", "lhs"}),
    "symmetric_mk": (lambda op: cf.check_symmetric_mk(op, [0.5, 1.0], lambda e: e, samples=500),
                     {"eps", "delta", "half_sum", "lhs"}, {"half_sum", "lhs"}),
    "strict_contraction": (lambda op: cf.check_strict_contraction(op, samples=500),
                           {"d2_before", "d2_after"}, {"d2_before", "d2_after"}),
}


@pytest.mark.parametrize("cid", sorted(MEASURED_KEYS))
def test_measured_keys_agree_across_lanes(cid, samet):
    # samet_example contracts strictly, so the kernel and generic lanes take
    # the expansive linear(1,1,1.5) for strict_contraction
    check, measured, recomputed = MEASURED_KEYS[cid]
    kernel = samet.operator if cid != "strict_contraction" else cf.make_linear(1, 1, 1.5).operator
    generic = cf.CoupledOperator(apply=kernel.apply, space=kernel.space)
    finite = cf.load_finite(fixture_path("diamond5.json")).operator
    for op, lane in ((kernel, "kernel"), (generic, "generic"), (finite, "finite")):
        assert evaluation_lane(op) == lane
        rep = check(op)
        assert rep.verdict == "fails", lane
        assert set(rep.witness.measured) == measured, lane
        assert set(cf.reverify_witness(op, rep)) - {"violated", "in_band"} == recomputed, lane


# --- delta curve -----------------------------------------------------------

def test_delta_curve_flagship(samet):
    curve = cf.estimate_delta_curve(samet.operator, [1.0], samples=2000, seed=0)
    (eps, dmax), = curve
    assert eps == 1.0
    # analytic supremum is eps/4: (4/5)(eps + delta) < eps iff delta < eps/4
    assert 0.25 <= dmax <= 0.26


def test_delta_curve_scales_with_eps(samet):
    curve = cf.estimate_delta_curve(samet.operator, [0.1, 10.0], samples=1500, seed=0)
    for eps, dmax in curve:
        assert 0.25 * eps <= dmax <= 0.26 * eps


def test_delta_curve_zero_for_expansion():
    prob = cf.builtin("linear(2,0,1)")
    curve = cf.estimate_delta_curve(prob.operator, [1.0], samples=800, seed=0)
    assert curve == [(1.0, 0.0)]


def test_delta_curve_reaches_banach_bound():
    # constant 1/2 guarantees delta(eps) >= eps; the symmetric supremum for
    # this map is exactly eps
    prob = cf.builtin("linear(1,1,4)")
    curve = cf.estimate_delta_curve(prob.operator, [1.0], samples=2000, seed=0)
    (eps, dmax), = curve
    assert dmax >= 0.999 * cf.delta_from_k(0.5, eps)
    assert dmax <= 1.05


def test_delta_curve_caps_for_constant_map():
    prob = cf.builtin("linear(0,0,1)")
    curve = cf.estimate_delta_curve(prob.operator, [1.0], samples=400, seed=0)
    assert curve == [(1.0, 10.0)]


def counted_sweeps(monkeypatch):
    """Wrap the kernel lane's batched band sweep; the list collects the
    bands of each call (one batched sweep per phase)."""
    batches = []
    sweeps = kernels._band_sweeps

    def counted(op, bands, *args):
        batches.append(len(bands))
        return sweeps(op, bands, *args)

    monkeypatch.setattr(kernels, "_band_sweeps", counted)
    return batches


def test_delta_curve_rounds_run_in_lockstep(samet, monkeypatch):
    # the CLI's curve of samet_example: grid 0.1/1/10, 2000 samples, seed 0.
    # 17 batched sweeps, where shrinking each band to its first violation made
    # 35, and one band_sweep per eps and phase 63
    batches = counted_sweeps(monkeypatch)
    cf.estimate_delta_curve(samet.operator, [0.1, 1.0, 10.0], samples=2000, seed=0)
    assert len(batches) <= 17
    assert batches[0] == 3  # the probes of the three eps share their first sweep


def test_holding_banded_check_makes_one_sweep_per_phase(monkeypatch):
    batches = counted_sweeps(monkeypatch)
    rep = cf.check_symmetric_mk(cf.builtin("linear(1,1,4)").operator, [0.1, 1.0, 10.0],
                                EIGHTH, samples=2000, seed=0)
    assert rep.verdict == "holds_on_samples"
    assert batches == [3, 3, 3]  # x_equals_u, y_equals_v, random


@given(a=st.integers(min_value=0, max_value=8), b=st.integers(min_value=0, max_value=8),
       c=st.integers(min_value=1, max_value=16),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=120, deadline=None)
def test_delta_curve_is_the_smallest_violating_half_sum(a, b, c, seed):
    # the symmetric conclusion of linear(a,b,c) is exactly s * half-sum, so
    # the violating half-sums are those >= eps/s: the curve is
    # delta* = eps (1/s - 1), capped at 10 eps, in the kernel and generic lanes
    s = (a + b) / c
    linear = cf.make_linear(a, b, c).operator
    for op in (linear, cf.CoupledOperator(apply=linear.apply, space=linear.space)):
        for eps, dmax in cf.estimate_delta_curve(op, [0.5, 2.0], samples=300, seed=seed):
            if s >= 1:
                assert dmax == 0.0
                continue
            star = min(eps * (1 / s - 1), 10 * eps) if s else 10 * eps
            assert star * (1 - 1e-9) <= dmax <= min(10 * eps, 1.05 * star + 1e-9 * eps), \
                (evaluation_lane(op), eps, dmax, star)


# --- the generic band lane, recounted ---------------------------------------

_GRID3 = (-1.0, 0.0, 1.0)


def _r2_grid(hook):
    """R^2 with the L1 metric and the componentwise order, sampled on the
    grid {-1, 0, 1}^2: many point pairs are incomparable, and a ninth equal."""

    def distance(p, q):
        return abs(p[0] - q[0]) + abs(p[1] - q[1])

    def leq(p, q):
        if p[0] <= q[0] and p[1] <= q[1]:
            return True
        if q[0] <= p[0] and q[1] <= p[1]:
            return False
        return INCOMPARABLE

    def sampler(count, seed):
        rng = random.Random(seed)
        return [(rng.choice(_GRID3), rng.choice(_GRID3)) for _ in range(count)]

    return cf.SpaceModel(distance=distance, leq=leq, sampler=sampler,
                         description="componentwise R^2 grid", interpolate=hook)


def _overshooting(p, q, t):
    # affine up to q; asked to step past it, the hook also drifts by
    # (2, -1) times the excess, so some legs leave the order and the others
    # the band
    over = max(t - 1.0, 0.0)
    return (p[0] + t * (q[0] - p[0]) + 2 * over, p[1] + t * (q[1] - p[1]) - over)


def _quarter_difference(p, q):
    # on comparable quadruples each conclusion is half the half-sum, so a
    # band fails exactly where it reaches 2 eps
    return ((p[0] - q[0]) / 4, (p[1] - q[1]) / 4)


R2_OPERATORS = {name: cf.CoupledOperator(apply=_quarter_difference, space=_r2_grid(hook))
                for name, hook in (("rejection", None), ("interpolate", _overshooting))}
# with the real line, through its affine hook and a plain callable, as
# generic_api runs it; there the conclusions are again half the half-sum
GENERIC_OPERATORS = {**R2_OPERATORS,
                     "real_line": cf.CoupledOperator(apply=lambda x, y: (x - y) / 4,
                                                     space=cf.real_line())}


def _oriented_pair(space, a, b):
    if space.leq(a, b) is True:
        return a, b
    if space.leq(b, a) is True:
        return b, a
    return None


def _recount_band(op, eps, delta, e_idx, probe, base, samples, seed, symmetric, tally):
    """The generic lane's draws for the band [eps, eps + delta), recounted
    one quadruple at a time: (in-band quadruples up to the first violation,
    the violation's (x, y, u, v, half-sum) or None, draws). tally counts the
    draws dropped, by reason."""
    space, F, dist = op.space, op.apply, op.space.distance

    def quadruples():
        # yields (phase draws, that phase's comparable quadruples)
        if space.interpolate is None:
            rng_seed = stream_seed(seed, _tag(base, e_idx, 0, probe)) & 0x7FFFFFFF
            pool = space.sampler(4 * samples, rng_seed)
            quads = []
            for t in range(len(pool) // 4):
                px, py = (_oriented_pair(space, *pool[4 * t + k:4 * t + k + 2]) for k in (0, 2))
                if px is None or py is None:
                    tally["incomparable"] += 1
                    continue
                quads.append((px[1], py[0], px[0], py[1]))
            yield len(pool) // 4, quads
            return
        width = delta if delta < math.inf else min(DELTA_CAP_FACTOR * eps, sys.float_info.max - eps)
        n_adv = max(1, samples // 10)
        for mode, count in ((1, n_adv), (2, n_adv), (0, samples - 2 * n_adv)):
            if count <= 0:
                continue
            rng = random.Random(stream_seed(seed, _tag(base, e_idx, mode, probe)))
            pool = space.sampler(4 * count, rng.getrandbits(31))
            quads = []
            for t in range(len(pool) // 4):
                h = eps + rng.random() * width
                px, py = (_oriented_pair(space, *pool[4 * t + k:4 * t + k + 2]) for k in (0, 2))
                if px is None or py is None:
                    tally["incomparable"] += 1
                    continue
                (u0, x), (y, v0) = px, py
                s = rng.random() if mode == 0 else (0.0 if mode == 1 else 1.0)
                legs = []
                for a, b, length in ((x, u0, 2 * h * s), (y, v0, 2 * h - 2 * h * s)):
                    if length == 0:
                        legs.append(a)
                    elif dist(a, b) == 0:
                        tally["zero_leg"] += 1
                        break
                    else:
                        legs.append(space.interpolate(a, b, length / dist(a, b)))
                if len(legs) < 2:
                    continue
                u, v = legs
                if space.leq(u, x) is not True or space.leq(y, v) is not True:
                    tally["hook_left_the_order"] += 1
                    continue
                quads.append((x, y, u, v))
            yield len(pool) // 4, quads

    hits = used = 0
    for draws, quads in quadruples():
        used += draws
        for x, y, u, v in quads:
            half = (dist(x, u) + dist(y, v)) / 2
            if not eps <= half < eps + delta:
                tally["out_of_band"] += 1
                continue
            hits += 1
            lhs = dist(F(x, y), F(u, v))
            if symmetric:
                lhs = (lhs + dist(F(y, x), F(v, u))) / 2
            if not lhs < eps + 1e-12 * max(1.0, eps):
                return hits, (x, y, u, v, half), used
    return hits, None, used


@pytest.mark.parametrize("rule", [lambda e: e / 2, lambda e: 3 * e], ids=["half", "triple"])
@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("name", sorted(GENERIC_OPERATORS))
def test_generic_banded_checks_match_a_recount(name, symmetric, rule):
    op = GENERIC_OPERATORS[name]
    assert evaluation_lane(op) == "generic"
    grid, samples, seed = [0.5, 1.0, 1.5], 300, 5
    check = cf.check_symmetric_mk if symmetric else cf.check_samet
    base = _BASES["symmetric_mk" if symmetric else "samet_mk"]
    rep = check(op, grid, rule, samples=samples, seed=seed)
    tally = collections.Counter()
    band_hits, used, hit = [], 0, None
    for i, eps in enumerate(grid):
        hits, hit, draws = _recount_band(op, eps, rule(eps), i, 0, base, samples, seed,
                                         symmetric, tally)
        band_hits.append((eps, hits))
        used += draws
        if hit is not None:
            break
    assert (rep.band_hits, rep.samples_used) == (band_hits, used)
    assert rep.verdict == ("fails" if hit else "holds_on_samples")
    if hit:
        w = rep.witness
        assert (w.x, w.y, w.u, w.v, w.measured["half_sum"]) == hit
        assert cf.reverify_witness(op, rep)["violated"] is True
        return
    # a holding check reads every draw: each way a draw can miss the band
    # occurs; on the real line every pair is comparable and the affine hook
    # lands each quadruple in the band, so none misses it
    if name == "real_line":
        assert not tally
        return
    reasons = {"incomparable", "out_of_band"}
    if name == "interpolate":
        reasons |= {"zero_leg", "hook_left_the_order"}
    assert reasons <= {reason for reason, n in tally.items() if n}


@pytest.mark.parametrize("name", sorted(GENERIC_OPERATORS))
def test_generic_delta_curve_matches_a_recount(name):
    op = GENERIC_OPERATORS[name]
    grid, samples, seed = [0.5, 1.0], 300, 3
    tally = collections.Counter()
    expected = []
    for i, eps in enumerate(grid):
        # a thin probe, then rounds that shrink delta to their witness's
        # half-sum less eps until one finds none
        probe, delta, hit = 0, eps * 1e-9, True
        while hit:
            hit = _recount_band(op, eps, delta, i, probe, _BASES["curve"], samples, seed, True,
                                tally)[1]
            if probe == 0:
                delta = 0.0 if hit else DELTA_CAP_FACTOR * eps
                hit = not hit
            elif hit:
                delta = hit[4] - eps
            probe += 1
        expected.append((eps, delta))
    got = cf.estimate_delta_curve(op, grid, samples=samples, seed=seed)
    assert got == expected
    # a band fails from a half-sum of 2 eps on, so no entry is below eps
    assert all(eps <= delta < DELTA_CAP_FACTOR * eps for eps, delta in got)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_finite_curve_matches_oracle(data):
    # random weighted chains with arbitrary tables: several violating
    # half-sums per eps, in no particular order along the enumeration
    n = data.draw(st.integers(min_value=1, max_value=5), label="n")
    steps = data.draw(st.lists(st.integers(min_value=1, max_value=4),
                               min_size=n - 1, max_size=n - 1), label="steps")
    table = data.draw(st.lists(st.lists(st.integers(min_value=0, max_value=n - 1),
                                        min_size=n, max_size=n),
                               min_size=n, max_size=n), label="F")
    pos = list(itertools.accumulate([0] + steps))
    doc = {
        "elements": list(range(n)),
        "distance": [[abs(p - q) for q in pos] for p in pos],
        "leq": [[int(i <= j) for j in range(n)] for i in range(n)],
        "F": table,
    }
    space = cf.finite_space(doc["elements"], doc["distance"], doc["leq"])
    op = cf.CoupledOperator(apply=lambda x, y: table[x][y], space=space)
    grid = [0.5, 1.0, 2.0, 3.0]
    expected = [(eps, oracle.oracle_delta_curve(doc, eps, 10 * eps)) for eps in grid]
    assert cf.estimate_delta_curve(op, grid) == expected


@st.composite
def random_posets(draw):
    """A random finite poset: the transitive closure of random edges i -> j
    (i < j) relabelled by a random permutation, so incomparable elements are
    common and the order is not the index order. Off-diagonal distances lie
    in [1, 2] (any such matrix is a metric) with denominators 1 to 6, and F
    is an arbitrary table."""
    n = draw(st.integers(min_value=1, max_value=5), label="n")
    below = [[i == j or (i < j and draw(st.booleans())) for j in range(n)] for i in range(n)]
    for k, i, j in itertools.product(range(n), repeat=3):
        below[i][j] = below[i][j] or (below[i][k] and below[k][j])
    perm = draw(st.permutations(range(n)), label="perm")
    frac = st.integers(min_value=1, max_value=6).flatmap(
        lambda q: st.integers(min_value=q, max_value=2 * q).map(lambda p: Fraction(p, q)))
    dist = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        dist[i][j] = dist[j][i] = draw(frac)
    table = draw(st.lists(st.lists(st.integers(min_value=0, max_value=n - 1),
                                   min_size=n, max_size=n), min_size=n, max_size=n), label="F")
    doc = {
        "elements": list(range(n)),
        "distance": dist,
        "leq": [[int(below[perm[i]][perm[j]]) for j in range(n)] for i in range(n)],
        "F": table,
    }
    space = cf.finite_space(doc["elements"], doc["distance"], doc["leq"])
    return doc, cf.CoupledOperator(apply=lambda x, y: table[x][y], space=space)


BAND_GRIDS = [[0.5], [0.6, 1.0, 1.25], [1 / 3, 0.75, 1.5, 2.0]]
BAND_RULES = [EIGHTH, lambda e: e / 2, lambda e: 0.3, lambda e: cf.delta_from_k(0.0, e)]


@given(problem=random_posets(), grid=st.sampled_from(BAND_GRIDS),
       rule=st.sampled_from(BAND_RULES), symmetric=st.booleans())
@settings(max_examples=150, deadline=None)
def test_banded_reports_match_oracle(problem, grid, rule, symmetric):
    # verdict, witness, half-sum and every count, against the brute force
    doc, op = problem
    band_hits, witness = [], None
    for eps in grid:
        hits, witness = oracle.oracle_band_first_violation(doc, eps, rule(eps), symmetric)
        band_hits.append((eps, hits))
        if witness is not None:
            break
    total = sum(h for _, h in band_hits)
    check = cf.check_symmetric_mk if symmetric else cf.check_samet
    rep = check(op, grid, rule)
    assert rep.band_hits == band_hits
    assert rep.samples_used == rep.comparable_pairs_used == total
    if witness is None:
        assert rep.verdict == ("holds_on_samples" if total else "inconclusive")
        assert rep.witness is None
        return
    ix, iy, iu, iv = witness
    dist = doc["distance"]
    assert rep.verdict == "fails"
    assert (rep.witness.x, rep.witness.y, rep.witness.u, rep.witness.v) == witness
    assert rep.witness.measured["half_sum"] == (dist[ix][iu] + dist[iy][iv]) / 2
    assert rep.witness.measured["eps"] == grid[len(band_hits) - 1]


@given(problem=random_posets())
@settings(max_examples=80, deadline=None)
def test_finite_curve_matches_oracle_on_posets(problem):
    doc, op = problem
    grid = [0.5, 0.75, 1.0, 1.5]
    expected = [(eps, oracle.oracle_delta_curve(doc, eps, 10 * eps)) for eps in grid]
    assert cf.estimate_delta_curve(op, grid) == expected


@given(problem=random_posets(), k=st.sampled_from([0, Fraction(1, 3), 0.5, 0.9]))
@settings(max_examples=200, deadline=None)
def test_finite_checks_match_oracle(problem, k):
    # verdict, witness and count of the exhaustive mixed-monotone, banach_k
    # and strict checks, against the brute force; every failure re-verifies
    doc, op = problem
    cases = [
        (cf.check_mixed_monotone(op), oracle.oracle_mixed_monotone(doc),
         oracle.oracle_monotone_first_violation(doc)),
        (cf.check_banach_k(op, k), oracle.oracle_banach(doc, k),
         oracle.oracle_banach_first_violation(doc, k)),
        (cf.check_strict_contraction(op), oracle.oracle_strict(doc),
         oracle.oracle_strict_first_violation(doc)),
    ]
    for rep, verdict, (walked, first) in cases:
        assert rep.verdict == verdict, rep.condition_id
        assert rep.samples_used == rep.comparable_pairs_used == walked, rep.condition_id
        if first is None:
            assert rep.witness is None
            continue
        w = rep.witness
        assert (w.x, w.y, w.u, w.v) == first, rep.condition_id
        assert cf.reverify_witness(op, rep)["violated"] is True


@given(problem=random_posets())
@settings(max_examples=200, deadline=None)
def test_mixed_monotone_is_the_pair_map_test_on_posets(problem):
    # the two clauses hold exactly when F(u, v) <= F(x, y) on every
    # comparable quadruple, the one test that the checkers run; the
    # exhaustive check agrees, and every witness re-verifies, the sampled
    # one of the same poset without its tables too
    doc, op = problem
    verdict = oracle.oracle_pair_map_monotone(doc)
    assert oracle.oracle_mixed_monotone(doc) == verdict
    rep = cf.check_mixed_monotone(op)
    assert rep.verdict == verdict
    sampled = dataclasses.replace(op, space=dataclasses.replace(op.space, finite=None))
    for o, r in ((op, rep), (sampled, cf.check_mixed_monotone(sampled, samples=200))):
        assert r.witness is None or cf.reverify_witness(o, r)["violated"] is True
    assert verdict == "fails" or r.witness is None


def _weighted_chain(n, table):
    # elements 0..n-1 at positions 1, 3, 6, ...: distinct points, unequal gaps
    pos = list(itertools.accumulate(range(1, n + 1)))
    space = cf.finite_space(range(n), [[abs(p - q) for q in pos] for p in pos],
                            [[int(i <= j) for j in range(n)] for i in range(n)])
    return cf.CoupledOperator(apply=lambda x, y: table[x][y], space=space)


def test_strict_enumerates_every_quadruple_of_a_40_chain():
    # 820 x 820 comparable quadruples, less the 40 x 40 with zero half-sum
    op = _weighted_chain(40, [[7] * 40 for _ in range(40)])
    rep = cf.check_strict_contraction(op)
    assert rep.verdict == "holds_on_samples"
    assert rep.comparable_pairs_used == rep.samples_used == 670_800


FINITE_ENTRY_POINTS = {
    "check_mixed_monotone": lambda op: cf.check_mixed_monotone(op),
    "check_banach_k": lambda op: cf.check_banach_k(op, 0.5),
    "check_samet": lambda op: cf.check_samet(op, [1.0], EIGHTH),
    "check_symmetric_mk": lambda op: cf.check_symmetric_mk(op, [1.0], EIGHTH),
    "check_strict_contraction": lambda op: cf.check_strict_contraction(op),
    "estimate_delta_curve": lambda op: cf.estimate_delta_curve(op, [1.0]),
}


@pytest.mark.parametrize("image", ["zz", ["a"]], ids=["label", "unhashable"])
@pytest.mark.parametrize("check", sorted(FINITE_ENTRY_POINTS))
def test_finite_image_outside_the_space_is_a_domain_mismatch(check, image):
    space = cf.finite_space("ab", [[0, 1], [1, 0]], [[1, 1], [0, 1]])
    op = cf.CoupledOperator(apply=lambda x, y: image if (x, y) == ("b", "a") else x,
                            space=space)
    with pytest.raises(cf.DomainMismatchError, match=re.escape(f"F('b', 'a') = {image!r}")):
        FINITE_ENTRY_POINTS[check](op)


@pytest.mark.parametrize("check", sorted(FINITE_ENTRY_POINTS))
def test_loaded_finite_operator_is_not_tabulated_again(check):
    # chain2_const holds every condition, so F is never measured on a witness
    op = cf.load_finite(fixture_path("chain2_const.json")).operator
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return op.apply(x, y)

    assert _finite_table(op) == _finite_table(dataclasses.replace(op, apply=counted))
    assert len(calls) == 4  # a plain callable is tabulated: n**2 calls
    calls.clear()
    counted.table = op.apply.table
    FINITE_ENTRY_POINTS[check](dataclasses.replace(op, apply=counted))
    assert calls == []


def test_replaced_apply_drops_the_loaded_table():
    # the table rides on the function it tabulates, so a new F is tabulated afresh
    op = cf.load_finite(fixture_path("chain2_const.json")).operator
    lo, hi = op.space.finite.elements
    swapped = dataclasses.replace(op, apply=lambda x, y: hi if op.apply(x, y) == lo else lo)
    assert _finite_table(swapped) == [[1 - k for k in row] for row in op.apply.table]


def test_pair_index_is_built_once_per_space(monkeypatch):
    builds = []
    build = FiniteData.pair_index.func

    def counted(fd):
        builds.append(fd)
        return build(fd)

    index = cached_property(counted)
    index.__set_name__(FiniteData, "pair_index")
    monkeypatch.setattr(FiniteData, "pair_index", index)
    op = cf.load_finite(fixture_path("diamond5.json")).operator
    cf.check_samet(op, [0.5, 1.0], EIGHTH)
    cf.check_symmetric_mk(op, [0.5, 1.0], lambda e: cf.delta_from_k(0.0, e))
    cf.estimate_delta_curve(op, [0.5, 1.0, 2.0])
    assert builds == [op.space.finite]
    # one entry per comparable pair, not per quadruple
    pairs = op.space.finite.pair_index
    comparable = sum(map(sum, op.space.finite.leq))
    assert len(pairs.down) == comparable
    assert [len(pairs.ys), len(pairs.vs), len(pairs.dists), len(pairs.pos)] == [comparable] * 4
    cf.check_samet(cf.load_finite(fixture_path("diamond5.json")).operator, [0.5], EIGHTH)
    assert len(builds) == 2
