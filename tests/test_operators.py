import dataclasses
import json
import math
import random

import numpy as np
import pytest

import coupledfp as cf
from coupledfp import kernels
from coupledfp.errors import InputError
from coupledfp.operators import evaluation_lane
from coupledfp.spaces import PairPoint

from conftest import antichain_reals, nan_beyond_five, np_tanh_operator


def test_product_T_flagship_step(samet):
    out = cf.product_T(samet.operator, PairPoint(-3.0, 3.0))
    assert out == PairPoint(-2.4, 2.4)


def test_product_T_fixed_point(samet):
    assert cf.product_T(samet.operator, PairPoint(0.0, 0.0)) == PairPoint(0.0, 0.0)


def test_product_T_diagonal_preserved():
    space = cf.real_line()
    op = cf.CoupledOperator(apply=lambda x, y: (x + y) / 2, space=space,
                            description="midpoint")
    for c in (-4.0, 0.0, 7.5):
        assert cf.product_T(op, PairPoint(c, c)) == PairPoint(c, c)


def test_product_T_matches_closed_form(samet):
    rng = random.Random(11)
    op = samet.operator
    for _ in range(200):
        x, y = rng.uniform(-10, 10), rng.uniform(-10, 10)
        out = cf.product_T(op, PairPoint(x, y))
        assert out.first == (x - 3 * y) / 5
        assert out.second == (y - 3 * x) / 5


def test_mixed_monotone_flagship_holds(samet):
    rep = cf.check_mixed_monotone(samet.operator, samples=2000, seed=0)
    assert rep.verdict == "holds_on_samples"
    assert rep.comparable_pairs_used >= 10


def test_mixed_monotone_holds_on_numpy_floats():
    # the map returns numpy floats; the real line's order must still answer
    # with the True the clauses test for, not numpy's bool
    rep = cf.check_mixed_monotone(np_tanh_operator(), samples=2000, seed=0)
    assert rep.verdict == "holds_on_samples"


def test_mixed_monotone_product_fails():
    space = cf.real_line()
    op = cf.CoupledOperator(apply=lambda x, y: x * y, space=space,
                            description="product (sign flips)")
    rep = cf.check_mixed_monotone(op, samples=2000, seed=0)
    assert rep.verdict == "fails"
    assert rep.witness is not None
    assert cf.reverify_witness(op, rep)["violated"]


def test_mixed_monotone_spec_quadruple_violates():
    # x1 = -1 <= x2 = 1 with y = -1: F(x1,y) = 1 > F(x2,y) = -1
    f = lambda x, y: x * y
    assert f(-1.0, -1.0) > f(1.0, -1.0)


def test_mixed_monotone_constant_holds():
    space = cf.real_line()
    op = cf.CoupledOperator(apply=lambda x, y: 3.0, space=space, description="constant")
    rep = cf.check_mixed_monotone(op, samples=500, seed=0)
    assert rep.verdict == "holds_on_samples"


def test_mixed_monotone_inconclusive_without_comparable_pairs():
    space = antichain_reals()
    op = cf.CoupledOperator(apply=lambda x, y: x, space=space)
    rep = cf.check_mixed_monotone(op, samples=500, seed=0)
    assert rep.verdict == "inconclusive"
    assert rep.comparable_pairs_used < 10


def _vectorized(apply, space=None):
    return cf.CoupledOperator(apply=apply, space=space or cf.real_line(), vectorized=True)


def _small_grid_sampler(count, seed):
    # ties, and so equal argument pairs, in most trials
    rng = random.Random(seed)
    return [rng.choice((-1.0, 0.0, 0.5, 1.0)) for _ in range(count)]


def _nan_grid_sampler(count, seed):
    # NaN is incomparable; a pool with one is checked by the scalar loop
    rng = random.Random(seed)
    return [rng.choice((-1.0, 0.0, 0.5, 1.0, math.nan)) for _ in range(count)]


VECTORIZED_MAPS = {
    "increasing_in_y": _vectorized(lambda x, y: (x + y) / 3),
    "mixed_monotone": _vectorized(lambda x, y: (2 * x - y) / 5),
    "wavy": _vectorized(lambda x, y: np.tanh(x) - np.sin(3 * y) / 2),
    "decreasing_in_x": _vectorized(lambda x, y: -x - y),
    "nan_beyond_five": nan_beyond_five(vectorized=True),
    "wavy_on_a_grid": _vectorized(lambda x, y: np.tanh(x) - np.sin(3 * y) / 2,
                                  dataclasses.replace(cf.real_line(),
                                                      sampler=_small_grid_sampler)),
    "wavy_on_a_nan_grid": _vectorized(lambda x, y: np.tanh(x) - np.sin(3 * y) / 2,
                                      dataclasses.replace(cf.real_line(),
                                                          sampler=_nan_grid_sampler)),
}


@pytest.mark.parametrize("samples", [2, 3, 10, 2000])
@pytest.mark.parametrize("name", list(VECTORIZED_MAPS))
def test_mixed_monotone_arrays_match_the_scalar_lane(name, samples, monkeypatch):
    # the kernel lane's array trials report what the same map's generic lane
    # reports, byte for byte, witness included
    op = VECTORIZED_MAPS[name]
    twin = dataclasses.replace(op, vectorized=False)
    assert (evaluation_lane(op), evaluation_lane(twin)) == ("kernel", "generic")
    sweep, sweeps = kernels.monotone_sweep, []
    monkeypatch.setattr(kernels, "monotone_sweep", lambda *a: sweeps.append(a) or sweep(*a))
    for seed in (0, 1, 7, 42, 2**40):
        got, want = (json.dumps(cf.check_mixed_monotone(o, samples=samples, seed=seed)
                                .to_jsonable()) for o in (op, twin))
        assert got == want
    assert len(sweeps) == 5


def _increasing_on_floats_only(x, y):
    # breaks the vectorized promise: decreasing in x on arrays
    return -x if isinstance(x, np.ndarray) else x


def test_mixed_monotone_goes_on_past_a_trial_only_the_arrays_flag():
    # the arrays flag trial 0 or 2, the floats pass it: the check carries on
    # over every trial, as the generic lane does, instead of stopping there
    op = _vectorized(_increasing_on_floats_only)
    assert kernels.monotone_sweep(op, op.space.sampler(3000, 0x3A5C))[0] < 3
    twin = dataclasses.replace(op, vectorized=False)
    got, want = (cf.check_mixed_monotone(o, samples=1000, seed=0) for o in (op, twin))
    assert got.to_jsonable() == want.to_jsonable()
    assert got.verdict == "holds_on_samples" and got.samples_used == 1000


def _past_2_53(count):
    rng = random.Random(0)
    return [2**53 + rng.randrange(8) for _ in range(count)]


_PAST_2_53 = _past_2_53(150)


@pytest.mark.parametrize("pool", [_PAST_2_53, _PAST_2_53[:-1] + [0.5]],
                         ids=["ints", "ints_and_a_float"])
def test_mixed_monotone_arrays_leave_points_past_float64_to_the_scalar_loop(pool):
    # float64 rounds ints past 2**53, so x % 2 would read 0 on every point
    # and the arrays would pass what the scalar lane fails at trial 5
    space = dataclasses.replace(cf.real_line(), sampler=lambda count, seed: pool[:count])
    op = _vectorized(lambda x, y: np.mod(x, 2), space)
    assert kernels.monotone_sweep(op, pool) is None
    twin = dataclasses.replace(op, vectorized=False)
    got, want = (cf.check_mixed_monotone(o, samples=50) for o in (op, twin))
    assert json.dumps(got.to_jsonable()) == json.dumps(want.to_jsonable())
    assert (got.verdict, got.samples_used) == ("fails", 5)


def test_mixed_monotone_arrays_find_both_clauses():
    # the cases above include a failure of each clause and a hold
    kinds = {name: cf.check_mixed_monotone(op, samples=2000, seed=0)
             for name, op in VECTORIZED_MAPS.items()}
    assert kinds["increasing_in_y"].witness.kind == "second_argument"
    assert kinds["decreasing_in_x"].witness.kind == "first_argument"
    assert kinds["mixed_monotone"].verdict == "holds_on_samples"
    assert math.isnan(kinds["nan_beyond_five"].witness.measured["f_of_x_y"])


def test_vectorized_map_on_a_replaced_order_takes_the_generic_lane():
    # kind "real_line" survives dataclasses.replace; the order does not
    line = cf.real_line()
    replaced = dataclasses.replace(line, leq=lambda x, y: True if x <= y else False)
    op = _vectorized(lambda x, y: (x - 3 * y) / 5, replaced)
    assert evaluation_lane(op) == "generic"
    assert evaluation_lane(dataclasses.replace(op, space=line)) == "kernel"


@pytest.mark.parametrize("check", [
    lambda op: cf.check_mixed_monotone(op, samples=100),
    lambda op: cf.check_banach_k(op, 0.5, samples=100),
    lambda op: cf.check_samet(op, [1.0], lambda e: e / 8, samples=100),
    lambda op: cf.check_strict_contraction(op, samples=100),
    lambda op: cf.estimate_delta_curve(op, [1.0], samples=100),
])
def test_vectorized_map_needs_a_distance_on_arrays(check):
    # a float-only distance on the real line is an InputError naming it,
    # not a TypeError from inside the sweeps
    space = dataclasses.replace(cf.real_line(), distance=lambda x, y: math.fabs(x - y))
    op = _vectorized(lambda x, y: (x - 3 * y) / 5, space)
    with pytest.raises(InputError, match="distance"):
        check(op)
    assert check(dataclasses.replace(op, vectorized=False)) is not None


def test_audit_lipschitz_flagship(samet):
    ok, worst, witness = cf.audit_lipschitz(samet.operator, samples=1000, seed=0)
    assert ok
    assert worst <= 1e-12
    assert witness is None


def test_audit_lipschitz_understated_bound_fails():
    space = cf.real_line()
    op = cf.CoupledOperator(apply=lambda x, y: (x - 3 * y) / 5, space=space,
                            lipschitz_data=(0.1, 0.5))
    ok, worst, witness = cf.audit_lipschitz(op, samples=1000, seed=0)
    assert not ok
    assert worst > 0
    assert witness is not None


def test_audit_lipschitz_fails_on_nan_gap():
    # (x - y)/4 meets its declared bound, but the map is NaN for x > 5
    op = cf.CoupledOperator(apply=lambda x, y: math.nan if x > 5 else (x - y) / 4,
                            space=cf.real_line(10.0), lipschitz_data=(0.25, 0.25))
    ok, worst, witness = cf.audit_lipschitz(op, samples=500, seed=0)
    assert not ok
    assert math.isnan(worst)
    assert math.isnan(witness.measured["lhs"])


@pytest.mark.parametrize("radius", [1e4, 1e6])
def test_audit_lipschitz_exact_bound_on_a_wide_box(radius):
    # the declared (1/5, 3/5) is exact; rounding grows with the box and must
    # be excused relative to the bound, as in every condition check
    op = cf.make_linear(1, 3, 5, radius=radius).operator
    ok, worst, witness = cf.audit_lipschitz(op, samples=2000, seed=0)
    assert ok and witness is None
    assert worst < 1e-15 * radius


def test_audit_lipschitz_requires_data():
    space = cf.real_line()
    op = cf.CoupledOperator(apply=lambda x, y: x, space=space)
    with pytest.raises(cf.InputError):
        cf.audit_lipschitz(op)


@pytest.mark.parametrize("name", ["chain3_monotone.json", "twocomp4.json",
                                  "diamond5.json"])
def test_pair_map_monotone_when_mixed_monotone_exhaustive(name):
    # once the two clauses hold on all comparable pairs, the pair map
    # preserves the product order
    from conftest import fixture_path

    prob = cf.load_finite(fixture_path(name))
    op = prob.operator
    assert cf.check_mixed_monotone(op).verdict == "holds_on_samples"
    els = prob.space.finite.elements
    pairs = [PairPoint(a, b) for a in els for b in els]
    for V in pairs:
        for Y in pairs:
            if cf.product_leq(V, Y, prob.space) is True:
                TV = cf.product_T(op, V)
                TY = cf.product_T(op, Y)
                assert cf.product_leq(TV, TY, prob.space) is True
