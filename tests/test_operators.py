import dataclasses
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coupledfp as cf
from coupledfp import kernels
from coupledfp.errors import InputError
from coupledfp.operators import evaluation_lane
from coupledfp.reports import Witness, _report
from coupledfp.spaces import PairPoint

import kernel_oracle as pure
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


def test_mixed_monotone_drops_a_trial_with_a_nan_w():
    # w <= w fails for NaN, so (0, 1, NaN) is no comparable quadruple; the
    # trial is dropped, not failed on the NaN images it would give
    space = dataclasses.replace(cf.real_line(),
                                sampler=lambda count, seed: [0.0, 1.0, math.nan] * (count // 3))
    op = cf.CoupledOperator(apply=lambda x, y: (x - 3 * y) / 5, space=space)
    rep = cf.check_mixed_monotone(op, samples=500, seed=0)
    assert (rep.verdict, rep.samples_used, rep.comparable_pairs_used) == ("inconclusive", 500, 0)


def _vectorized(apply, space=None):
    return cf.CoupledOperator(apply=apply, space=space or cf.real_line(), vectorized=True)


def _small_grid_sampler(count, seed):
    # ties, and so equal argument pairs, in most trials
    rng = random.Random(seed)
    return [rng.choice((-1.0, 0.0, 0.5, 1.0)) for _ in range(count)]


def _nan_grid_sampler(count, seed):
    # NaN is incomparable, even to itself: the generic lane drops a trial
    # with a NaN a, b or w
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


# the kernel lane's mixed-monotone stream, written out: base 6 of
# kernels._BASES in the tag's top byte
MONOTONE_TAG = 6 << 56

def _reference_report(op, samples, seed):
    """The kernel lane's mixed-monotone report as the scalar reference in
    tests/kernel_oracle.py computes it, on op.apply called with floats. The
    reference names its images by the lower and the upper argument: F(u, v)
    and F(x, y) in the first clause, F(x, y) and F(u, v) in the second. The
    sweep reads them off its arrays as floats, where op.apply may give a
    float a 0-d array (np.where does)."""
    found, trials, used, x, y, u, v, f_lo, f_hi = pure.monotone_sweep(
        op.apply, samples, seed, MONOTONE_TAG, op.space.sample_radius)
    witness = None
    if found:
        f_lo, f_hi = float(f_lo), float(f_hi)
        if (trials - 1) % 2 == 0:
            clause, measured = "first_argument", {"f_of_u_v": f_lo, "f_of_x_y": f_hi}
        else:
            clause, measured = "second_argument", {"f_of_u_v": f_hi, "f_of_x_y": f_lo}
        witness = Witness(x=x, y=y, u=u, v=v, kind=clause, measured=measured)
    few = f"only {used} comparable argument pairs among {samples} draws" if used < 10 else ""
    return _report("mixed_monotone", "sampled", witness, trials, used, inconclusive=few)


def _json(report):
    return json.dumps(report.to_jsonable())


@pytest.mark.parametrize("samples", [2, 3, 10, 2000])
@pytest.mark.parametrize("name", list(VECTORIZED_MAPS))
def test_mixed_monotone_arrays_match_the_scalar_lane(name, samples, monkeypatch):
    # the kernel lane's array trials report what the scalar stream reference
    # reports, byte for byte, witness included, with one sweep per check
    op = VECTORIZED_MAPS[name]
    assert evaluation_lane(op) == "kernel"
    sweep, sweeps = kernels.monotone_sweep, []
    monkeypatch.setattr(kernels, "monotone_sweep", lambda *a: sweeps.append(a) or sweep(*a))
    for seed in (0, 1, 7, 42, 2**40):
        got = cf.check_mixed_monotone(op, samples=samples, seed=seed)
        assert _json(got) == _json(_reference_report(op, samples, seed))
    assert len(sweeps) == 5


def _signed_linear(a, b, c, radius):
    # (a*x - b*y)/c fails the first clause for a < 0, the second for b < 0
    return _vectorized(lambda x, y: (a * x - b * y) / c, cf.real_line(radius))


_SIGNED = st.integers(-3, 3).map(float)


def _nan_beyond(limit):
    # (x - y)/4, but NaN for x > limit: past 9.9 on real_line(10), the
    # first violation is seldom in the first few trials
    return _vectorized(lambda x, y: np.where(x > limit, np.nan, (x - y) / 4))


_NAN_MAPS = {"nan_beyond_five": nan_beyond_five(vectorized=True),
             "nan_beyond_9.9": _nan_beyond(9.9)}


@given(abc=st.one_of(st.sampled_from(list(_NAN_MAPS)),
                     st.tuples(_SIGNED, _SIGNED, st.sampled_from([1.0, 3.0, 4.0]))),
       radius=st.sampled_from([0.5, 10.0, 1e3]), samples=st.sampled_from([2, 3, 10, 2000]),
       seed=st.one_of(st.sampled_from([0, 1, -7, 2**63]), st.integers(-2**64, 2**64)),
       chunk=st.sampled_from([kernels.CHUNK, 7, 64]))
@example(abc=(-1.0, 3.0, 5.0), radius=10.0, samples=2000, seed=-7, chunk=7)
@example(abc=(1.0, -3.0, 5.0), radius=10.0, samples=2000, seed=2**63, chunk=64)
@example(abc="nan_beyond_five", radius=10.0, samples=2000, seed=0, chunk=kernels.CHUNK)
@example(abc="nan_beyond_9.9", radius=10.0, samples=2000, seed=-7, chunk=7)
@settings(max_examples=150, deadline=None)
def test_mixed_monotone_kernel_lane_is_the_stream_reference(abc, radius, samples, seed, chunk):
    # the NaN maps keep their own radius; with a pass of any chunk size, odd
    # ones too, the sweep flags the reference's first violation itself
    op = _NAN_MAPS[abc] if isinstance(abc, str) else _signed_linear(*abc, radius)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "CHUNK", chunk)
        got = cf.check_mixed_monotone(op, samples=samples, seed=seed)
        flagged = kernels.monotone_sweep(op, seed, MONOTONE_TAG, samples)
    want = _reference_report(op, samples, seed)
    assert _json(got) == _json(want)
    w = want.witness
    hit = (w.x, w.y, w.u, w.v, *w.measured.values()) if w else (0.0,) * 6
    assert repr(flagged) == repr((int(bool(w)), want.comparable_pairs_used, *hit))  # NaN too


def _nan_past_9_5_on_floats_only(x, y):
    # breaks the vectorized promise: decreasing in x on arrays, so the arrays
    # flag trial 0; on floats (x - y)/4, NaN for x > 9.5
    if isinstance(x, np.ndarray):
        return -x
    return math.nan if x > 9.5 else (x - y) / 4


@pytest.mark.parametrize("chunk", [7, 64, kernels.CHUNK])
def test_mixed_monotone_kernel_witness_stands_only_if_the_floats_violate(chunk, monkeypatch):
    # the arrays flag trial 0 on every seed, whatever the pass size; the
    # floats violate there only past 9.5 (a NaN image), where the check
    # fails, and elsewhere the broken vectorized promise is an InputError
    monkeypatch.setattr(kernels, "CHUNK", chunk)
    op = _vectorized(_nan_past_9_5_on_floats_only)
    outcomes = set()
    for seed in range(60):
        found, checked, x, *_ = kernels.monotone_sweep(op, seed, MONOTONE_TAG, 500)
        assert (found, checked) == (1, 1)
        if x > 9.5:
            got = cf.check_mixed_monotone(op, samples=500, seed=seed)
            assert (got.verdict, got.samples_used, got.witness.x) == ("fails", 1, x)
            assert math.isnan(cf.reverify_witness(op, got)["f_of_x_y"])
            outcomes.add("fails")
        else:
            with pytest.raises(InputError, match="vectorized=True"):
                cf.check_mixed_monotone(op, samples=500, seed=seed)
            outcomes.add("error")
    assert outcomes == {"fails", "error"}


def _no_sampler(count, seed):
    raise AssertionError("the kernel lane drew sampler points")


@pytest.mark.parametrize("apply", [lambda x, y: (x - 3 * y) / 5, lambda x, y: np.mod(x, 2)],
                         ids=["samet", "mod_2"])
def test_mixed_monotone_kernel_lane_calls_no_sampler(apply):
    op = _vectorized(apply, dataclasses.replace(cf.real_line(), sampler=_no_sampler))
    for seed in (0, 5):
        got = cf.check_mixed_monotone(op, samples=50, seed=seed)
        assert _json(got) == _json(_reference_report(op, 50, seed))


@pytest.mark.parametrize("name", list(VECTORIZED_MAPS))
def test_mixed_monotone_kernel_verdict_is_the_generic_twins(name):
    # the lanes draw different trials, but reach the same verdict at 2,000
    # samples, and every witness re-verifies
    op = VECTORIZED_MAPS[name]
    twin = dataclasses.replace(op, vectorized=False)
    for seed in (0, 1, 7):
        got, want = (cf.check_mixed_monotone(o, samples=2000, seed=seed) for o in (op, twin))
        assert got.verdict == want.verdict
        for o, rep in ((op, got), (twin, want)):
            assert rep.witness is None or cf.reverify_witness(o, rep)["violated"]


def _increasing_on_floats_only(x, y):
    # breaks the vectorized promise: decreasing in x on arrays
    return -x if isinstance(x, np.ndarray) else x


def test_mixed_monotone_kernel_witness_the_floats_pass_is_an_input_error():
    # the arrays flag trial 0 or 2, the floats pass it: the operator breaks
    # its vectorized=True declaration, which the check reports as an input
    # error instead of a witness that does not re-verify; the generic twin
    # holds
    op = _vectorized(_increasing_on_floats_only)
    found, checked, *_ = kernels.monotone_sweep(op, 0, MONOTONE_TAG, 1000)
    assert found and checked < 4
    with pytest.raises(InputError, match="vectorized=True"):
        cf.check_mixed_monotone(op, samples=1000, seed=0)
    twin = dataclasses.replace(op, vectorized=False)
    assert cf.check_mixed_monotone(twin, samples=1000, seed=0).verdict == "holds_on_samples"


def _shrinking_on_floats_only(x, y):
    # breaks the vectorized promise: 2x on arrays, which fails the bands,
    # and x/4 on floats, which holds in every band
    return 2 * x if isinstance(x, np.ndarray) else x / 4


@pytest.mark.parametrize("check", [cf.check_samet, cf.check_symmetric_mk])
def test_banded_kernel_witness_the_floats_pass_is_an_input_error(check):
    op = _vectorized(_shrinking_on_floats_only)
    with pytest.raises(InputError, match="vectorized=True"):
        check(op, [0.5, 1.0], lambda e: e / 8, samples=500, seed=0)
    twin = dataclasses.replace(op, vectorized=False)
    assert check(twin, [0.5, 1.0], lambda e: e / 8, samples=500, seed=0).holds


def test_delta_curve_kernel_witness_the_floats_pass_is_an_input_error():
    # the curve's rounds confirm their witnesses on floats as the checks do,
    # instead of a 0.0 curve on witnesses the floats never violate
    op = _vectorized(_shrinking_on_floats_only)
    with pytest.raises(InputError, match="vectorized=True"):
        cf.estimate_delta_curve(op, [0.5, 1.0], samples=500)
    twin = dataclasses.replace(op, vectorized=False)
    assert all(delta > 0 for _, delta in cf.estimate_delta_curve(twin, [0.5, 1.0], samples=500))


def test_zero_d_array_measurements_serialize_as_numbers():
    # the generic lane hands np.where's 0-d arrays through as measured values;
    # they serialize as a numpy scalar does, and NaN stays the string "nan"
    op = dataclasses.replace(nan_beyond_five(vectorized=True), vectorized=False)
    monotone = cf.check_mixed_monotone(op, samples=200).to_jsonable()
    banach = cf.check_banach_k(op, 0.5, samples=200).to_jsonable()
    assert isinstance(monotone["witness"]["measured"]["f_of_u_v"], float)
    assert banach["witness"]["measured"]["lhs"] == "nan"


def _past_2_53(count):
    rng = random.Random(0)
    return [2**53 + rng.randrange(8) for _ in range(count)]


_PAST_2_53 = _past_2_53(150)


@pytest.mark.parametrize("pool", [_PAST_2_53, _PAST_2_53[:-1] + [0.5]],
                         ids=["ints", "ints_and_a_float"])
def test_mixed_monotone_arrays_leave_points_past_float64_to_the_scalar_loop(pool):
    # float64 rounds ints past 2**53, so x % 2 would read 0 on every point;
    # the generic lane reads the sampler's ints as they are and fails at
    # trial 5 (the kernel lane draws floats, and no sampler points at all)
    space = dataclasses.replace(cf.real_line(), sampler=lambda count, seed: pool[:count])
    op = cf.CoupledOperator(apply=lambda x, y: np.mod(x, 2), space=space)
    got = cf.check_mixed_monotone(op, samples=50)
    assert evaluation_lane(op) == "generic"
    assert (got.verdict, got.samples_used) == ("fails", 5)


def test_mixed_monotone_arrays_find_both_clauses():
    # the cases above include a failure of each clause and a hold
    kinds = {name: cf.check_mixed_monotone(op, samples=2000, seed=0)
             for name, op in VECTORIZED_MAPS.items()}
    assert kinds["increasing_in_y"].witness.kind == "second_argument"
    assert kinds["decreasing_in_x"].witness.kind == "first_argument"
    assert kinds["mixed_monotone"].verdict == "holds_on_samples"
    assert math.isnan(kinds["nan_beyond_five"].witness.measured["f_of_x_y"])


def test_mixed_monotone_witness_off_its_orientation_does_not_reverify(samet):
    # samet_example is mixed monotone; F(1, 0) = 0.2 > F(0, 0) = 0, but the
    # first clause's quadruple needs u = 1 <= x = 0, so it is no witness
    op = samet.operator
    w = Witness(x=0.0, y=0.0, u=1.0, v=0.0, kind="first_argument")
    rep = _report("mixed_monotone", "sampled", w, 1, 1)
    assert cf.reverify_witness(op, rep) == {"f_of_u_v": 0.2, "f_of_x_y": 0.0, "violated": False}
    rep.witness = dataclasses.replace(w, x=1.0, u=0.0)  # oriented, and it holds
    assert cf.reverify_witness(op, rep) == {"f_of_u_v": 0.0, "f_of_x_y": 0.2, "violated": False}


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
