import dataclasses
import functools
import json
import math
import operator
import random
import re
import sys
from fractions import Fraction
from itertools import combinations, islice, product

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import coupledfp as cf
from coupledfp import audit, spaces
from coupledfp.audit import _randrange_stream
from coupledfp.kernels import _BASES, stream_seed
from coupledfp.problems import _element_index
from coupledfp.spaces import FLOAT_SLACK, INCOMPARABLE, PairPoint, SpaceModel, usual_real_order

import finite_oracle as oracle
from conftest import DATA, load_doc

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_d2_identity(real_space):
    assert cf.d2(PairPoint(0.0, 0.0), PairPoint(0.0, 0.0), real_space) == 0.0


def test_d2_value(real_space):
    got = cf.d2(PairPoint(-3.0, 3.0), PairPoint(-2.4, 2.4), real_space)
    assert got == pytest.approx(0.6, abs=1e-12)


def test_d2_symmetry_random_pairs(real_space):
    rng = random.Random(7)
    for _ in range(1000):
        Y = PairPoint(rng.uniform(-50, 50), rng.uniform(-50, 50))
        V = PairPoint(rng.uniform(-50, 50), rng.uniform(-50, 50))
        assert cf.d2(Y, V, real_space) == cf.d2(V, Y, real_space)


@given(x=finite_floats, y=finite_floats, u=finite_floats, v=finite_floats)
@example(0.0, 0.0, 0.0, 5e-324)  # the one positive sum that halves to 0.0
def test_d2_zero_iff_coordinates_zero(x, y, u, v):
    space = cf.real_line()
    val = cf.d2(PairPoint(x, y), PairPoint(u, v), space)
    assert (val == 0) == (space.distance(x, u) == 0 and space.distance(y, v) == 0)


def test_d2_keeps_the_smallest_subnormal_on_arrays():
    # the sweeps call d2 on float64 arrays: the test is elementwise there
    space = cf.real_line()
    zeros = np.zeros(4)
    second = np.array([0.0, 5e-324, 1e-323, 3.0])
    got = cf.d2(PairPoint(zeros, zeros), PairPoint(zeros, second), space)
    assert got.tolist() == [0.0, 5e-324, 5e-324, 1.5]


def test_d2_halves_fractions_inf_and_nan_as_before():
    exact = cf.finite_space("ab", [[0, "1/3"], ["1/3", 0]], [[1, 1], [0, 1]])
    got = cf.d2(PairPoint("a", "a"), PairPoint("b", "a"), exact)
    assert got == Fraction(1, 6) and isinstance(got, Fraction)
    line = cf.real_line()
    assert cf.d2(PairPoint(0.0, 0.0), PairPoint(math.inf, 0.0), line) == math.inf
    assert math.isnan(cf.d2(PairPoint(0.0, 0.0), PairPoint(math.nan, 0.0), line))


@pytest.mark.parametrize("radius", [10.0, 3.3, 1e-300, 1e300])
def test_real_line_sampler_draws_the_uniform_points(radius):
    # the same floats as rng.uniform(-radius, radius), and prefix-stable
    sampler = cf.real_line(radius).sampler
    for seed in (0, 1, 42, 2**40):
        rng = random.Random(seed)
        expected = [rng.uniform(-radius, radius) for _ in range(1000)]
        assert sampler(1000, seed) == expected
        assert sampler(37, seed) == expected[:37]


@pytest.mark.parametrize("radius", [8.99e307, 1e308, math.inf, math.nan, 0.0, -1.0])
def test_real_line_rejects_a_radius_whose_box_overflows(radius):
    # a sampling box 2*radius wide that overflows to inf made every point inf
    with pytest.raises(cf.InputError, match="radius"):
        cf.real_line(radius)


def test_real_line_accepts_the_widest_finite_box():
    radius = sys.float_info.max / 2
    points = cf.real_line(radius).sampler(1000, 0)
    assert all(-radius <= x <= radius for x in points)


@given(a=finite_floats, b=finite_floats, c=finite_floats,
       d=finite_floats, e=finite_floats, f=finite_floats)
@settings(max_examples=200)
def test_d2_triangle(a, b, c, d, e, f):
    space = cf.real_line()
    X, Y, Z = PairPoint(a, b), PairPoint(c, d), PairPoint(e, f)
    assert cf.d2(X, Z, space) <= cf.d2(X, Y, space) + cf.d2(Y, Z, space) + 1e-9


def test_product_leq_convention(real_space):
    # (1, 3) is below (2, 1): first coordinates rise, second coordinates drop
    assert cf.product_leq(PairPoint(1.0, 3.0), PairPoint(2.0, 1.0), real_space) is True
    assert cf.product_leq(PairPoint(2.0, 1.0), PairPoint(1.0, 3.0), real_space) is False


def test_product_leq_reflexive(real_space):
    assert cf.product_leq(PairPoint(1.0, 1.0), PairPoint(1.0, 1.0), real_space) is True


def test_product_leq_incomparable(real_space):
    Y = PairPoint(2.0, 3.0)
    V = PairPoint(1.0, 1.0)
    assert cf.product_leq(Y, V, real_space) is INCOMPARABLE
    assert cf.product_leq(V, Y, real_space) is INCOMPARABLE


def test_incomparable_is_not_boolean():
    with pytest.raises(TypeError):
        bool(INCOMPARABLE)


def test_product_order_axioms_on_samples(real_space):
    pts = real_space.sampler(30, 5)
    pairs = [PairPoint(pts[i], pts[i + 1]) for i in range(0, 28, 2)]
    for Y in pairs:
        assert cf.product_leq(Y, Y, real_space) is True
    for Y in pairs:
        for V in pairs:
            if cf.product_leq(Y, V, real_space) is True and cf.product_leq(V, Y, real_space) is True:
                assert Y == V
            for W in pairs:
                if (cf.product_leq(Y, V, real_space) is True
                        and cf.product_leq(V, W, real_space) is True):
                    assert cf.product_leq(Y, W, real_space) is True


def test_audit_real_line_passes(real_space):
    report = cf.audit_space(real_space, samples=100, seed=1)
    assert report.passed, report.failed_axioms()


def test_audit_signed_distance_fails_symmetry():
    base = cf.real_line()
    bad = SpaceModel(
        distance=lambda x, y: x - y,
        leq=base.leq,
        sampler=base.sampler,
        description="signed difference (not a metric)",
    )
    report = cf.audit_space(bad, samples=50, seed=2)
    failed = report.failed_axioms()
    assert "metric_symmetry" in failed
    sym = next(a for a in report.axioms if a.name == "metric_symmetry")
    w = sym.counterexample
    assert abs(w["d_xy"] - w["d_yx"]) > 1e-12


def test_audit_triangle_violation_three_points():
    space = cf.finite_space(
        ["a", "b", "c"],
        [[0, 1, 3], [1, 0, 1], [3, 1, 0]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    )
    report = cf.audit_space(space, samples=10, seed=0)
    assert report.exhaustive
    tri = next(a for a in report.axioms if a.name == "metric_triangle")
    assert not tri.passed
    w = tri.counterexample
    assert w["d_xz"] > w["d_xy"] + w["d_yz"]


@pytest.mark.parametrize("radius", [1e4, 1e9])
def test_audit_large_real_line_passes_triangle(radius):
    # the triangle slack scales with d(x, y) + d(y, z), so rounding far from
    # the origin is not reported as a failure
    report = cf.audit_space(cf.real_line(radius), samples=500, seed=0)
    assert report.passed, report.failed_axioms()


def test_audit_squared_distance_fails_triangle():
    base = cf.real_line(1e4)
    squared = SpaceModel(distance=lambda x, y: (x - y) ** 2, leq=base.leq,
                         sampler=base.sampler, description="squared difference")
    report = cf.audit_space(squared, samples=100, seed=0)
    assert report.failed_axioms() == ["metric_triangle"]


@pytest.mark.parametrize("n", [1, 2, 3, 500, 512, 513, 700])
@pytest.mark.parametrize("seed", [0, 1, 42, 2**40 + 7])
def test_randrange_stream_matches_randrange(n, seed):
    rng = random.Random(seed)
    expected = [rng.randrange(n) for _ in range(2000)]
    got = list(islice(_randrange_stream(random.Random(seed), n), 2000))
    assert got == expected


@pytest.mark.parametrize("n", [3, 5, 100, 500, 511, 512, 513, 1000])
@pytest.mark.parametrize("seed", [0, 1, 42, 2**40 + 7])
def test_index_blocks_match_randrange_stream(n, seed):
    # the sampled audit's drawn triples, on points that are their own
    # indices: AUDIT_BLOCK + 5 rows of three consecutive stream values, in
    # two blocks
    pts, rows, sizes = list(range(n)), audit.AUDIT_BLOCK + 5, []
    blocks = [list(b) for b in audit._drawn_blocks(pts, 3, rows, random.Random(seed), sizes)]
    assert sizes == [len(b) for b in blocks] == [audit.AUDIT_BLOCK, 5]
    assert {len(row) for b in blocks for row in b} == {3}
    got = [i for b in blocks for row in b for i in row]
    assert got == list(islice(_randrange_stream(random.Random(seed), n), 3 * rows))


@pytest.mark.parametrize("n", [1, 3, 58, 632])
def test_audit_tuples_enumerate_in_order(n):
    # the sizes the audit enumerates: triples up to 58 points, pairs up to 632;
    # the points are their own indices
    expected = [list(product(range(n))), list(combinations(range(n), 2))]
    if n <= 58:
        expected.append(list(product(range(n), repeat=3)))
    for (width, cap, salt, _), rows in zip(audit._AUDIT_PHASES, expected):
        sizes = []
        assert list(audit._audit_tuples(list(range(n)), width, cap, 0, salt, sizes)) == rows
        assert sizes == [len(rows)]


def _vectorized(name, **changes):
    return dataclasses.replace(cf.real_line(), description=name, **changes)


# real-line spaces whose distance maps arrays, each with its order as a mask
# on arrays: the clean line and broken variants, each failing the axioms its
# comment names where a sample shows it
VECTORIZED_SPACES = {
    "real_line": (_vectorized("real line"), operator.le),
    # d(x, y) < 0 for x < y, and not symmetric
    "signed": (_vectorized("signed difference", distance=lambda x, y: x - y), operator.le),
    # no triangle inequality
    "squared": (_vectorized("squared difference", distance=lambda x, y: (x - y) * (x - y)),
                operator.le),
    # x <= y + 0.05: reflexive, but neither antisymmetric nor transitive
    "loose_order": (_vectorized("loose order",
                                leq=lambda x, y: True if x <= y + 0.05 else False),
                    lambda xs, ys: xs <= ys + 0.05),
    # d(x, x) > 0 and x < y: neither identity nor reflexivity
    "offset_strict": (_vectorized("offset distance, strict order",
                                  distance=lambda x, y: abs(x - y) + 1e-9,
                                  leq=lambda x, y: True if x < y else False),
                      operator.lt),
}

# each axiom's failure mask on float64 arrays of points, given the order as a
# mask, with the sampled audit's slack
_AXIOM_FAILS = {
    "metric_identity": lambda d, leq, x: abs(d(x, x)) > FLOAT_SLACK,
    "order_reflexive": lambda d, leq, x: ~leq(x, x),
    "metric_nonnegative": lambda d, leq, x, y: d(x, y) < -FLOAT_SLACK,
    "metric_symmetry": lambda d, leq, x, y: abs(d(x, y) - d(y, x)) > FLOAT_SLACK,
    "order_antisymmetric": lambda d, leq, x, y: leq(x, y) & leq(y, x) & (x != y),
    "metric_triangle": lambda d, leq, x, y, z: (
        d(x, z) > d(x, y) + d(y, z) + FLOAT_SLACK * np.maximum(1, d(x, y) + d(y, z))),
    "order_transitive": lambda d, leq, x, y, z: leq(x, y) & leq(y, z) & ~leq(x, z),
}


def _consumer_seed(seed, consumer):
    # a sampler's seed: the consumer's stream state at tag base << 56, cut to 31 bits
    return stream_seed(seed, _BASES[consumer] << 56) & 0x7FFFFFFF


def _audited_tuples(n, width, seed):
    """The index tuples a sampled audit of n points checks, from the audit's
    spec, as an array of shape (width, tuples): all points; all pairs i < j
    up to 200,000 of them, else 200,000 drawn pairs with i == j skipped; all
    triples up to 200,000, else 200,000 drawn; drawn values are consecutive
    random.Random(_consumer_seed(seed, width's consumer)).randrange(n) values,
    which _randrange_stream yields (its test above)."""
    if width == 1:
        tuples = [(i,) for i in range(n)]
    elif (math.comb(n, 2) if width == 2 else n ** 3) <= 200_000:
        tuples = list(combinations(range(n), 2) if width == 2 else product(range(n), repeat=3))
    else:
        consumer = "audit_pairs" if width == 2 else "audit_triples"
        stream = _randrange_stream(random.Random(_consumer_seed(seed, consumer)), n)
        drawn = islice(zip(*[stream] * width), 200_000)
        tuples = [t for t in drawn if width == 3 or t[0] != t[1]]
    return np.array(tuples).T


def _recounted_audit(space, mask, n, seed):
    """Per axiom, its number of checks and its first failing points or None,
    recounted on arrays of the points with the order mask."""
    pts = space.sampler(n, _consumer_seed(seed, "audit_points"))
    xs = np.array(pts)
    by_width = {width: _audited_tuples(n, width, seed) for width in (1, 2, 3)}
    got = {}
    for name, fails in _AXIOM_FAILS.items():
        idx = by_width[fails.__code__.co_argcount - 2]
        bad = fails(space.distance, mask, *xs[idx])
        r = int(bad.argmax())
        got[name] = (idx.shape[1], tuple(pts[i] for i in idx[:, r]) if bad[r] else None)
    return got


@pytest.mark.parametrize("n", [3, 58, 59, 500, 633, 700])
@pytest.mark.parametrize("name", list(VECTORIZED_SPACES))
@given(seed=st.integers(0, 2**64))
# no shrinking: each step would audit and recount up to 700 points again
@settings(max_examples=1, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_audit_lanes_give_identical_reports(name, n, seed):
    # the callable lane against a recount of the same tuples on arrays: all
    # triples up to 58 points, sampled triples from 59, sampled pairs from
    # 633; each broken space fails exactly the axioms the recount finds
    # failing, with the same first witness and check count
    space, mask = VECTORIZED_SPACES[name]
    report = audit._sampled_audit(space, n, seed, FLOAT_SLACK)
    got = {a.name: (a.checks, a.counterexample and tuple(
        a.counterexample[k] for k in "xyz" if k in a.counterexample)) for a in report.axioms}
    assert got == _recounted_audit(space, mask, n, seed)


def _audit_path(space, samples=10, seed=0):
    report = cf.audit_space(space, samples=samples, seed=seed)
    assert report.passed, report.failed_axioms()
    if report.to_jsonable().get("method") == "by_construction":
        assert {a.checks for a in report.axioms} == {0}
        return "by_construction"
    assert all(a.checks for a in report.axioms)
    return "matrix" if report.exhaustive else "callable"


def test_audit_lane_follows_the_real_line_order():
    # real_line() and a copy that keeps its kind, leq, distance, sampler and
    # float slack are audited by construction; a replaced part, or another
    # kind, sends the space to the callable lane, and a finite space to its
    # matrices
    line = cf.real_line()
    kept = [line, cf.real_line(1e300), dataclasses.replace(line, description="renamed"),
            dataclasses.replace(line, sample_radius=1.0)]
    assert [_audit_path(s) for s in kept] == ["by_construction"] * 4
    replaced = [dataclasses.replace(line, leq=lambda x, y: x <= y),
                dataclasses.replace(line, distance=lambda x, y: abs(x - y)),
                dataclasses.replace(line, sampler=lambda count, seed: line.sampler(count, seed)),
                dataclasses.replace(line, exact=True),
                dataclasses.replace(line, kind="custom")]
    assert [_audit_path(s) for s in replaced] == ["callable"] * 5
    doc = load_doc("diamond5.json")
    assert _audit_path(cf.finite_space(doc["elements"], doc["distance"], doc["leq"])) == "matrix"
    loose = cf.audit_space(VECTORIZED_SPACES["loose_order"][0], samples=200)
    assert loose.failed_axioms() == ["order_antisymmetric"]


def test_audit_of_a_float_only_distance_takes_the_callable_lane():
    # a replaced distance that takes floats only keeps the real line's order,
    # but its audit goes through the callables and gives the report of a
    # "custom" real line, whose distance is real_line()'s
    scalar = dataclasses.replace(cf.real_line(), distance=lambda x, y: math.fabs(x - y))
    assert usual_real_order(scalar)
    custom = dataclasses.replace(cf.real_line(), kind="custom")
    for seed in (0, 42):
        report = cf.audit_space(scalar, samples=60, seed=seed).to_jsonable()
        assert "method" not in report and report["axioms"][0]["checks"] == 60
        assert (json.dumps(report)
                == json.dumps(cf.audit_space(custom, samples=60, seed=seed).to_jsonable()))


@given(radius=st.floats(min_value=0.0, max_value=sys.float_info.max / 2, exclude_min=True),
       samples=st.integers(3, 700), seed=st.integers(0, 2**64))
@settings(max_examples=12, deadline=None)
@example(radius=sys.float_info.max / 2, samples=700, seed=0)
@example(radius=5e-324, samples=59, seed=0)
@example(radius=1e9, samples=633, seed=1)
def test_by_construction_report_agrees_with_the_callable_lane(radius, samples, seed):
    # the axioms real_line() passes by construction pass when checked too,
    # on any box whose width is finite, down to subnormal radii
    line = cf.real_line(radius)
    report = cf.audit_space(line, samples=samples, seed=seed)
    assert report.to_jsonable()["method"] == "by_construction"
    checked = cf.audit_space(dataclasses.replace(line, kind="custom"), samples=samples, seed=seed)
    assert "method" not in checked.to_jsonable()
    assert checked.failed_axioms() == report.failed_axioms() == []


def test_by_construction_audit_draws_no_point():
    # a sample size no audit could check returns at once: nothing is drawn
    report = cf.audit_space(cf.real_line(), samples=10**12, seed=3)
    assert report.passed and {a.checks for a in report.axioms} == {0}
    with pytest.raises(cf.InputError):
        cf.audit_space(cf.real_line(), samples=2)


def test_only_by_construction_reports_name_their_method():
    doc = load_doc("diamond5.json")
    finite = cf.finite_space(doc["elements"], doc["distance"], doc["leq"])
    custom = dataclasses.replace(cf.real_line(), kind="custom")
    line = cf.audit_space(cf.real_line(), samples=10).to_jsonable()
    assert line["method"] == "by_construction" and line["exhaustive"] is False
    assert all(a["counterexample"] is None for a in line["axioms"])
    for space in (finite, custom):
        assert "method" not in cf.audit_space(space, samples=10).to_jsonable()


def test_usual_real_order_needs_the_kind_and_the_real_line_order():
    line = cf.real_line()
    assert usual_real_order(line)
    assert usual_real_order(dataclasses.replace(line, sample_radius=1.0))
    assert not usual_real_order(dataclasses.replace(line, leq=lambda x, y: x <= y))
    assert not usual_real_order(dataclasses.replace(line, kind="custom"))
    assert not usual_real_order(cf.finite_space("a", [[0]], [[1]]))


@pytest.mark.parametrize("samples, pair_checks", [(500, 124_750), (700, 199_712)])
def test_audit_real_line_check_counts(samples, pair_checks):
    # 500 points: all 124,750 pairs; 700 points: 200,000 sampled index pairs
    # minus the 288 with i == j at seed 0. Triples are sampled at both sizes.
    # kind "custom" keeps real_line()'s callables but takes the callable lane.
    line = dataclasses.replace(cf.real_line(), kind="custom")
    report = cf.audit_space(line, samples=samples, seed=0)
    assert {a.name: a.checks for a in report.axioms} == {
        "metric_identity": samples,
        "order_reflexive": samples,
        "metric_nonnegative": pair_checks,
        "metric_symmetry": pair_checks,
        "order_antisymmetric": pair_checks,
        "metric_triangle": 200_000,
        "order_transitive": 200_000,
    }


@pytest.mark.parametrize("radius", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_real_line_rejects_bad_radius(radius):
    with pytest.raises(cf.InputError):
        cf.real_line(radius)


@pytest.mark.parametrize("name", ["chain3_monotone.json", "diamond5.json", "twocomp4.json"])
def test_audit_finite_fixtures_pass(name):
    doc = load_doc(name)
    space = cf.finite_space(doc["elements"], doc["distance"], doc["leq"])
    report = cf.audit_space(space, samples=10, seed=0)
    assert report.exhaustive
    assert report.passed, report.failed_axioms()


def test_finite_space_rejects_duplicates():
    with pytest.raises(cf.InputError):
        cf.finite_space(["a", "a"], [[0, 1], [1, 0]], [[1, 0], [0, 1]])


def test_domain_mismatch_raises():
    doc = load_doc("chain2_const.json")
    space = cf.finite_space(doc["elements"], doc["distance"], doc["leq"])
    with pytest.raises(cf.DomainMismatchError):
        cf.d2(PairPoint("lo", "nope"), PairPoint("lo", "lo"), space)


def test_unhashable_value_is_not_a_finite_element():
    doc = load_doc("chain2_const.json")
    space = cf.finite_space(doc["elements"], doc["distance"], doc["leq"])
    assert not space.member(["lo"])
    with pytest.raises(cf.DomainMismatchError):
        cf.d2(PairPoint(["lo"], "lo"), PairPoint("lo", "lo"), space)
    with pytest.raises(cf.DomainMismatchError):
        cf.product_leq(PairPoint("lo", "lo"), PairPoint("lo", ["lo"]), space)


# malformed distance/leq matrices, with the first bad entry their error names
MALFORMED = {
    "ragged_distance": ([[0, 1], [1]], [[1, 0], [0, 1]], "distance[1][1]"),
    "ragged_leq": ([[0, 1], [1, 0]], [[1, 0], [0]], "leq[1][1]"),
    "distance_2x3": ([[0, 1, 2], [1, 0, 3]], [[1, 0], [0, 1]], "distance[0][2]"),
    "distance_3x2": ([[0, 1], [1, 0], [2, 2]], [[1, 0], [0, 1]], "distance[2][0]"),
    "leq_2x3": ([[0, 1], [1, 0]], [[1, 0, 0], [0, 1, 0]], "leq[0][2]"),
    "nan_distance": ([[0, math.nan], [math.nan, 0]], [[1, 0], [0, 1]], "distance[0][1]"),
    "inf_distance": ([[0, math.inf], [math.inf, 0]], [[1, 0], [0, 1]], "distance[0][1]"),
    "non_numeric_distance": ([[0, "one"], [1, 0]], [[1, 0], [0, 1]], "distance[0][1]"),
    "leq_not_zero_one": ([[0, 1], [1, 0]], [[1, 2], [0, 1]], "leq[0][1]"),
    "bool_distance": ([[0, 1], [True, 0]], [[1, 0], [0, 1]], "distance[1][0]"),
    "bool_leq": ([[0, 1], [1, 0]], [[1, 0], [0, True]], "leq[1][1]"),
    # unordered or byte-string rows: no JSON form, so the load_finite twin
    # hands them over as json.load's result
    "set_leq_row": ([[0, 1], [1, 0]], [{1, 0}, [0, 1]], "leq[0]"),
    "frozenset_leq_row": ([[0, 1], [1, 0]], [[1, 0], frozenset({0, 1})], "leq[1]"),
    "bytes_distance_row": ([b"\x00\x01", [1, 0]], [[1, 0], [0, 1]], "distance[0]"),
    "set_leq_matrix": ([[0, 1], [1, 0]], {(1, 0), (0, 1)}, "leq"),
}


@pytest.mark.parametrize("dist, leq, location", MALFORMED.values(), ids=MALFORMED.keys())
def test_finite_space_rejects_malformed_matrices(dist, leq, location):
    with pytest.raises(cf.InputError) as exc:
        cf.finite_space(["a", "b"], dist, leq)
    assert str(exc.value).startswith(location + ":")


# numpy bools equal 0 and 1 as Python's do, and are rejected like them
NUMPY_BOOLS = {
    "bool_array_leq": (np.array([[0, 1], [1, 0]]), np.array([[True, False], [False, True]]),
                       "leq[0][0]"),
    "bool_leq_entry": ([[0, 1], [1, 0]], [[1, 0], [0, np.True_]], "leq[1][1]"),
    "bool_distance_entry": ([[0, 1], [np.False_, 0]], [[1, 0], [0, 1]], "distance[1][0]"),
}


@pytest.mark.parametrize("dist, leq, location", NUMPY_BOOLS.values(), ids=NUMPY_BOOLS.keys())
def test_finite_space_rejects_numpy_bools(dist, leq, location):
    with pytest.raises(cf.InputError) as exc:
        cf.finite_space(["a", "b"], dist, leq)
    assert str(exc.value).startswith(location + ":")
    # the same matrices of numpy ints load
    space = cf.finite_space(["a", "b"], np.array(dist, dtype=np.int64),
                            np.array(leq, dtype=np.int64))
    assert space.finite.leq == [[1, 0], [0, 1]]


@pytest.mark.parametrize("dist, leq, location", MALFORMED.values(), ids=MALFORMED.keys())
def test_load_finite_rejects_malformed_matrices(tmp_path, monkeypatch, dist, leq, location):
    doc = {"schema_version": 1, "elements": ["a", "b"], "distance": dist, "leq": leq,
           "F": [[0, 0], [0, 0]]}
    path = tmp_path / "bad.json"
    try:
        path.write_text(json.dumps(doc))
    except TypeError:  # a set or bytes row
        path.write_text("{}")
        monkeypatch.setattr(json, "load", lambda fh: doc)
    with pytest.raises(cf.SchemaError) as exc:
        cf.load_finite(str(path))
    assert str(exc.value).startswith(f"{path}: {location}:")


@pytest.mark.parametrize("ftab, location", [
    ([[0, 0], [0]], "F[1][1]"),
    ([[0, True], [0, 0]], "F[0][1]"),
    ([[0, 0], [0, 1.0]], "F[1][1]"),
])
def test_load_finite_rejects_malformed_f_table(tmp_path, ftab, location):
    doc = {"schema_version": 1, "elements": ["a", "b"], "distance": [[0, 1], [1, 0]],
           "leq": [[1, 0], [0, 1]], "F": ftab}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(cf.SchemaError) as exc:
        cf.load_finite(str(path))
    assert str(exc.value).startswith(f"{path}: {location}:")


def _per_entry(rows, n, entry, name):
    """square_matrix converting entry by entry: the reference for the
    conversion of each distinct entry once."""
    try:
        if (spaces._is_row(rows) and len(rows) == n
                and all(spaces._is_row(r) and len(r) == n for r in rows)):
            return [[entry(v) for v in row] for row in rows]
    except spaces._REJECTED:
        pass
    raise cf.InputError(spaces._first_bad_entry(rows, n, entry, name))


def _outcome(convert, rows, n, entry, name):
    """The matrix with each entry's type, or the InputError text."""
    try:
        return [[(type(v), v) for v in row] for row in convert(rows, n, entry, name)]
    except cf.InputError as exc:
        return str(exc)


CONVERTERS = {"distance": spaces._distance, "leq": spaces._zero_one,
              "F": functools.partial(_element_index, 3)}
NAN = math.nan  # one NaN object, so a matrix can hold the same NaN twice
_ENTRIES = st.one_of(
    st.sampled_from([0, 1, 2, -1, 0.0, -0.0, 1.0, 0.5, True, False, NAN, math.inf, -math.inf,
                     "1/2", "1", "-1/3", "x/y", Fraction(1), Fraction(1, 2), [1], []]),
    st.integers(-2, 4),
    st.floats(allow_nan=True, allow_infinity=True, width=16),
    st.fractions(max_denominator=4),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-3, 3), st.integers(0, 3)),
)


@st.composite
def square_matrices(draw, n):
    return [[draw(_ENTRIES) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("name", CONVERTERS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_distinct_conversion_matches_per_entry(name, data):
    # n == 3 lets F's indices be in range; draws of one type or of ints and
    # strs only take the by-value keys, any other mix the (type, value) keys,
    # and the equal values of different types test those keys
    n = 3
    equal_values = [0, 1, 0.0, 1.0, True, False, Fraction(1)]
    pools = st.one_of(st.just([0, 1, 2, -1]), st.just([0, 1, 2, "1/2", "2"]),
                      st.lists(st.sampled_from(equal_values), min_size=2, max_size=3))
    rows = data.draw(st.one_of(square_matrices(n), pools.flatmap(lambda pool: st.lists(
        st.lists(st.sampled_from(pool), min_size=n, max_size=n), min_size=n, max_size=n))))
    entry = CONVERTERS[name]
    assert (_outcome(spaces.square_matrix, rows, n, entry, name)
            == _outcome(_per_entry, rows, n, entry, name))


@pytest.mark.parametrize("rows, name, location", [
    ([[1, 1.0], [True, 0]], "distance", "distance[1][0]"),
    ([[1, 1.0], [True, 0]], "leq", "leq[1][0]"),
    ([[1, 1.0], [True, 0]], "F", "F[0][1]"),
    ([[1, 1.0], [0, 0]], "F", "F[0][1]"),
    ([[1, True], [0, 1]], "leq", "leq[0][1]"),
    ([[0, 1], [1, Fraction(1)]], "F", "F[1][1]"),
])
def test_distinct_conversion_keeps_each_types_verdict(rows, name, location):
    # equal values of different types: the later one is still rejected
    with pytest.raises(cf.InputError, match=rf"^{re.escape(location)}: bad entry"):
        spaces.square_matrix(rows, 2, CONVERTERS[name], name)


def test_distinct_conversion_reads_equal_values_by_type():
    leq = spaces.square_matrix([[1, 1.0], [0, 1]], 2, spaces._zero_one, "leq")
    assert [[(type(v), v) for v in row] for row in leq] == [[(int, 1), (int, 1)],
                                                             [(int, 0), (int, 1)]]
    dist = spaces.square_matrix([[0, 1.0], ["1", 0.0]], 2, spaces._distance, "distance")
    assert dist == [[0, 1], [1, 0]] and all(type(d) is Fraction for row in dist for d in row)
    # an unhashable entry that the converter accepts: a 0-d array in leq
    assert spaces.square_matrix([[np.array(1), 0], [0, 1]], 2, spaces._zero_one,
                                "leq") == [[1, 0], [0, 1]]


def _lcd_scaled(dist):
    scale = math.lcm(*(d.denominator for row in dist for d in row))
    return scale, [[d.numerator * (scale // d.denominator) for d in row] for row in dist]


@pytest.mark.parametrize("path", sorted(DATA.glob("*.json")), ids=lambda p: p.name)
def test_scaled_matches_per_entry_lcd_on_fixtures(path):
    fd = cf.load_finite(str(path)).space.finite
    assert fd.scaled == _lcd_scaled(fd.dist)


@given(dist=st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=12), min_size=n,
             max_size=n), min_size=n, max_size=n)))
def test_scaled_matches_per_entry_lcd(dist):
    n = len(dist)
    leq = [[int(i == j) for j in range(n)] for i in range(n)]
    # through finite_space (equal entries share one Fraction) and with every
    # entry its own object
    shared = cf.finite_space(range(n), dist, leq).finite
    assert shared.scaled == _lcd_scaled(shared.dist) == _lcd_scaled(dist)
    own = spaces.FiniteData(tuple(range(n)), {i: i for i in range(n)},
                            [[Fraction(d) for d in row] for row in dist], leq)
    assert own.scaled == _lcd_scaled(dist)


def _doc(dist, leq):
    n = len(dist)
    return {"description": f"{n}-point space", "elements": [f"e{i}" for i in range(n)],
            "distance": dist, "leq": leq}


_DIST_VALUES = [0, 1, 2, 3, "1/2", "5/3", 0.25, 1e-13, 3e-12, -1, -1e-13,
                "20000000000001/10000000000000", "2000000000003/1000000000000"]
_METRIC3 = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
_CHAIN3 = [[1, 1, 1], [0, 1, 1], [0, 0, 1]]


@st.composite
def finite_docs(draw):
    n = draw(st.integers(1, 5))
    dist = [[draw(st.sampled_from(_DIST_VALUES)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        # zero diagonal and symmetric, so the triangle and order checks decide
        for i in range(n):
            dist[i][i] = 0
            for j in range(i):
                dist[i][j] = dist[j][i]
    leq = [[draw(st.integers(0, 1)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            leq[i][i] = 1
    return _doc(dist, leq)


@given(doc=finite_docs())
@example(doc=_doc([[0, 1], [1, "1/3"]], [[1, 0], [0, 1]]))  # nonzero diagonal
@example(doc=_doc([[0, 1], [2, 0]], [[1, 0], [0, 1]]))  # asymmetric
@example(doc=_doc([[0, -1], [-1, 0]], [[1, 0], [0, 1]]))  # negative
@example(doc=_doc([[0, 1, 3], [1, 0, 1], [3, 1, 0]], _CHAIN3))  # triangle break
# d_xz = 2 + 1e-13 and 2 + 3e-12 both break the triangle: exact spaces get no slack
@example(doc=_doc([[0, 1, "20000000000001/10000000000000"], [1, 0, 1],
                   ["20000000000001/10000000000000", 1, 0]], _CHAIN3))
@example(doc=_doc([[0, 1, "2000000000003/1000000000000"], [1, 0, 1],
                   ["2000000000003/1000000000000", 1, 0]], _CHAIN3))
@example(doc=_doc(_METRIC3, [[1, 1, 0], [1, 1, 0], [0, 0, 1]]))  # not antisymmetric
@example(doc=_doc(_METRIC3, [[1, 1, 0], [0, 1, 1], [0, 0, 1]]))  # not transitive
@example(doc=_doc(_METRIC3, [[0, 1, 0], [0, 1, 0], [0, 0, 0]]))  # not reflexive
@settings(max_examples=300, deadline=None)
def test_finite_audit_matches_oracle_and_callable_lane(doc):
    space = cf.finite_space(doc["elements"], doc["distance"], doc["leq"], doc["description"])
    got = cf.audit_space(space, samples=10, seed=0).to_jsonable()
    assert got == oracle.oracle_audit(doc)
    # the same points audited through the callables, as a space without matrices
    elements = list(doc["elements"])
    callables = dataclasses.replace(space, finite=None, sampler=lambda count, seed: elements)
    assert cf.audit_space(callables, samples=10, seed=0).to_jsonable() == dict(
        got, exhaustive=False)


def test_finite_audit_reads_the_matrices_not_the_callables():
    doc = load_doc("triangle_break4.json")
    space = cf.finite_space(doc["elements"], doc["distance"], doc["leq"])
    calls = []

    def counted(f):
        def wrapped(x, y):
            calls.append((x, y))
            return f(x, y)
        return wrapped

    spied = dataclasses.replace(space, distance=counted(space.distance),
                                leq=counted(space.leq))
    report = cf.audit_space(spied, samples=10, seed=0)
    assert report.failed_axioms() == ["metric_triangle", "order_transitive"]
    # only the triangle counterexample's three distances go through a callable
    assert calls == [("a", "c"), ("a", "b"), ("b", "c")]


def test_scaled_matrix_is_exact_and_shared_with_the_pair_index():
    doc = load_doc("triangle_break4.json")
    fd = cf.finite_space(doc["elements"], doc["distance"], doc["leq"]).finite
    scale, scaled = fd.scaled
    assert scale == 4
    assert all(scaled[i][j] == fd.dist[i][j] * scale for i in range(4) for j in range(4))
    pairs = fd.pair_index
    assert pairs.scale == scale
    up = [(i, j, scaled[i][j]) for i in range(4) for j in range(4) if fd.leq[i][j]]
    # one entry per comparable pair, in distance order with ties row-major
    walk = sorted(range(len(up)), key=lambda p: up[p][2])
    assert pairs.pos == walk
    assert list(zip(pairs.ys, pairs.vs, pairs.dists)) == [up[p] for p in walk]


@pytest.mark.parametrize("space, failed", [
    (cf.finite_space("ab", [[1e-13, 1], [1, 0]], [[1, 0], [0, 1]]), ["metric_identity"]),
    (cf.finite_space("abc", [[0, 1, 2 + 1e-13], [1, 0, 1], [2 + 1e-13, 1, 0]],
                     [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), ["metric_triangle"]),
], ids=["identity_1e-13", "triangle_2+1e-13"])
def test_finite_audit_has_zero_tolerance(space, failed):
    # both lanes: the matrices, and the callables of the same exact space
    assert cf.audit_space(space).failed_axioms() == failed
    callables = dataclasses.replace(
        space, finite=None, sampler=lambda count, seed: list(space.finite.elements))
    assert cf.audit_space(callables).failed_axioms() == failed


@pytest.mark.parametrize("corner", [58, 1000])
def test_large_finite_space_is_audited_exhaustively(corner):
    # 59 points: 59**3 > 200,000 triples, all of them checked on the matrices;
    # a path metric, with the corner distance d(0, 58) set to corner
    n = 59
    dist = [[abs(i - j) for j in range(n)] for i in range(n)]
    dist[0][n - 1] = dist[n - 1][0] = corner
    doc = _doc(dist, [[int(i <= j) for j in range(n)] for i in range(n)])
    space = cf.finite_space(doc["elements"], doc["distance"], doc["leq"], doc["description"])
    report = cf.audit_space(space, samples=10, seed=0)
    checks = {a.name: a.checks for a in report.axioms}
    assert report.exhaustive
    assert checks["metric_symmetry"] == n * (n - 1) // 2
    assert checks["metric_triangle"] == checks["order_transitive"] == n ** 3
    assert report.failed_axioms() == ([] if corner == n - 1 else ["metric_triangle"])
    assert report.to_jsonable() == oracle.oracle_audit(doc)
