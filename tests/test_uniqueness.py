import dataclasses
import functools
import math
import pathlib
import random
import subprocess
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coupledfp as cf
from coupledfp import uniqueness
from coupledfp.spaces import PairPoint, _real_lattice_bound, pairs_comparable

from conftest import fixture_path, load_doc


def test_probe_real_lattice_rate_one(real_space):
    rate = cf.probe_comparability(real_space, samples=400, seed=0,
                                  bound_search=_real_lattice_bound)
    assert rate == 1.0


def _small_grid_sampler(count, seed):
    # few values: ties, Y == V trials and incomparable lattice bounds
    rng = random.Random(seed)
    return [rng.choice((-1.0, 0.0, 0.5, 1.0)) for _ in range(count)]


LINE = cf.real_line()
PROBE_SPACES = {
    "real_line": LINE,
    "radius_0.1": cf.real_line(0.1),
    "small_grid": dataclasses.replace(LINE, sampler=_small_grid_sampler),
}


@pytest.mark.parametrize("samples", [1, 2, 50, 500])
@pytest.mark.parametrize("name", list(PROBE_SPACES))
def test_probe_lattice_rate_matches_the_scalar_probe(name, samples, monkeypatch):
    # real_line() itself with its lattice bound settles the rate on its first
    # trial; a replaced sampler or order, or a user bound, counts on the
    # scalar loop, and all three give the same float
    space = PROBE_SPACES[name]
    counted, calls = uniqueness._sampled_counts, []
    monkeypatch.setattr(uniqueness, "_sampled_counts",
                        lambda pool, *args: calls.append(pool) or counted(pool, *args))
    replaced = dataclasses.replace(space, leq=lambda x, y: True if x <= y else False)
    user_bound = lambda Y, V: _real_lattice_bound(Y, V)  # noqa: E731
    for seed in (0, 1, 42):
        rates = [cf.probe_comparability(s, samples, seed, bound)
                 for s, bound in ((space, _real_lattice_bound), (replaced, _real_lattice_bound),
                                  (space, user_bound))]
        assert rates[0] == rates[1] == rates[2]
    assert len(calls) == (9 if name == "small_grid" else 6)


class _CountingPartial(functools.partial):
    # still real_line()'s own sampler to _own_real_line, but records counts
    def __call__(self, count, seed):
        self.counts.append(count)
        return super().__call__(count, seed)


@pytest.mark.parametrize("samples", [1, 500])
def test_probe_lattice_rate_on_the_real_line_reads_one_trial(samples):
    # real_line()'s sampler is prefix-stable, with finite floats: its first
    # trial settles the rate, and the probe asks for those four points only
    sampler = _CountingPartial(LINE.sampler.func, *LINE.sampler.args)
    sampler.counts = []
    space = dataclasses.replace(LINE, sampler=sampler)
    wrapped = dataclasses.replace(LINE, sampler=lambda count, seed: LINE.sampler(count, seed))
    for seed in range(5):
        rate = cf.probe_comparability(space, samples, seed, _real_lattice_bound)
        assert rate == cf.probe_comparability(wrapped, samples, seed, _real_lattice_bound) == 1.0
    assert sampler.counts == [4] * 5


@pytest.mark.parametrize("nan", [lambda: math.nan, lambda: float("nan")],
                         ids=["same_nan", "new_nans"])
@pytest.mark.parametrize("seed", range(6))
def test_probe_with_nan_draws_counts_on_the_scalar_loop(seed, nan):
    # PairPoint equality matches a NaN object with itself, and the lattice
    # bound of a NaN is incomparable; a pool with a NaN is counted by the
    # scalar loop on real_line's own order and lattice bound
    rng = random.Random(seed)
    pool = [rng.choice((-1.0, 0.0, 1.0)) if rng.random() < 0.9 else nan() for _ in range(400)]
    space = dataclasses.replace(cf.real_line(), sampler=lambda count, seed: pool[:count])
    rate = cf.probe_comparability(space, 100, 0, _real_lattice_bound)
    assert rate == cf.probe_comparability(space, 100, 0, lambda Y, V: _real_lattice_bound(Y, V))
    assert 0 < rate < 1


def test_probe_lattice_rate_is_exact_past_two_to_the_53():
    # Y = (2**53, 2**53) and V = (2**53 + 1, 2**53) differ, though not as
    # float64; the lattice bound V is above both, so the rate is 1.0 whether
    # or not numpy is loaded
    import numpy  # noqa: F401

    pool = [2 ** 53, 2 ** 53, 2 ** 53 + 1, 2 ** 53]
    space = dataclasses.replace(cf.real_line(), sampler=lambda count, seed: pool[:count])
    assert cf.probe_comparability(space, 1, 0, _real_lattice_bound) == 1.0


def test_probe_lattice_rate_checks_membership_as_the_scalar_loop_does():
    # a contains that rejects a sampled point makes both probes raise
    space = dataclasses.replace(cf.real_line(), contains=lambda x: x >= -5)
    for bound in (_real_lattice_bound, lambda Y, V: _real_lattice_bound(Y, V)):
        with pytest.raises(cf.DomainMismatchError):
            cf.probe_comparability(space, 50, 0, bound)


# few distinct values, so ties and Y == V trials are common; the same NaN
# object and fresh NaNs, which PairPoint equality tells apart
_POOL_POINTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 2 ** 53,
                     float(2 ** 53), Fraction(1, 3)]),
    st.floats(),
    st.integers(2 ** 53 - 2, 2 ** 53 + 2),
    st.fractions(max_denominator=7),
)


@given(pool=st.lists(_POOL_POINTS, max_size=24), samples=st.integers(1, 6))
@example(pool=[2 ** 53, 2 ** 53, 2 ** 53 + 1, 2 ** 53], samples=1)  # one float64 pair
@example(pool=[1.0, math.nan, 1.0, math.nan], samples=1)  # one NaN object: Y == V
@example(pool=[1.0, math.nan, 1.0, float("nan")], samples=1)  # two NaNs: Y != V
@example(pool=[-0.0, 1.0, 0.0, 1.0, 2.0], samples=2)  # -0.0 == 0.0, and a short trial
@settings(max_examples=300, deadline=None)
def _lattice_rate_is_the_scalar_count(pool, samples):
    # held to the probe's definition on PairPoints, not to the count it runs
    space = dataclasses.replace(cf.real_line(), sampler=lambda count, seed: pool[:count])
    good, trials = reference_counts(pool[:4 * samples], space, _real_lattice_bound)
    rate = cf.probe_comparability(space, samples, 0, _real_lattice_bound)
    assert rate == (good / trials if trials else 0.0)


def test_probe_lattice_rate_is_the_scalar_count_with_numpy_loaded():
    import numpy  # noqa: F401

    _lattice_rate_is_the_scalar_count()


LATTICE_RATE_WITHOUT_NUMPY = """
import sys
sys.path.insert(0, sys.argv[1])
import test_uniqueness
test_uniqueness._lattice_rate_is_the_scalar_count()
print("numpy" in sys.modules)
"""


def test_probe_lattice_rate_is_the_scalar_count_without_numpy():
    out = subprocess.run([sys.executable, "-c", LATTICE_RATE_WITHOUT_NUMPY,
                          str(pathlib.Path(__file__).parent)],
                         capture_output=True, text=True, check=True).stdout.split()
    assert out == ["False"]


def reference_counts(pool, space, bound_search):
    """(good, trials) of the sampled probe by its definition on PairPoints:
    a trial with Y != V is good when Y and V, or bound_search(Y, V) and each
    of them, are comparable (pairs_comparable, which tests membership)."""
    trials = good = 0
    for t in range(len(pool) // 4):
        Y = PairPoint(pool[4 * t], pool[4 * t + 1])
        V = PairPoint(pool[4 * t + 2], pool[4 * t + 3])
        if Y == V:
            continue
        trials += 1
        if bound_search is None:
            good += pairs_comparable(Y, V, space)
        else:
            Z = bound_search(Y, V)
            good += (Z is not None and pairs_comparable(Z, Y, space)
                     and pairs_comparable(Z, V, space))
    return good, trials


def _partial_leq(x, y):
    # the usual order, with NaN incomparable to everything
    if x <= y:
        return True
    if y <= x:
        return False
    return cf.INCOMPARABLE


PROBE_BOUNDS = {
    "none": None,
    "lattice": _real_lattice_bound,
    "user": lambda Y, V: PairPoint(min(Y.first, V.second), max(Y.second, V.first)),
    "no_bound": lambda Y, V: None,
}


def _counted(count, space, pool, bound_search):
    """The outcome of count on pool, as (result or error message, the leq
    calls as pairs of the compared objects)."""
    calls = []

    def leq(x, y):
        calls.append((x, y))
        return space.leq(x, y)

    try:
        out = count(pool, dataclasses.replace(space, leq=leq), bound_search)
    except cf.DomainMismatchError as exc:
        out = str(exc)
    return out, calls


@given(pool=st.lists(_POOL_POINTS, max_size=24), bound=st.sampled_from(sorted(PROBE_BOUNDS)),
       order=st.sampled_from(["line", "partial"]), reject=st.sampled_from([None, 1.0, -1.0]))
@example(pool=[1.0, 0.0, 0.0, 1.0], bound="user", order="line", reject=1.0)
@example(pool=[math.nan, 0.0, 1.0, 0.0], bound="none", order="partial", reject=None)
@example(pool=[0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0], bound="lattice", order="line",
         reject=None)  # a Y == V trial, then a counted one
@settings(max_examples=400, deadline=None)
def test_sampled_counts_are_the_pair_point_loop(pool, bound, order, reject):
    # the coordinate count gives the PairPoint loop's (good, trials), or its
    # DomainMismatchError message when contains rejects a point, and asks
    # leq the same questions in the same order
    space = cf.real_line()
    if order == "partial":
        space = dataclasses.replace(space, leq=_partial_leq)
    if reject is not None:
        space = dataclasses.replace(space, contains=lambda x: x != reject)
    got, got_calls = _counted(uniqueness._sampled_counts, space, pool, PROBE_BOUNDS[bound])
    want, want_calls = _counted(reference_counts, space, pool, PROBE_BOUNDS[bound])
    assert got == want
    assert len(got_calls) == len(want_calls)
    assert all(a is c and b is d for (a, b), (c, d) in zip(got_calls, want_calls))


@pytest.mark.parametrize("name", ["antichain3.json", "twocomp4.json", "diamond5.json"])
def test_probe_finite_bound_search_is_the_pair_point_enumeration(name):
    # the enumeration of a finite space with a bound search counts on
    # coordinates too: the same rate as every distinct pair of PairPoints
    prob = cf.load_finite(fixture_path(name))
    space, elements = prob.space, prob.space.finite.elements
    pairs = [PairPoint(a, b) for a in elements for b in elements]
    for bound in (lambda Y, V: Y, lambda Y, V: PairPoint(V.first, Y.second),
                  lambda Y, V: None if Y.first == V.second else PairPoint(elements[0], Y.first)):
        good = sum((Z := bound(Y, V)) is not None and pairs_comparable(Z, Y, space)
                   and pairs_comparable(Z, V, space)
                   for i, Y in enumerate(pairs) for V in pairs[i + 1:])
        trials = len(pairs) * (len(pairs) - 1) // 2
        assert cf.probe_comparability(space, 10, 0, bound) == good / trials


def test_probe_antichain_rate_zero():
    doc = load_doc("antichain3.json")
    space = cf.finite_space(doc["elements"], doc["distance"], doc["leq"])
    assert cf.probe_comparability(space, samples=100, seed=0) == 0.0


def enumerated_rate(leq):
    """Share of distinct pair-of-pairs ((a, b), (c, d)) that are comparable
    in the product order of the 0/1 matrix leq, by plain enumeration."""
    n = len(leq)

    def pair_comp(Y, V):
        lower = leq[Y[0]][V[0]] and leq[V[1]][Y[1]]
        upper = leq[V[0]][Y[0]] and leq[Y[1]][V[1]]
        return bool(lower or upper)

    pairs = [(a, b) for a in range(n) for b in range(n)]
    good = total = 0
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            total += 1
            if pair_comp(pairs[i], pairs[j]):
                good += 1
    return good / total if total else 0.0


def test_probe_finite_lattice_matches_enumeration():
    doc = load_doc("diamond5.json")
    space = cf.finite_space(doc["elements"], doc["distance"], doc["leq"])
    assert cf.probe_comparability(space, samples=10, seed=0) == enumerated_rate(doc["leq"])

    # with the join/meet bound every pair-of-pairs is covered
    def bound(Y, V):
        return PairPoint("top", "bot")

    assert cf.probe_comparability(space, samples=10, seed=0, bound_search=bound) == 1.0


def _zero_one_matrices(max_n=5):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                           min_size=n, max_size=n))


@given(leq=_zero_one_matrices())
@example(leq=[[0]])  # not reflexive
@example(leq=[[0, 1], [1, 0]])  # neither reflexive nor antisymmetric
@example(leq=[[1] * 3] * 3)  # every element below every other
@example(leq=[[1, 0, 1], [0, 1, 0], [1, 0, 0]])
@settings(max_examples=200, deadline=None)
def test_probe_matches_enumeration_on_any_zero_one_matrix(leq):
    # the closed-form count must give the enumeration's rate exactly, whether
    # or not leq is a partial order
    n = len(leq)
    space = cf.finite_space([f"e{i}" for i in range(n)], [[0] * n] * n, leq)
    assert cf.probe_comparability(space, samples=10, seed=0) == enumerated_rate(leq)


def test_probe_counts_large_finite_spaces_exactly():
    # 27 elements: 27**4 > 500,000, past the bound_search enumeration's gate,
    # but the closed form needs no enumeration
    n = 27
    leq = [[int(i <= j) for j in range(n)] for i in range(n)]
    space = cf.finite_space([f"e{i}" for i in range(n)], [[abs(i - j) for j in range(n)]
                                                           for i in range(n)], leq)
    assert cf.probe_comparability(space, samples=100, seed=0) == enumerated_rate(leq)


def test_multi_start_flagship_endpoints_coincide(samet):
    starts = [PairPoint(-3.0, 3.0), PairPoint(-1.0, 1.0), PairPoint(-5.0, 4.0)]
    for z in starts:
        assert cf.check_start(samet.operator, z).admissible
    rep = cf.multi_start_uniqueness(samet.operator, starts, tol=1e-10,
                                    bound_search=samet.bound_search)
    assert rep.all_converged
    assert len(rep.endpoints) == 3
    assert rep.max_pairwise_d2 <= 2e-10
    assert rep.comparability_rate == 1.0
    assert all(g <= 2e-10 for g in rep.diagonal_gaps)


def test_multi_start_single_start(samet):
    rep = cf.multi_start_uniqueness(samet.operator, [PairPoint(-3.0, 3.0)], tol=1e-10)
    assert rep.max_pairwise_d2 == 0


def test_multi_start_exposes_two_fixed_points():
    prob = cf.load_finite(fixture_path("twocomp4.json"))
    starts = [PairPoint("a1", "a0"), PairPoint("b1", "b0")]
    rep = cf.multi_start_uniqueness(prob.operator, starts, tol=1e-10)
    assert rep.all_converged
    assert rep.endpoints == [PairPoint("a0", "a0"), PairPoint("b0", "b0")]
    assert rep.max_pairwise_d2 == 2  # distinct coupled fixed points
    assert rep.comparability_rate < 1.0


def reference_spread(endpoints, space):
    """max_pairwise_d2 by its definition: the largest d2 over endpoint pairs
    i < j, the first on ties, and the int 0 when none is positive."""
    worst = 0
    for i in range(len(endpoints)):
        for j in range(i + 1, len(endpoints)):
            dd = cf.d2(endpoints[i], endpoints[j], space)
            if dd > worst:
                worst = dd
    return worst


def _spread(op, endpoints, monkeypatch):
    # every start converges at once to itself, so the endpoints are the starts
    monkeypatch.setattr(uniqueness, "solve", lambda op, Z0, **kw: types.SimpleNamespace(
        termination=uniqueness.TERM_CONVERGED, final=Z0))
    return cf.multi_start_uniqueness(op, endpoints, comparability_samples=1).max_pairwise_d2


_TINY = st.sampled_from([0.0, -0.0, 5e-324, 1e-323, 1.5e-323, 2e-323, 1.0, math.nan,
                         math.inf, -math.inf])


@given(endpoints=st.lists(st.tuples(st.one_of(_TINY, st.floats()), st.one_of(_TINY, st.floats())),
                          min_size=1, max_size=6))
@example(endpoints=[(0.0, 0.0), (5e-324, 0.0)])  # a sum of 5e-324 is kept whole
@example(endpoints=[(0.0, 0.0), (5e-324, 0.0), (1e-323, 0.0)])  # 1e-323 halves to 5e-324 too
@example(endpoints=[(0.0, 0.0), (1.5e-323, 0.0), (2e-323, 0.0)])  # 3 and 4 ulps halve alike
@example(endpoints=[(0.0, math.nan), (1.0, 0.0), (math.inf, 0.0)])
@example(endpoints=[(1.0, 2.0)] * 3)  # all equal: the int 0
@settings(max_examples=300, deadline=None)
def test_max_pairwise_d2_is_the_d2_loop_on_floats(endpoints):
    with pytest.MonkeyPatch.context() as mp:
        op = cf.CoupledOperator(apply=lambda x, y: x, space=cf.real_line())
        endpoints = [PairPoint(x, y) for x, y in endpoints]
        got = _spread(op, endpoints, mp)
    want = reference_spread(endpoints, op.space)
    assert (type(got), repr(got)) == (type(want), repr(want))


@pytest.mark.parametrize("name", ["one.json", "chain3_monotone.json", "twocomp4.json",
                                  "diamond5.json", "triangle_break4.json"])
def test_max_pairwise_d2_is_the_d2_loop_on_finite_fixtures(name, monkeypatch):
    # exact Fraction distances: every pair of elements as an endpoint
    op = cf.load_finite(fixture_path(name)).operator
    elements = op.space.finite.elements
    endpoints = [PairPoint(a, b) for a in elements for b in elements]
    for chosen in (endpoints, endpoints[::-1], endpoints[:1], endpoints[::3]):
        got = _spread(op, chosen, monkeypatch)
        want = reference_spread(chosen, op.space)
        assert (type(got), repr(got)) == (type(want), repr(want))


def test_multi_start_flags_nonconverged():
    space = cf.real_line()
    op = cf.CoupledOperator(apply=lambda x, y: x + 1.0, space=space)
    rep = cf.multi_start_uniqueness(op, [PairPoint(0.0, 0.0)], tol=1e-10,
                                    max_iter=200)
    assert not rep.all_converged
    assert rep.endpoints == []
    assert rep.failed[0][1] == "stalled"


def test_multi_start_requires_starts(samet):
    with pytest.raises(cf.InputError):
        cf.multi_start_uniqueness(samet.operator, [], tol=1e-10)


def test_check_diagonal_flagship(samet):
    tr = cf.solve(samet.operator, PairPoint(-3.0, 3.0), tol=1e-10)
    chk = cf.check_diagonal(samet.operator, tr.final, tol=1e-10)
    assert chk.within
    assert chk.gap <= 2e-10
    assert chk.diagonal_residual <= 1e-10


def test_check_diagonal_exact_fixed_point(samet):
    chk = cf.check_diagonal(samet.operator, PairPoint(0.0, 0.0), tol=1e-10)
    assert chk.within and chk.gap == 0.0 and chk.diagonal_residual == 0.0


def test_check_diagonal_comparable_start_instance():
    # start coordinates are comparable (a total order), so the limit sits on
    # the diagonal
    prob = cf.builtin("linear(1,1,4)")
    tr = cf.solve(prob.operator, PairPoint(-2.0, 2.0), tol=1e-10)
    chk = cf.check_diagonal(prob.operator, tr.final, tol=1e-10)
    assert chk.within


def test_check_diagonal_within_is_a_json_bool_under_a_numpy_distance():
    # a distance returning numpy floats made within a numpy bool, which
    # json.dumps rejects
    import numpy as np

    space = dataclasses.replace(cf.real_line(), distance=lambda x, y: np.float64(abs(x - y)))
    op = cf.CoupledOperator(apply=lambda x, y: (x - 3 * y) / 5, space=space)
    chk = cf.check_diagonal(op, PairPoint(0.0, 0.0), tol=1e-10)
    assert chk.to_jsonable()["within"] is True


def test_check_diagonal_rejects_bad_endpoint(samet):
    with pytest.raises(cf.InputError):
        cf.check_diagonal(samet.operator, PairPoint(5.0, 5.0), tol=1e-10)


@pytest.mark.parametrize("endpoint", [PairPoint(math.nan, math.nan),
                                      PairPoint(0.0, math.nan)])
def test_check_diagonal_rejects_nan_endpoint(samet, endpoint):
    # a NaN residual is not within tol
    with pytest.raises(cf.InputError):
        cf.check_diagonal(samet.operator, endpoint, tol=1e-10)


def test_diagonal_gap_zero_for_diagonal_map():
    prob = cf.builtin("linear(1,0,1)")  # F(x, y) = x fixes every diagonal pair
    chk = cf.check_diagonal(prob.operator, PairPoint(2.0, 2.0), tol=1e-10)
    assert chk.within and chk.gap == 0.0


@pytest.mark.parametrize("name", ["samet_example", "linear(1,1,4)", "linear(2,1,8)"])
def test_diagonal_residual_bounded_by_lipschitz_slack(name):
    # d(F(x,x), x) <= lb * gap + 2 * residual for declared coordinatewise
    # Lipschitz data: F(x,x) differs from F(x,y) by at most lb*d(x,y), and
    # d(F(x,y), x) is at most twice the product-space residual
    prob = cf.builtin(name)
    op = prob.operator
    la, lb = op.lipschitz_data
    tr = cf.solve(op, prob.default_start, tol=1e-10)
    chk = cf.check_diagonal(op, tr.final, tol=1e-10)
    bound = lb * chk.gap + 2 * cf.residual(op, tr.final)
    assert chk.diagonal_residual <= bound + 1e-15
