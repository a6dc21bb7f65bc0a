import csv
import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coupledfp as cf
from coupledfp import solver
from coupledfp.spaces import PairPoint

from conftest import FINITE_FIXTURES, fixture_path, np_tanh_operator


# --- check_start -----------------------------------------------------------

def test_check_start_up(samet):
    v = cf.check_start(samet.operator, PairPoint(-3.0, 3.0))
    assert v.admissible and v.direction == "up"


def test_check_start_down(samet):
    v = cf.check_start(samet.operator, PairPoint(3.0, -3.0))
    assert v.admissible and v.direction == "down"


def test_check_start_fixed_point_counts_as_up(samet):
    v = cf.check_start(samet.operator, PairPoint(0.0, 0.0))
    assert v.admissible and v.direction == "up"


def test_check_start_none(samet):
    v = cf.check_start(samet.operator, PairPoint(1.0, 1.0))
    assert not v.admissible and v.direction == "none"
    assert v.details


def test_check_start_incomparable_reported():
    from conftest import antichain_reals

    space = antichain_reals()
    op = cf.CoupledOperator(apply=lambda x, y: x / 2, space=space)
    v = cf.check_start(op, PairPoint(1.0, -1.0))
    assert not v.admissible and v.direction == "none"
    assert "incomparable" in v.details


# --- the flagship run ------------------------------------------------------

def test_solve_flagship_converges(samet):
    tr = cf.solve(samet.operator, PairPoint(-3.0, 3.0), tol=1e-10)
    assert tr.termination == "converged"
    assert tr.iterations == 112
    assert tr.iterations <= 120
    assert tr.residual <= 1e-10
    assert abs(tr.final.first) <= 1e-10
    assert abs(tr.final.second) <= 1e-10


def test_solve_flagship_matches_closed_form(samet):
    tr = cf.solve(samet.operator, PairPoint(-3.0, 3.0), tol=1e-10)
    for n in range(51):
        z = tr.iterates[n]
        expect = 3.0 * 0.8 ** n
        assert z.first == pytest.approx(-expect, rel=1e-12)
        assert z.second == pytest.approx(expect, rel=1e-12)


def test_solve_flagship_eta_sequence(samet):
    tr = cf.solve(samet.operator, PairPoint(-3.0, 3.0), tol=1e-10)
    assert tr.eta[0] == pytest.approx(0.6, abs=1e-14)
    for n in range(1, 51):
        assert tr.eta[n - 1] == pytest.approx(0.6 * 0.8 ** (n - 1), rel=1e-12)
    for i in range(len(tr.eta) - 1):
        assert tr.eta[i + 1] <= tr.eta[i] + 1e-12 * max(1.0, tr.eta[i])
    assert len(tr.eta) == tr.iterations
    assert len(tr.iterates) == tr.iterations + 1


def test_iterates_monotone_for_up_start(samet):
    tr = cf.solve(samet.operator, PairPoint(-3.0, 3.0), tol=1e-10)
    space = samet.operator.space
    for i in range(len(tr.iterates) - 1):
        assert cf.product_leq(tr.iterates[i], tr.iterates[i + 1], space) is True


def test_solve_immediate_fixed_point():
    prob = cf.builtin("linear(1,0,1)")  # F(x, y) = x: every diagonal point fixed
    tr = cf.solve(prob.operator, PairPoint(4.0, 4.0), tol=1e-10)
    assert tr.termination == "converged"
    assert tr.iterations == 0
    assert tr.residual == 0.0
    assert tr.eta == []


def test_restart_from_endpoint_is_unchanged(samet):
    tr = cf.solve(samet.operator, PairPoint(-3.0, 3.0), tol=1e-10)
    again = cf.solve(samet.operator, tr.final, tol=1e-10)
    assert again.iterations == 0
    assert again.final == tr.final


def test_solve_rejects_inadmissible_start(samet):
    with pytest.raises(cf.InadmissibleStartError) as exc:
        cf.solve(samet.operator, PairPoint(1.0, 1.0), tol=1e-10)
    assert exc.value.verdict.direction == "none"


def test_solve_inadmissible_allowed_when_not_required(samet):
    tr = cf.solve(samet.operator, PairPoint(1.0, 1.0), tol=1e-10,
                  require_admissible=False)
    assert tr.termination == "converged"
    assert abs(tr.final.first) <= 1e-10


def test_solve_monotonicity_violation():
    prob = cf.builtin("linear(2,0,1)")  # doubling map: steps grow
    tr = cf.solve(prob.operator, PairPoint(1.0, -1.0), tol=1e-10, max_iter=100)
    assert tr.termination == "monotonicity_violation"
    assert tr.iterations == 2


def test_solve_stalls_on_translation():
    space = cf.real_line()
    op = cf.CoupledOperator(apply=lambda x, y: x + 1.0, space=space,
                            description="translation")
    tr = cf.solve(op, PairPoint(0.0, 0.0), tol=1e-10, max_iter=500,
                  require_admissible=False)
    assert tr.termination == "stalled"
    assert tr.iterations == 51


def test_solve_reports_divergence():
    # (2x - y)/1 from (1, -1): each step triples eta
    tr = cf.solve(cf.builtin("linear(2,1,1)").operator, PairPoint(1.0, -1.0),
                  require_admissible=False)
    assert tr.termination == "diverged"
    assert tr.iterations == 51


def test_solve_stalls_on_a_cycle_with_unequal_steps():
    # x -> x + 1 (mod 3) on points 0, 1, 3 of the line: eta cycles 1, 2, 3,
    # so it has not grown over the window even where eta[-1] > eta[-51]
    space = cf.finite_space([0, 1, 2], [[0, 1, 3], [1, 0, 2], [3, 2, 0]],
                            [[int(i == j) for j in range(3)] for i in range(3)])
    op = cf.CoupledOperator(apply=lambda x, y: (x + 1) % 3, space=space)
    tr = cf.solve(op, PairPoint(0, 0), require_admissible=False)
    assert tr.termination == "stalled"
    assert tr.eta[-1] > tr.eta[-51]


def test_solve_max_iterations(samet):
    tr = cf.solve(samet.operator, PairPoint(-3.0, 3.0), tol=1e-300, max_iter=50)
    assert tr.termination == "max_iterations"
    assert tr.iterations == 50


def test_solve_converges_on_numpy_floats():
    # (x - 3 tanh y)/5 returns numpy floats; the start is still admissible
    tr = cf.solve(np_tanh_operator(), PairPoint(-3.0, 3.0), tol=1e-10)
    assert tr.start_verdict.direction == "up"
    assert tr.termination == "converged"
    assert abs(tr.final.first) <= 1e-9 and abs(tr.final.second) <= 1e-9


@pytest.mark.parametrize("apply,start,iterations", [
    (lambda x, y: math.nan if x > 5 else (x - y) / 4, (6.0, 7.0), 0),  # NaN image
    (lambda x, y: 1e200 * (x - y), (1.0, 0.0), 1),  # second image overflows
])
def test_solve_stops_on_non_finite_residual(apply, start, iterations):
    op = cf.CoupledOperator(apply=apply, space=cf.real_line())
    tr = cf.solve(op, PairPoint(*start), require_admissible=False)
    assert tr.termination == "non_finite"
    assert tr.iterations == iterations
    assert not tr.residual < math.inf


def _boxed(apply, radius=10.0):
    """apply on the real line restricted by contains to [-radius, radius]."""
    space = dataclasses.replace(cf.real_line(radius), contains=lambda x: abs(x) <= radius)
    return cf.CoupledOperator(apply=apply, space=space)


@pytest.mark.parametrize("apply,start,element", [
    (lambda x, y: 2 * x + 1, (0.0, 0.0), 15.0),  # the orbit 1, 3, 7, 15 leaves at step 4
    (lambda x, y: (x - y) / 4, (20.0, 0.0), 20.0),  # the start lies outside
    (lambda x, y: 2 * x + 1, (20.0, 0.0), 41.0),  # both: the first image is named first
])
def test_solve_names_the_first_element_outside_the_space(apply, start, element):
    message = f"element {element!r} is not in real line (|.|, usual order, sampling box [-10.0, 10.0])"
    with pytest.raises(cf.DomainMismatchError) as exc:
        cf.solve(_boxed(apply), PairPoint(*start), require_admissible=False)
    assert str(exc.value) == message


@pytest.mark.parametrize("require_admissible", [True, False])
def test_solve_evaluates_each_image_once(samet, require_admissible):
    # the start's verdict reads the first step's images: two apply calls for
    # the start and two per step
    apply, calls = samet.operator.apply, []
    op = dataclasses.replace(samet.operator, apply=lambda x, y: calls.append(x) or apply(x, y))
    tr = cf.solve(op, PairPoint(-3.0, 3.0), require_admissible=require_admissible)
    assert len(calls) == 2 * tr.iterations + 2 == 226
    want = cf.solve(samet.operator, PairPoint(-3.0, 3.0), require_admissible=require_admissible)
    assert tr.to_jsonable() == want.to_jsonable()


def _creeping(x, y):
    # steps of 1 + 1e-15 * |x|: each step grows, by far less than the slack
    return x + 1 + 1e-15 * x if x >= 0 else x - 1 + 1e-15 * x


def test_solve_excuses_step_growth_within_the_rounding_slack():
    op = cf.CoupledOperator(apply=_creeping, space=cf.real_line())
    tr = cf.solve(op, PairPoint(1.0, -1.0), max_iter=100)
    assert tr.eta[1] > tr.eta[0]
    assert (tr.termination, tr.iterations) == ("stalled", 51)


def test_solve_validates_inputs(samet):
    with pytest.raises(cf.InputError):
        cf.solve(samet.operator, PairPoint(-3.0, 3.0), tol=0.0)
    with pytest.raises(cf.InputError):
        cf.solve(samet.operator, PairPoint(-3.0, 3.0), max_iter=0)
    with pytest.raises(cf.InputError):
        cf.solve(samet.operator, PairPoint(-3.0, 3.0), keep_every=0)


def test_trace_thinning_keeps_eta_full(samet):
    tr = cf.solve(samet.operator, PairPoint(-3.0, 3.0), tol=1e-10, keep_every=10)
    assert len(tr.eta) == tr.iterations
    idx = tr.kept_indices()
    assert idx[0] == 0 and idx[-1] == tr.iterations
    assert len(tr.iterates) == len(idx)
    full = cf.solve(samet.operator, PairPoint(-3.0, 3.0), tol=1e-10)
    for n, z in zip(idx, tr.iterates):
        assert z == full.iterates[n]


def test_residual_values(samet):
    assert cf.residual(samet.operator, PairPoint(0.0, 0.0)) == 0.0
    r = cf.residual(samet.operator, PairPoint(-3.0, 3.0))
    assert r == pytest.approx(0.6, abs=1e-14)


def test_trace_csv_json_agree(samet, tmp_path):
    tr = cf.solve(samet.operator, PairPoint(-3.0, 3.0), tol=1e-10)
    path = tmp_path / "trace.csv"
    tr.write_csv(path)
    payload = tr.to_jsonable()
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "x_n", "y_n", "eta_n"]
    body = rows[1:]
    assert len(body) == len(payload["kept_iterates"])
    for row, (n, (x, y)) in zip(body, payload["kept_iterates"]):
        assert int(row[0]) == n
        assert float(row[1]) == x
        assert float(row[2]) == y
        if n > 0:
            assert float(row[3]) == payload["eta"][n - 1]
    # the JSON text round-trips the same floats
    again = json.loads(json.dumps(payload))
    assert again["eta"] == payload["eta"]


class _Unprintable:
    def __str__(self):
        raise ValueError("no text form")


def test_trace_csv_that_raises_midway_leaves_no_stale_tail(tmp_path):
    # the rows before the failing one are the whole file; nothing of the
    # longer file it replaced is left after them
    path = tmp_path / "trace.csv"
    path.write_text("stale," * 10000)
    trace = solver.IterationTrace([PairPoint(0.5, -0.5), PairPoint(_Unprintable(), 0.0)],
                                  [1.0], "converged", 0.0, 1)
    with pytest.raises(ValueError, match="no text form"):
        trace.write_csv(path)
    assert path.read_bytes() == b"n,x_n,y_n,eta_n\r\n0,0.5,-0.5,\r\n"


# --- finite instances ------------------------------------------------------

def test_finite_constant_map_converges_fast():
    prob = cf.load_finite(fixture_path("chain2_const.json"))
    tr = cf.solve(prob.operator, prob.default_start, tol=1e-10)
    assert tr.termination == "converged"
    assert tr.iterations <= 1
    tr2 = cf.solve(prob.operator, PairPoint("hi", "lo"), tol=1e-10,
                   require_admissible=False)
    assert tr2.termination == "converged"
    assert tr2.iterations <= 1
    assert tr2.final == PairPoint("lo", "lo")


def test_finite_two_component_solve_exact():
    prob = cf.load_finite(fixture_path("twocomp4.json"))
    tr = cf.solve(prob.operator, prob.default_start, tol=1e-10)
    assert tr.termination == "converged"
    assert tr.final == PairPoint("a0", "a0")
    assert tr.residual == 0


def test_finite_diamond_admissible_run():
    prob = cf.load_finite(fixture_path("diamond5.json"))
    v = cf.check_start(prob.operator, prob.default_start)
    assert v.admissible and v.direction == "up"
    tr = cf.solve(prob.operator, prob.default_start, tol=1e-10)
    assert tr.termination == "converged"
    assert tr.final == PairPoint("bot", "bot")
    # up starts generate a non-decreasing pair sequence, exactly checkable here
    for i in range(len(tr.iterates) - 1):
        assert cf.product_leq(tr.iterates[i], tr.iterates[i + 1], prob.space) is True


# --- the loop against a reference walk through product_T and d2 ------------

def _reference_solve(op, Z0, tol, max_iter, require_admissible, keep_every):
    """Picard iteration written pair by pair: every step builds T(Z) with
    product_T and measures d2(T(Z), Z), which checks all four coordinates."""
    verdict = cf.check_start(op, Z0)
    if require_admissible and not verdict.admissible:
        raise cf.InadmissibleStartError(verdict)
    space = op.space
    iterates, eta, ratios = [Z0], [], []
    Z = Z0
    W = cf.product_T(op, Z)
    r = cf.d2(W, Z, space)
    if r <= tol or not r < math.inf:
        return solver.IterationTrace(iterates, eta, "converged" if r <= tol else "non_finite",
                                     r, 0, keep_every, verdict)
    n = 0
    termination = "max_iterations"
    while n < max_iter:
        step, Z = r, W
        n += 1
        eta.append(step)
        if n % keep_every == 0:
            iterates.append(Z)
        if n >= 2:
            prev = eta[-2]
            if require_admissible and solver._grew(space, step, prev):
                termination = "monotonicity_violation"
                W = cf.product_T(op, Z)
                r = cf.d2(W, Z, space)
                break
            if prev > 0:
                ratios.append(step / prev)
        W = cf.product_T(op, Z)
        r = cf.d2(W, Z, space)
        if r == 0:
            termination = "converged"
            break
        if not r < math.inf:
            termination = "non_finite"
            break
        if r <= tol and step <= tol:
            qhat = max(ratios[-(solver.RATIO_WINDOW - 1):] + [r / step])
            if qhat < solver.RATIO_CAP and 2 * (r / (1 - qhat)) <= tol:
                termination = "converged"
                break
        if n > solver.STALL_WINDOW and float(eta[-1]) > tol:
            if float(eta[-1]) >= solver.STALL_FACTOR * float(eta[-1 - solver.STALL_WINDOW]):
                window = eta[-1 - solver.STALL_WINDOW:-1]
                grew = solver._grew(space, eta[-1], max(window))
                termination = "diverged" if grew else "stalled"
                break
    if n % keep_every != 0:
        iterates.append(Z)
    return solver.IterationTrace(iterates, eta, termination, r, n, keep_every, verdict)


def _outcome(run, *args):
    """Everything a run reports, in repr so that floats (NaN too) and
    Fractions compare exactly; an error compares by type and message."""
    try:
        tr = run(*args)
    except cf.CoupledFPError as exc:
        return type(exc).__name__, str(exc)
    return (tr.termination, tr.iterations, repr(tr.eta), repr(tr.residual),
            repr(tr.iterates), repr(tr.final), tr.kept_indices())


def _assert_matches_reference(op, start, tol, max_iter, require_admissible, keep):
    keep_every = max_iter if keep == "max_iter" else keep
    args = (op, start, tol, max_iter, require_admissible, keep_every)
    assert _outcome(cf.solve, *args) == _outcome(_reference_solve, *args)


_COEFFS = st.floats(0.0, 3.0)
_COORDS = st.floats(-8.0, 8.0)
_KEEP = st.sampled_from([1, 3, "max_iter"])


@given(a=_COEFFS, b=_COEFFS, c=st.floats(0.25, 4.0), x=_COORDS, y=_COORDS,
       tol=st.sampled_from([1e-10, 1e-4]), max_iter=st.integers(1, 120), keep=_KEEP,
       require_admissible=st.booleans(), boxed=st.booleans())
@settings(max_examples=300, deadline=None)
def test_solve_matches_reference_on_linear_maps(a, b, c, x, y, tol, max_iter, keep,
                                                require_admissible, boxed):
    op = cf.make_linear(a, b, c).operator
    if boxed:  # the same map on [-10, 10] through contains, so orbits can leave
        op = _boxed(op.apply)
    _assert_matches_reference(op, PairPoint(x, y), tol, max_iter, require_admissible, keep)


@given(name=st.sampled_from(FINITE_FIXTURES), data=st.data(), max_iter=st.integers(1, 60),
       keep=_KEEP, require_admissible=st.booleans())
@settings(max_examples=200, deadline=None)
def test_solve_matches_reference_on_finite_fixtures(name, data, max_iter, keep,
                                                    require_admissible):
    prob = cf.load_finite(fixture_path(name))
    elements = st.sampled_from(prob.space.finite.elements)
    start = PairPoint(data.draw(elements), data.draw(elements))
    _assert_matches_reference(prob.operator, start, 1e-10, max_iter, require_admissible, keep)


@given(a=_COEFFS, b=_COEFFS, c=st.floats(0.25, 4.0),
       starts=st.lists(st.tuples(_COORDS, _COORDS), min_size=1, max_size=4),
       max_iter=st.integers(1, 200))
@settings(max_examples=100, deadline=None)
def test_uniqueness_endpoints_match_unthinned_runs(a, b, c, starts, max_iter):
    op = cf.make_linear(a, b, c).operator
    starts = [PairPoint(x, y) for x, y in starts]
    report = cf.multi_start_uniqueness(op, starts, tol=1e-10, max_iter=max_iter,
                                       comparability_samples=1)
    runs = [cf.solve(op, Z0, tol=1e-10, max_iter=max_iter, require_admissible=False)
            for Z0 in starts]
    converged = [tr.final for tr in runs if tr.termination == "converged"]
    assert repr(report.endpoints) == repr(converged)
    assert report.failed == [(Z0, tr.termination) for Z0, tr in zip(starts, runs)
                             if tr.termination != "converged"]
