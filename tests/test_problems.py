import json
import random

import pytest

import coupledfp as cf
from coupledfp.cli import main
from coupledfp.kernels import _BASES, stream_seed
from coupledfp.spaces import PairPoint

from conftest import FINITE_FIXTURES, fixture_path


def test_flagship_operator_value(samet):
    assert samet.operator.apply(-3.0, 3.0) == -2.4
    assert samet.default_start == PairPoint(-3.0, 3.0)
    assert samet.expected_fixed_point == PairPoint(0.0, 0.0)


def test_linear_135_matches_flagship(samet):
    other = cf.builtin("linear(1,3,5)")
    rng = random.Random(3)
    for _ in range(300):
        x, y = rng.uniform(-10, 10), rng.uniform(-10, 10)
        assert other.operator.apply(x, y) == samet.operator.apply(x, y)


def test_linear_111_admits_no_banach_constant():
    prob = cf.builtin("linear(1,1,1)")
    # the bound constant would have to be (a+b)/c = 2
    for k in (0.5, 1.0 - 2.0 ** -20):
        rep = cf.check_banach_k(prob.operator, k, samples=2000, seed=0)
        assert rep.verdict == "fails"
    # the quadruple x=1, u=0, y=v=0 shows it directly: lhs 1 vs k/2
    f = prob.operator.apply
    assert abs(f(1.0, 0.0) - f(0.0, 0.0)) == 1.0


def test_builtin_unknown_lists_registry():
    with pytest.raises(cf.InputError) as exc:
        cf.builtin("mystery")
    msg = str(exc.value)
    assert "samet_example" in msg and "linear(a,b,c)" in msg and "finite_poset(path)" in msg


@pytest.mark.parametrize("name", ["linear(-1,2,3)", "linear(1,2,0)", "linear(1,2,-4)"])
def test_linear_rejects_bad_coefficients(name):
    with pytest.raises(cf.InputError):
        cf.builtin(name)


@pytest.mark.parametrize("name", ["linear(nan,1,4)", "linear(1,nan,4)", "linear(1,1,nan)"])
def test_linear_rejects_nan_coefficients(name):
    with pytest.raises(cf.InputError, match="requires"):
        cf.builtin(name)


@pytest.mark.parametrize("name", ["linear(inf,1,4)", "linear(1,inf,4)", "linear(inf,inf,4)"])
def test_linear_rejects_infinite_coefficients(name):
    # inf * 0 is NaN, so an infinite a or b makes no real-valued F at 0
    with pytest.raises(cf.InputError, match="requires finite a >= 0 and b >= 0"):
        cf.builtin(name)


def test_linear_name_parsing_with_floats():
    prob = cf.builtin("linear(0.5, 1.5, 4)")
    assert prob.operator.apply(2.0, 1.0) == (0.5 * 2.0 - 1.5 * 1.0) / 4.0
    assert prob.operator.vectorized
    assert prob.operator.lipschitz_data == (0.5 / 4, 1.5 / 4)


def test_expected_fixed_point_residual_zero():
    for name in ("samet_example", "linear(1,1,4)", "linear(2,1,8)"):
        prob = cf.builtin(name)
        assert cf.residual(prob.operator, prob.expected_fixed_point) == 0.0


def test_default_start_admissible_when_expected_declared():
    for name in ("samet_example", "linear(1,1,4)", "linear(1,1,1)", "linear(2,3,4)"):
        prob = cf.builtin(name)
        if prob.expected_fixed_point is not None:
            assert cf.check_start(prob.operator, prob.default_start).admissible


def test_sampler_deterministic(samet):
    a = samet.space.sampler(16, 42)
    b = samet.space.sampler(16, 42)
    assert a == b
    c = samet.space.sampler(16, 43)
    assert a != c


def test_sample_admissible_starts(samet):
    starts = cf.sample_admissible_starts(samet, 10, seed=9)
    assert len(starts) == 10
    for z in starts:
        assert cf.check_start(samet.operator, z).admissible
    assert starts == cf.sample_admissible_starts(samet, 10, seed=9)


def _starts_from_full_pool(problem, count, seed, max_draws):
    # one request for the whole stream of the starts' seed, then a scan of it
    starts_seed = stream_seed(seed, _BASES["starts"] << 56) & 0x7FFFFFFF
    pool = problem.space.sampler(2 * max_draws, starts_seed)
    found = []
    for t in range(len(pool) // 2):
        Z = PairPoint(pool[2 * t], pool[2 * t + 1])
        if cf.check_start(problem.operator, Z).admissible:
            found.append(Z)
            if len(found) == count:
                break
    return found


@pytest.mark.parametrize("name", ["samet_example", "linear(1,1,4)", "diamond5"])
@pytest.mark.parametrize("count,max_draws", [(10, 20_000), (40, 20_000), (10_000, 300)])
def test_admissible_starts_match_full_pool(name, count, max_draws):
    problem = (cf.load_finite(fixture_path("diamond5.json")) if name == "diamond5"
               else cf.builtin(name))
    for seed in (0, 9, 42):
        got = cf.sample_admissible_starts(problem, count, seed=seed, max_draws=max_draws)
        assert got == _starts_from_full_pool(problem, count, seed, max_draws)


@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_finite_fixtures_load(name):
    prob = cf.load_finite(fixture_path(name))
    assert prob.space.exact
    assert prob.space.member(prob.default_start.first)
    if prob.expected_fixed_point is not None:
        assert cf.residual(prob.operator, prob.expected_fixed_point) == 0


def test_finite_poset_builtin_form():
    prob = cf.builtin(f"finite_poset({fixture_path('chain3_monotone.json')})")
    assert prob.space.finite is not None
    assert len(prob.space.finite.elements) == 3


def test_resolve_problem_accepts_json_path():
    prob = cf.resolve_problem(fixture_path("one.json"))
    tr = cf.solve(prob.operator, prob.default_start, tol=1e-10)
    assert tr.iterations == 0 and tr.residual == 0


def test_fraction_distances_accepted(tmp_path):
    doc = {
        "schema_version": 1,
        "elements": ["a", "b"],
        "distance": [[0, "1/3"], ["1/3", 0]],
        "leq": [[1, 1], [0, 1]],
        "F": [[0, 0], [0, 0]],
    }
    p = tmp_path / "frac.json"
    p.write_text(json.dumps(doc))
    prob = cf.load_finite(str(p))
    from fractions import Fraction

    assert prob.space.distance("a", "b") == Fraction(1, 3)


def _write(tmp_path, doc):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    return str(p)


BASE_DOC = {
    "schema_version": 1,
    "elements": ["a", "b"],
    "distance": [[0, 1], [1, 0]],
    "leq": [[1, 1], [0, 1]],
    "F": [[0, 0], [0, 0]],
}


def test_load_finite_missing_schema_version(tmp_path):
    doc = dict(BASE_DOC)
    del doc["schema_version"]
    with pytest.raises(cf.SchemaError) as exc:
        cf.load_finite(_write(tmp_path, doc))
    assert "schema_version" in str(exc.value)


def test_load_finite_wrong_schema_version(tmp_path):
    doc = dict(BASE_DOC, schema_version=99)
    with pytest.raises(cf.SchemaError):
        cf.load_finite(_write(tmp_path, doc))


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_load_finite_schema_version_must_be_the_integer_one(tmp_path, version):
    # JSON true and 1.0 compare equal to 1 in Python, but name no schema version
    doc = dict(BASE_DOC, schema_version=version)
    with pytest.raises(cf.SchemaError, match="unsupported schema_version"):
        cf.load_finite(_write(tmp_path, doc))


def test_load_finite_non_square_distance(tmp_path):
    doc = dict(BASE_DOC, distance=[[0, 1]])
    with pytest.raises(cf.SchemaError) as exc:
        cf.load_finite(_write(tmp_path, doc))
    assert "distance" in str(exc.value)


def test_load_finite_bad_leq_entry(tmp_path):
    doc = dict(BASE_DOC, leq=[[1, 2], [0, 1]])
    with pytest.raises(cf.SchemaError) as exc:
        cf.load_finite(_write(tmp_path, doc))
    assert "leq[0][1]" in str(exc.value)


def test_load_finite_f_out_of_range(tmp_path):
    doc = dict(BASE_DOC, F=[[0, 5], [0, 0]])
    with pytest.raises(cf.SchemaError) as exc:
        cf.load_finite(_write(tmp_path, doc))
    assert "F[0][1]" in str(exc.value)


def test_load_finite_negative_distance(tmp_path):
    doc = dict(BASE_DOC, distance=[[0, "-1/2"], ["-1/2", 0]])
    with pytest.raises(cf.SchemaError) as exc:
        cf.load_finite(_write(tmp_path, doc))
    assert "nonnegative" in str(exc.value)


@pytest.mark.parametrize("distance, location, value", [
    ([[0, "-1/2"], ["-1/2", 0]], "distance[0][1]", "-1/2"),
    ([[0, -0.5], [-0.5, 0]], "distance[0][1]", "-1/2"),
    ([[0, 1, "1/2"], [1, 0, 2], ["1/2", "-1/3", -2]], "distance[2][1]", "-1/3"),
    ([[0, 1.5, 2], [1.5, 0, 1], [2, 1, -0.25]], "distance[2][2]", "-1/4"),
])
def test_load_finite_negative_distance_names_first_entry(tmp_path, distance, location,
                                                         value):
    # the first negative entry in row-major order, behind any valid rows
    n = len(distance)
    doc = dict(BASE_DOC, elements=list("abc"[:n]), distance=distance,
               leq=[[int(i == j) for j in range(n)] for i in range(n)],
               F=[[0] * n for _ in range(n)])
    path = _write(tmp_path, doc)
    with pytest.raises(cf.SchemaError) as exc:
        cf.load_finite(path)
    assert str(exc.value) == f"{path}: {location}: must be nonnegative, got {value}"


def test_load_finite_negative_zero_distance_is_zero(tmp_path):
    doc = dict(BASE_DOC, distance=[[-0.0, 1], [1, 0]])
    assert cf.load_finite(_write(tmp_path, doc)).space.finite.dist[0][0] == 0


def test_load_finite_garbled_fraction(tmp_path):
    doc = dict(BASE_DOC, distance=[[0, "x/y"], [1, 0]])
    with pytest.raises(cf.SchemaError):
        cf.load_finite(_write(tmp_path, doc))


def test_load_finite_missing_file():
    with pytest.raises(cf.InputError):
        cf.load_finite("/nonexistent/path.json")


def test_load_finite_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(cf.SchemaError):
        cf.load_finite(str(p))


def test_load_finite_bad_start_pair(tmp_path):
    doc = dict(BASE_DOC, start=[0, 9])
    with pytest.raises(cf.SchemaError) as exc:
        cf.load_finite(_write(tmp_path, doc))
    assert "start" in str(exc.value)


@pytest.mark.parametrize("start", [PairPoint("zz", "a"), PairPoint("bot", "zz"),
                                   PairPoint(["bot"], "bot")], ids=["first", "second", "unhashable"])
def test_non_member_start_on_a_loaded_finite_problem(start):
    # each entry point that applies the tabulated F to the start names the
    # element that is not in the space
    op = cf.load_finite(fixture_path("diamond5.json")).operator
    calls = [lambda: cf.solve(op, start), lambda: cf.check_start(op, start),
             lambda: cf.residual(op, start), lambda: cf.multi_start_uniqueness(op, [start]),
             lambda: cf.check_diagonal(op, start)]
    for call in calls:
        with pytest.raises(cf.DomainMismatchError, match="is not in"):
            call()


@pytest.mark.parametrize("field, value, location", [
    ("leq", [[True, 1], [0, 1]], "leq[0][0]"),
    ("start", [True, False], "start"),
    ("expected", [0, True], "expected"),
])
def test_load_finite_rejects_json_booleans(tmp_path, capsys, field, value, location):
    # true/false are not the integers 1/0 of the schema, as in F
    path = _write(tmp_path, dict(BASE_DOC, **{field: value}))
    with pytest.raises(cf.SchemaError) as exc:
        cf.load_finite(path)
    assert location in str(exc.value)
    assert main(["solve", "--problem", path]) == 2
    assert location in capsys.readouterr().err
