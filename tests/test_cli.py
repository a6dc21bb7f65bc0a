import contextlib
import copy
import dataclasses
import csv
import errno
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coupledfp as cf
from coupledfp import cli
from coupledfp.cli import main
from coupledfp.reports import overwrite

from conftest import DATA, fixture_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_writes_csv_and_json(tmp_path, capsys):
    base = str(tmp_path / "run")
    code, out, err = run_cli(
        capsys, "solve", "--problem", "samet_example", "--tol", "1e-10",
        "--output", base,
    )
    assert code == 0
    payload = json.loads((tmp_path / "run.json").read_text())
    trace = payload["trace"]
    assert trace["termination"] == "converged"
    assert trace["iterations"] <= 120
    assert abs(trace["final"][0]) <= 1e-10
    with open(tmp_path / "run.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "x_n", "y_n", "eta_n"]
    assert len(rows) - 1 == len(trace["kept_iterates"])
    for row, (n, (x, y)) in zip(rows[1:], trace["kept_iterates"]):
        assert int(row[0]) == n
        assert float(row[1]) == x
        assert float(row[2]) == y
        if n > 0:
            assert float(row[3]) == trace["eta"][n - 1]


def test_solve_stdout_when_no_output(capsys):
    code, out, err = run_cli(capsys, "solve", "--problem", "samet_example")
    assert code == 0
    payload = json.loads(out)
    assert payload["trace"]["termination"] == "converged"


def test_verify_flagship_verdicts(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--problem", "samet_example", "--samples", "2000",
    )
    assert code == 0
    payload = json.loads(out)
    by_id = {r["condition_id"]: r for r in payload["reports"]}
    assert set(by_id) == {"mixed_monotone", "banach_k", "samet_mk",
                          "symmetric_mk", "strict_contraction"}
    assert by_id["mixed_monotone"]["verdict"] == "holds_on_samples"
    assert by_id["banach_k"]["verdict"] == "fails"
    assert by_id["banach_k"]["params"]["k_source"] == "probe just below 1"
    assert by_id["samet_mk"]["verdict"] == "fails"
    w = by_id["samet_mk"]["witness"]
    assert w["x"] == w["u"]
    assert by_id["symmetric_mk"]["verdict"] == "holds_on_samples"
    assert by_id["strict_contraction"]["verdict"] == "holds_on_samples"


def test_verify_contractive_linear_banach_holds(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--problem", "linear(1,1,4)", "--samples", "1500",
    )
    assert code == 0
    payload = json.loads(out)
    by_id = {r["condition_id"]: r for r in payload["reports"]}
    assert by_id["banach_k"]["params"]["k"] == 0.5
    assert by_id["banach_k"]["verdict"] == "holds_on_samples"
    assert by_id["samet_mk"]["verdict"] == "holds_on_samples"
    assert by_id["symmetric_mk"]["verdict"] == "holds_on_samples"


def test_verify_finite_problem_runs_exhaustively(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--problem", fixture_path("diamond5.json"),
        "--eps-grid", "0.5,1",
    )
    assert code == 0
    payload = json.loads(out)
    by_id = {r["condition_id"]: r for r in payload["reports"]}
    assert by_id["strict_contraction"]["verdict"] == "fails"
    assert by_id["strict_contraction"]["method"] == "exhaustive"


def test_verify_deterministic_bytes(capsys):
    args = ("verify", "--problem", "samet_example", "--seed", "7",
            "--samples", "1500")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_main_builds_the_parser_once(capsys):
    # one process, two jobs with different subcommands: the second reuses the
    # first job's parser and prints what a fresh process prints
    cli._build_parser.cache_clear()
    jobs = [("uniqueness", "--problem", fixture_path("diamond5.json"), "--seed", "0"),
            ("solve", "--problem", "samet_example", "--seed", "7")]
    results = [run_cli(capsys, *argv) for argv in jobs]
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    for argv, (code, out, _) in zip(jobs, results):
        fresh = subprocess.run([sys.executable, "-m", "coupledfp.cli", *argv],
                               capture_output=True, text=True)
        assert (code, out) == (fresh.returncode, fresh.stdout)
        assert code == 0 and out


def test_unknown_problem_exits_two(capsys):
    code, out, err = run_cli(capsys, "solve", "--problem", "unknown")
    assert code == 2
    assert "samet_example" in err and "linear(a,b,c)" in err


def test_nan_linear_coefficient_exits_two(capsys):
    code, out, err = run_cli(capsys, "verify", "--problem", "linear(nan,1,4)")
    assert code == 2
    assert out == "" and "a >= 0 and b >= 0" in err


@pytest.mark.parametrize("problem", ["linear(inf,1,4)", "linear(1,inf,4)"])
def test_infinite_linear_coefficient_exits_two(capsys, problem):
    # an infinite a or b made four "fails" verdicts on NaN witnesses
    code, out, err = run_cli(capsys, "verify", "--problem", problem)
    assert code == 2
    assert out == "" and "finite a >= 0 and b >= 0" in err


def test_bad_tol_exits_two(capsys):
    code, out, err = run_cli(capsys, "solve", "--problem", "samet_example",
                             "--tol", "0")
    assert code == 2


def test_bad_eps_grid_exits_two(capsys):
    code, out, err = run_cli(capsys, "verify", "--problem", "samet_example",
                             "--eps-grid", "1,-2")
    assert code == 2


@pytest.mark.parametrize("command,problem,grid", [
    ("verify", fixture_path("diamond5.json"), "1,inf"),
    ("delta-curve", fixture_path("diamond5.json"), "1,inf"),
    ("delta-curve", "samet_example", "inf"),
    ("verify", "samet_example", "nan"),
], ids=["verify-diamond5", "curve-diamond5", "curve-samet", "verify-nan"])
def test_non_finite_eps_grid_exits_two(capsys, command, problem, grid):
    code, out, err = run_cli(capsys, command, "--problem", problem, "--eps-grid", grid)
    assert code == 2
    assert out == "" and "finite" in err


def test_delta_curve_csv(tmp_path, capsys):
    base = str(tmp_path / "curve")
    code, out, err = run_cli(
        capsys, "delta-curve", "--problem", "samet_example",
        "--eps-grid", "1", "--samples", "800", "--format", "csv",
        "--output", base,
    )
    assert code == 0
    payload = json.loads((tmp_path / "curve.json").read_text())
    assert len(payload["curve"]) == 1
    eps, dmax = payload["curve"][0]
    assert eps == 1.0
    assert 0.25 <= dmax <= 0.26
    with open(tmp_path / "curve.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["eps", "delta_max"]
    assert float(rows[1][0]) == eps
    assert float(rows[1][1]) == dmax


@pytest.mark.parametrize("problem", ["samet_example", fixture_path("diamond5.json")])
def test_delta_curve_with_an_overflowing_cap(capsys, problem):
    # DELTA_CAP_FACTOR * 1e308 is inf: without a violation both lanes give an
    # unbounded entry, written as jsonable writes every infinity
    code, out, err = run_cli(capsys, "delta-curve", "--problem", problem, "--eps-grid", "1e308",
                             "--samples", "200")
    assert code == 0, err
    assert '"curve": [\n    [\n      1e+308,\n      "inf"\n    ]' in out
    assert json.loads(out)["curve"] == [[1e308, "inf"]]


def _no_constants(name):
    raise ValueError(f"{name} is not standard JSON")


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "samet_example", "--tol", "inf"],
    ["delta-curve", "--problem", "samet_example", "--eps-grid", "1e308", "--samples", "200"],
    ["delta-curve", "--problem", fixture_path("diamond5.json"), "--eps-grid", "1e308"],
], ids=["solve_tol_inf", "curve_overflowing_cap", "finite_curve_overflowing_cap"])
def test_cli_artifacts_are_standard_json(argv, tmp_path, capsys):
    # RFC 8259 has no Infinity or NaN: an infinite config value or curve entry
    # is the string "inf", as in every report
    code, _, err = run_cli(capsys, *argv, "--output", str(tmp_path / "run"))
    assert code == 0, err
    payload = json.loads((tmp_path / "run.json").read_text(), parse_constant=_no_constants)
    if argv[0] == "solve":
        assert payload["config"]["tol"] == "inf"
    else:
        assert payload["curve"] == [[1e308, "inf"]]


def test_uniqueness_command(capsys):
    code, out, err = run_cli(
        capsys, "uniqueness", "--problem", "samet_example", "--samples", "500",
    )
    assert code == 0
    payload = json.loads(out)
    rep = payload["uniqueness"]
    assert rep["max_pairwise_d2"] <= 2e-10
    assert rep["comparability_rate"] == 1.0
    assert len(rep["endpoints"]) >= 10
    assert all(g <= 2e-10 for g in rep["diagonal_gaps"])


def test_uniqueness_probe_reads_samples(capsys, monkeypatch):
    # the comparability probe draws the --samples that config echoes
    probe, calls = cli.uniq.probe_comparability, []
    monkeypatch.setattr(cli.uniq, "probe_comparability",
                        lambda space, samples, *args: calls.append(samples) or probe(
                            space, samples, *args))
    for samples in ("3", "500"):
        code, out, _ = run_cli(capsys, "uniqueness", "--problem", "samet_example",
                               "--samples", samples, "--max-iter", "50")
        assert code == 0 and json.loads(out)["config"]["samples"] == int(samples)
    assert calls == [3, 500]


def _increasing_on_floats_only(x, y):
    # decreasing in x on arrays, so the arrays find a witness the floats pass
    import numpy as np

    return -x if isinstance(x, np.ndarray) else x


def test_verify_exits_two_on_a_broken_vectorized_declaration(capsys, monkeypatch):
    problem = cf.builtin("samet_example")
    op = dataclasses.replace(problem.operator, apply=_increasing_on_floats_only)
    monkeypatch.setattr(cli, "resolve_problem",
                        lambda name: dataclasses.replace(problem, operator=op))
    code, out, err = run_cli(capsys, "verify", "--problem", "samet_example", "--samples", "500")
    assert (code, out) == (2, "")
    assert err.startswith("error: the mixed_monotone witness") and "vectorized=True" in err


def test_audit_space_command(capsys):
    code, out, err = run_cli(
        capsys, "audit-space", "--problem", "samet_example", "--samples", "200",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["audit"]["passed"] is True


def test_audit_space_finite(capsys):
    code, out, err = run_cli(
        capsys, "audit-space", "--problem", fixture_path("chain3_monotone.json"),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["audit"]["exhaustive"] is True
    assert payload["audit"]["passed"] is True


# audit-space output on tests/data/triangle_break4.json, run from tests/data;
# recorded before finite audits read the space's matrices instead of its
# distance and leq callables, and pinned byte for byte
TRIANGLE_BREAK4_AUDIT = """\
{
  "audit": {
    "axioms": [
      {
        "checks": 4,
        "counterexample": null,
        "name": "metric_identity",
        "passed": true
      },
      {
        "checks": 4,
        "counterexample": null,
        "name": "order_reflexive",
        "passed": true
      },
      {
        "checks": 6,
        "counterexample": null,
        "name": "metric_nonnegative",
        "passed": true
      },
      {
        "checks": 6,
        "counterexample": null,
        "name": "metric_symmetry",
        "passed": true
      },
      {
        "checks": 6,
        "counterexample": null,
        "name": "order_antisymmetric",
        "passed": true
      },
      {
        "checks": 64,
        "counterexample": {
          "d_xy": "1/2",
          "d_xz": "2",
          "d_yz": "3/4",
          "x": "a",
          "y": "b",
          "z": "c"
        },
        "name": "metric_triangle",
        "passed": false
      },
      {
        "checks": 64,
        "counterexample": {
          "x": "a",
          "y": "b",
          "z": "c"
        },
        "name": "order_transitive",
        "passed": false
      }
    ],
    "exhaustive": true,
    "passed": false,
    "space": "triangle break: d(a,c) = 2 > d(a,b) + d(b,c); a <= b <= c but not a <= c"
  },
  "config": {
    "command": "audit-space",
    "eps_grid": [
      0.1,
      1.0,
      10.0
    ],
    "format": "json",
    "max_iter": 10000,
    "problem": "triangle_break4.json",
    "samples": 10000,
    "seed": 42,
    "tol": 1e-10
  },
  "schema_version": 1
}
"""


def test_audit_space_broken_finite_golden(capsys, monkeypatch):
    monkeypatch.chdir(DATA)
    code, out, err = run_cli(capsys, "audit-space", "--problem", "triangle_break4.json")
    assert code == 0
    assert out == TRIANGLE_BREAK4_AUDIT


# Expected artifacts of every subcommand, byte for byte. Each file is what
#   coupled-fp COMMAND --problem PROBLEM --samples 400 --format csv \
#       --output tests/data/golden/COMMAND.LABEL
# wrote when run from the repository root; a change that moves an output on
# purpose rewrites the files that way and lists what moved.
GOLDEN = DATA / "golden"
GOLDEN_PROBLEMS = {"samet_example": "samet_example",
                   **{name: f"tests/data/{name}.json" for name in
                      ("antichain3", "chain3_monotone", "diamond5", "triangle_break4", "twocomp4")}}


@pytest.mark.parametrize("label", sorted(GOLDEN_PROBLEMS))
@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_cli_artifacts_match_golden_files(command, label, tmp_path, monkeypatch, capsys):
    # relative to the root, the problem path reads the same in config.problem
    # and in the finite space's description wherever the tests run
    monkeypatch.chdir(DATA.parent.parent)
    base = tmp_path / "out"
    code, out, err = run_cli(capsys, command, "--problem", GOLDEN_PROBLEMS[label],
                             "--samples", "400", "--format", "csv", "--output", str(base))
    assert (code, out, err) == (0, "", "")
    for ext in (".json", ".csv"):
        expected = GOLDEN / f"{command}.{label}{ext}"
        got = base.with_suffix(ext)
        assert got.exists() == expected.exists(), ext
        if expected.exists():
            assert got.read_bytes() == expected.read_bytes(), ext


@pytest.mark.parametrize("label", sorted(GOLDEN_PROBLEMS))
@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_cli_artifacts_overwrite_longer_files_with_the_golden_bytes(command, label, tmp_path,
                                                                    monkeypatch, capsys):
    # a rerun at the same base writes over longer stale artifacts and leaves
    # exactly the golden bytes, no tail of the old files
    for ext in (".json", ".csv"):
        expected = GOLDEN / f"{command}.{label}{ext}"
        if expected.exists():
            (tmp_path / f"out{ext}").write_bytes(expected.read_bytes() * 2 + b"stale tail")
    test_cli_artifacts_match_golden_files(command, label, tmp_path, monkeypatch, capsys)


def test_symlinked_output_writes_through_the_links(tmp_path, capsys):
    # a symlinked --output is followed: the targets get the bytes of a plain
    # run and the links stay links
    argv = ["solve", "--problem", "samet_example", "--output"]
    assert run_cli(capsys, *argv, str(tmp_path / "plain"))[0] == 0
    (tmp_path / "targets").mkdir()
    for ext in (".json", ".csv"):
        target = tmp_path / "targets" / f"real{ext}"
        target.write_bytes(b"x" * 50000)
        (tmp_path / f"link{ext}").symlink_to(target)
    assert run_cli(capsys, *argv, str(tmp_path / "link"))[0] == 0
    for ext in (".json", ".csv"):
        assert (tmp_path / f"link{ext}").is_symlink()
        assert ((tmp_path / "targets" / f"real{ext}").read_bytes()
                == (tmp_path / f"plain{ext}").read_bytes())


def test_overwrite_keeps_the_file_and_cuts_it_at_what_was_written(tmp_path):
    # in place: the inode stays, a shorter text leaves no tail, also when the
    # writer raises; a new file gets the mode open() would give it
    path = tmp_path / "artifact.txt"
    path.write_text("old text " * 1000)
    inode = path.stat().st_ino
    with pytest.raises(RuntimeError):
        with overwrite(path) as fh:
            fh.write("new\n")
            raise RuntimeError
    assert path.read_text() == "new\n" and path.stat().st_ino == inode
    with overwrite(tmp_path / "fresh.txt") as fh:
        fh.write("a\nb\n")
    with open(tmp_path / "plain.txt", "w") as fh:
        fh.write("a\nb\n")
    assert (tmp_path / "fresh.txt").read_bytes() == (tmp_path / "plain.txt").read_bytes()
    assert (tmp_path / "fresh.txt").stat().st_mode == (tmp_path / "plain.txt").stat().st_mode


def _fake_eacces(monkeypatch, path):
    real_open = os.open

    def os_open(name, *args, **kwargs):
        if os.fspath(name) == path:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), name)
        return real_open(name, *args, **kwargs)

    monkeypatch.setattr(os, "open", os_open)


UNWRITABLE = [("audit-space", ".json", fault) for fault in ("missing", "directory", "permission")]
UNWRITABLE += [(command, ".csv", fault) for command in ("solve", "delta-curve")
               for fault in ("directory", "permission")]


@pytest.mark.parametrize("command, ext, fault", UNWRITABLE)
def test_unwritable_output_exits_two(command, ext, fault, tmp_path, capsys, monkeypatch):
    # a JSON or CSV artifact that cannot be written is an error naming the
    # file and the reason, not a traceback
    base = str(tmp_path / ("no/such/dir/out" if fault == "missing" else "out"))
    reason = {"missing": errno.ENOENT, "directory": errno.EISDIR, "permission": errno.EACCES}
    if fault == "directory":
        os.mkdir(base + ext)
    elif fault == "permission":
        _fake_eacces(monkeypatch, base + ext)
    code, out, err = run_cli(capsys, command, "--problem", "samet_example", "--samples", "50",
                             "--format", "csv", "--output", base)
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {base}{ext}: {os.strerror(reason[fault])}\n"


def test_solve_finite_problem_serializes_exact_values(tmp_path, capsys):
    base = str(tmp_path / "fin")
    code, out, err = run_cli(
        capsys, "solve", "--problem", fixture_path("twocomp4.json"),
        "--output", base,
    )
    assert code == 0
    payload = json.loads((tmp_path / "fin.json").read_text())
    trace = payload["trace"]
    assert trace["termination"] == "converged"
    assert trace["final"] == ["a0", "a0"]
    assert trace["residual"] == "0"  # exact rational, serialized as a string
    with open(tmp_path / "fin.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][1] == "a1" and rows[1][2] == "a0"


def test_inadmissible_default_start_exits_two(tmp_path, capsys):
    # an expanding map whose tabulated start moves the wrong way
    doc = {
        "schema_version": 1,
        "elements": ["a", "b", "c"],
        "distance": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
        "leq": [[1, 1, 1], [0, 1, 1], [0, 0, 1]],
        "F": [[1, 1, 1], [2, 2, 2], [2, 2, 2]],
        "start": [1, 0],
    }
    p = tmp_path / "inadmissible.json"
    p.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "solve", "--problem", str(p))
    assert code == 2
    assert "admissible" in err


# --- the CLI contract, property-tested ---------------------------------------

coefficient = st.one_of(
    st.sampled_from(["0", "1", "3", "5", "1e308", "5e-324", "-1", "nan", "inf", "-inf"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr))
cli_problem = st.one_of(
    st.just("samet_example"),
    st.tuples(coefficient, coefficient, coefficient).map(lambda abc: f"linear({','.join(abc)})"),
    st.sampled_from(sorted(DATA.glob("*.json"))).map(str))
cli_flags = st.lists(st.sampled_from([
    ("--samples", "1"), ("--samples", "7"), ("--samples", "40"), ("--samples", "0"),
    ("--max-iter", "1"), ("--max-iter", "30"), ("--seed", "0"), ("--seed", "-5"),
    ("--tol", "0.5"), ("--tol", "1e308"), ("--tol", "5e-324"), ("--tol", "nan"),
    ("--eps-grid", "1e308"), ("--eps-grid", "5e-324"), ("--eps-grid", "0.1,1e308"),
    ("--eps-grid", "inf"), ("--eps-grid", "nan,1"),
]), max_size=4)


@given(command=st.sampled_from(sorted(cli._COMMANDS)), problem=cli_problem, flags=cli_flags)
@settings(max_examples=60, deadline=None)
def test_cli_exits_zero_with_json_or_two(command, problem, flags):
    # a run completes with its JSON (exit 0) or reports an input error (exit
    # 2); no input escapes as another exit status or a traceback. The budget
    # stays small: --samples and --max-iter are set low unless drawn
    argv = [command, "--problem", problem, "--samples", "20", "--max-iter", "50"]
    argv += [part for flag in flags for part in flag]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert code == 2 and err.getvalue().startswith("error: "), err.getvalue()


# mutated finite documents: each fixture with one to three structural faults
FIXTURE_DOCS = {p.name: json.loads(p.read_text()) for p in sorted(DATA.glob("*.json"))}
DOC_LISTS = ("elements", "distance", "leq", "F", "start", "expected")
# copied, so that a later fault cannot change the strategy's own lists
odd_value = st.sampled_from([None, True, False, -1, 0, 1, 2, 7, 1.5, -0.5, 1e308, 2**70,
                             math.nan, math.inf, "0", "a", [], [0], [[0]], {}]).map(copy.deepcopy)


def _mutate(doc, data):
    """Apply one drawn fault to doc in place: a dropped key, an entry of the
    wrong type, a list of the wrong size, an F entry that is no element index
    or a wrong schema_version."""
    fault = data.draw(st.sampled_from(["drop_key", "bad_entry", "wrong_size", "bad_f_index",
                                       "schema_version"]))
    if fault == "schema_version":
        versions = [0, 2, -1, True, 1.0, "1", None, 1.5, [1]]
        doc["schema_version"] = data.draw(st.sampled_from(versions))
        return
    if fault == "drop_key":
        if doc:
            del doc[data.draw(st.sampled_from(sorted(doc)))]
        return
    key = "F" if fault == "bad_f_index" else data.draw(st.sampled_from(DOC_LISTS))
    target = doc.get(key)
    if not isinstance(target, list) or not target:
        doc[key] = data.draw(odd_value)
        return
    # a row of a matrix, or the list itself
    i = data.draw(st.integers(0, len(target) - 1))
    if isinstance(target[i], list) and target[i] and data.draw(st.booleans()):
        target = target[i]
        i = data.draw(st.integers(0, len(target) - 1))
    if fault == "wrong_size":
        if data.draw(st.booleans()):
            del target[i]
        else:
            target.append(copy.deepcopy(target[i]))
    elif fault == "bad_f_index":
        n = len(doc["elements"]) if isinstance(doc.get("elements"), list) else 1
        target[i] = data.draw(st.sampled_from([n, n + 1, -1, -n, 2**63, 1.0, True]))
    else:
        target[i] = data.draw(odd_value)


@given(command=st.sampled_from(sorted(cli._COMMANDS)), name=st.sampled_from(sorted(FIXTURE_DOCS)),
       faults=st.integers(1, 3), data=st.data())
@settings(max_examples=80, deadline=None)
def test_cli_exits_zero_with_json_or_two_on_mutated_documents(command, name, faults, data):
    # the same contract as above, for finite problem files with faults
    doc = copy.deepcopy(FIXTURE_DOCS[name])
    for _ in range(faults):
        _mutate(doc, data)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        argv = [command, "--problem", path, "--samples", "20", "--max-iter", "50"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert code == 2 and err.getvalue().startswith("error: "), err.getvalue()
