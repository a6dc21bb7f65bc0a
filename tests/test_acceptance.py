"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion states its tolerance inline.
"""

import json
import time
from fractions import Fraction

import coupledfp as cf
from coupledfp.cli import main
from coupledfp.spaces import PairPoint

import finite_oracle as oracle
from conftest import FINITE_FIXTURES, fixture_path, load_doc

TOL = 1e-10
EPS_GRID = (0.1, 1.0, 10.0)


def _report(num, desc, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {desc}")
    assert not problems, f"criterion {num}: {problems}"


def test_criterion_1_flagship_reproduction(samet):
    problems = []
    t0 = time.perf_counter()
    tr = cf.solve(samet.operator, PairPoint(-3.0, 3.0), tol=TOL)
    elapsed = time.perf_counter() - t0
    if tr.termination != "converged":
        problems.append(f"termination {tr.termination}")
    if tr.residual > TOL:
        problems.append(f"residual {tr.residual}")
    if tr.iterations > 120:
        problems.append(f"{tr.iterations} iterations")
    if abs(tr.final.first) > TOL or abs(tr.final.second) > TOL:
        problems.append(f"endpoint {tr.final} not within tol of (0, 0)")
    for n in range(51):
        expect = 3.0 * 0.8 ** n
        if abs(tr.iterates[n].first + expect) > 1e-12 * expect:
            problems.append(f"iterate {n} off closed form")
            break
        if abs(tr.iterates[n].second - expect) > 1e-12 * expect:
            problems.append(f"iterate {n} off closed form")
            break
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.3f}s")
    _report(1, "flagship solve: (0,0) within 1e-10, <=120 iterations, "
               "closed-form iterates to 1e-12, under 1s", problems)


def test_criterion_2_condition_separation(samet):
    problems = []
    op = samet.operator
    delta_candidates = (lambda e: e / 8, lambda e: e / 4, lambda e: e,
                        lambda e: 10 * e)
    for eps in EPS_GRID:
        for rule in delta_candidates:
            rep = cf.check_samet(op, [eps], rule, samples=2000, seed=11)
            if rep.verdict != "fails":
                problems.append(f"samet did not fail at eps={eps}")
                continue
            w = rep.witness
            if w.x != w.u:
                problems.append(f"witness at eps={eps} not on the x == u slice")
            if not cf.reverify_witness(op, rep)["violated"]:
                problems.append(f"witness at eps={eps} not reproducible")
    rep = cf.check_symmetric_mk(op, list(EPS_GRID), lambda e: e / 8,
                                samples=10_500, seed=11)
    if rep.verdict != "holds_on_samples":
        problems.append(f"symmetric verdict {rep.verdict}")
    for eps, hits in rep.band_hits:
        if hits < 10_000:
            problems.append(f"only {hits} band samples at eps={eps}")
    _report(2, "samet fails with reproducible x==u witness for every "
               "(eps, delta); symmetric holds with delta=eps/8 and >=1e4 "
               "band samples per eps", problems)


# problem name -> (a, b, c) of its map F(x, y) = (a*x - b*y)/c
ETA_INSTANCES = {"samet_example": (1, 3, 5), "linear(1,1,4)": (1, 1, 4),
                 "linear(2,1,4)": (2, 1, 4), "linear(0.5,1,2)": (0.5, 1, 2),
                 "linear(0,1,2)": (0, 1, 2), "linear(2,2,5)": (2, 2, 5)}


def test_criterion_3_eta_monotonicity():
    problems = []
    for name, (a, b, c) in ETA_INSTANCES.items():
        prob = cf.builtin(name)
        op = prob.operator
        k_sym = (a + b) / c
        gate = cf.check_symmetric_mk(op, list(EPS_GRID),
                                     lambda e: cf.delta_from_k(k_sym, e),
                                     samples=2000, seed=23)
        if gate.verdict != "holds_on_samples":
            problems.append(f"{name}: symmetric gate {gate.verdict}")
            continue
        starts = cf.sample_admissible_starts(prob, 20, seed=23)
        if len(starts) < 20:
            problems.append(f"{name}: only {len(starts)} admissible starts found")
            continue
        for z0 in starts:
            tr = cf.solve(op, z0, tol=TOL)
            if tr.termination != "converged" or tr.eta[-1] > TOL:
                problems.append(f"{name}: start {z0} ended {tr.termination}")
                break
            for i in range(len(tr.eta) - 1):
                if tr.eta[i + 1] > tr.eta[i] + 1e-12 * max(1.0, tr.eta[i]):
                    problems.append(f"{name}: eta increased at step {i + 1}")
                    break
    _report(3, "eta non-increasing and terminal <= tol across >=20 seeded "
               "admissible starts on every instance passing the symmetric "
               "check", problems)


def test_criterion_4_implication_chain():
    problems = []
    grid = [(a, a, 2 * a * m)
            for a in (0.5, 1.0, 1.5, 2.0, 2.5)
            for m in (1.25, 1.5, 2.0, 3.0, 5.0)]
    assert len(grid) >= 25
    for a, b, c in grid:
        k = (a + b) / c
        op = cf.make_linear(a, b, c).operator
        delta = lambda e: cf.delta_from_k(k, e)
        if cf.check_banach_k(op, k, samples=1500, seed=31).verdict != "holds_on_samples":
            problems.append(f"banach fails on ({a},{b},{c})")
        if cf.check_samet(op, list(EPS_GRID), delta, samples=1500,
                          seed=31).verdict != "holds_on_samples":
            problems.append(f"samet fails on ({a},{b},{c})")
        if cf.check_symmetric_mk(op, list(EPS_GRID), delta, samples=1500,
                                 seed=31).verdict != "holds_on_samples":
            problems.append(f"symmetric fails on ({a},{b},{c})")
    for a, b, c in ((1.0, 1.0, 1.0), (1.0, 1.0, 2.0), (2.0, 3.0, 4.0),
                    (3.0, 0.0, 2.0), (0.5, 0.5, 1.0)):
        op = cf.make_linear(a, b, c).operator
        for k in (0.25, 0.9, 1.0 - 2.0 ** -20):
            rep = cf.check_banach_k(op, k, samples=1500, seed=31)
            if rep.verdict != "fails" or rep.witness is None:
                problems.append(f"banach did not fail on ({a},{b},{c}) at k={k}")
    _report(4, "banach(k=(a+b)/c) and the banded checks with delta from k "
               "hold on 25 contractive triples; no k < 1 works once "
               "a + b >= c", problems)


def test_criterion_5_finite_oracle_equivalence():
    problems = []
    eps_grid = [Fraction(1, 2), Fraction(1), Fraction(2)]
    delta_rules = [lambda e: e / 8, lambda e: e / 2, lambda e: e]
    ks = [Fraction(1, 2), Fraction(4, 5)]
    for name in FINITE_FIXTURES:
        doc = load_doc(name)
        prob = cf.load_finite(fixture_path(name))
        op = prob.operator

        def expect(label, got, want):
            if got != want:
                problems.append(f"{name} {label}: checker {got} vs oracle {want}")

        rep = cf.check_mixed_monotone(op)
        expect("mixed_monotone", rep.verdict, oracle.oracle_mixed_monotone(doc))
        rep = cf.check_strict_contraction(op)
        expect("strict", rep.verdict, oracle.oracle_strict(doc))
        if rep.verdict == "fails" and not cf.reverify_witness(op, rep)["violated"]:
            problems.append(f"{name}: strict witness not reproducible")
        for k in ks:
            rep = cf.check_banach_k(op, k)
            expect(f"banach k={k}", rep.verdict, oracle.oracle_banach(doc, k))
            if rep.verdict == "fails" and not cf.reverify_witness(op, rep)["violated"]:
                problems.append(f"{name}: banach witness not reproducible at k={k}")
        for i, rule in enumerate(delta_rules):
            for symmetric, checker in ((False, cf.check_samet),
                                       (True, cf.check_symmetric_mk)):
                rep = checker(op, eps_grid, rule)
                want = oracle.oracle_banded_grid(doc, eps_grid, rule, symmetric)
                expect(f"banded sym={symmetric} rule{i}", rep.verdict, want)
                if rep.verdict == "fails" and not cf.reverify_witness(op, rep)["violated"]:
                    problems.append(f"{name}: banded witness not reproducible")
    _report(5, "every checker verdict on the <=5 element tabulated instances "
               "equals brute-force enumeration in exact arithmetic", problems)


def test_criterion_6_uniqueness_and_diagonal(samet):
    problems = []
    op = samet.operator
    starts = cf.sample_admissible_starts(samet, 10, seed=2025)
    if len(starts) < 10:
        problems.append(f"only {len(starts)} admissible starts")
    rep = cf.multi_start_uniqueness(op, starts, tol=TOL,
                                    bound_search=samet.bound_search)
    if not rep.all_converged:
        problems.append(f"non-converged runs: {rep.failed}")
    if rep.max_pairwise_d2 > 2e-10:
        problems.append(f"max pairwise d2 {rep.max_pairwise_d2}")
    for gap in rep.diagonal_gaps:
        if gap > 2e-10:
            problems.append(f"diagonal gap {gap}")
            break
    for z in rep.endpoints:
        chk = cf.check_diagonal(op, z, tol=TOL)
        if chk.diagonal_residual > 1e-10:
            problems.append(f"diagonal residual {chk.diagonal_residual}")
            break
    _report(6, "10 seeded admissible starts end within 2e-10 of one another, "
               "on the diagonal to 2e-10, with F(x,x)=x to 1e-10", problems)


def test_criterion_7_cli_determinism(capsys):
    problems = []
    args = ["verify", "--problem", "samet_example", "--seed", "7"]
    code1 = main(list(args))
    out1 = capsys.readouterr().out
    code2 = main(list(args))
    out2 = capsys.readouterr().out
    if code1 != 0 or code2 != 0:
        problems.append(f"exit codes {code1}, {code2}")
    if out1 != out2:
        problems.append("verify output not byte-identical across runs")
    payload = json.loads(out1)
    if payload["config"]["seed"] != 7:
        problems.append("seed not echoed")
    _report(7, "two `verify --problem samet_example --seed 7` runs produce "
               "byte-identical JSON", problems)
