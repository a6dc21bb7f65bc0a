import ast
import dataclasses
import inspect
import json
import math
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coupledfp as cf
from coupledfp import kernels

import kernel_oracle as pure
from conftest import fixture_path


def _stream(seed, tag, n):
    """The raw uniform stream as the numpy kernels generate it, a chunk of
    at most CHUNK draws at a time."""
    import numpy as np

    s0 = np.array([[kernels.stream_seed(seed, tag)]], dtype=np.uint64)
    return [u for i0 in range(0, n, kernels.CHUNK)
            for u in kernels._uniforms(s0, i0, min(kernels.CHUNK, n - i0), 1)[0, 0].tolist()]


def test_cli_import_leaves_numpy_unloaded():
    code = ("import sys, coupledfp.cli, coupledfp.kernels as k; "
            "print(k.KERNEL_BACKEND, 'numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout.split()
    assert out == ["numpy", "False"]


GENERIC_AND_FINITE_CHECKS = """
import sys
import coupledfp as cf
from coupledfp.spaces import _real_lattice_bound
plain = cf.CoupledOperator(apply=lambda x, y: (x - 3 * y) / 5, space=cf.real_line(),
                           lipschitz_data=(0.2, 0.6))
finite = cf.load_finite(sys.argv[1]).operator
for op in (plain, finite):
    cf.check_mixed_monotone(op, samples=200)
    cf.check_banach_k(op, 0.5, samples=200)
    cf.check_samet(op, [1.0], lambda e: e / 8, samples=200)
    cf.check_symmetric_mk(op, [1.0], lambda e: e / 8, samples=200)
    cf.check_strict_contraction(op, samples=200)
    cf.estimate_delta_curve(op, [1.0], samples=100)
cf.audit_lipschitz(plain, samples=200)
cf.audit_space(cf.real_line(), samples=500)
cf.audit_space(finite.space)
cf.probe_comparability(cf.real_line(), samples=200, bound_search=_real_lattice_bound)
print("numpy" in sys.modules)
"""


def test_generic_and_finite_checks_leave_numpy_unloaded():
    # the shared predicates serve the sweeps without importing numpy, and the
    # audit takes its array path only once something else has loaded it
    out = subprocess.run([sys.executable, "-c", GENERIC_AND_FINITE_CHECKS,
                          fixture_path("diamond5.json")],
                         capture_output=True, text=True, check=True).stdout.split()
    assert out == ["False"]


KERNEL_LANE_CALLS = """
import contextlib, dataclasses, io, sys
import coupledfp as cf
from coupledfp import cli
from coupledfp.spaces import _real_lattice_bound
op = cf.builtin("samet_example").operator
with contextlib.redirect_stdout(io.StringIO()):
    for command in ("verify", "delta-curve", "solve", "uniqueness", "audit-space"):
        assert cli.main([command, "--problem", "samet_example", "--samples", "500"]) == 0
cf.check_mixed_monotone(op, samples=500)
cf.probe_comparability(cf.real_line(), samples=500, bound_search=_real_lattice_bound)
cf.audit_space(cf.real_line(), samples=500)
print("numpy" in sys.modules, "numpy.random" in sys.modules)
report = cf.audit_space(dataclasses.replace(cf.real_line(), kind="custom"), samples=700)
print(report.passed, "numpy.random" in sys.modules)
"""


def test_nothing_loads_numpy_random():
    # the kernel lane draws from its own counter stream, and the audit draws
    # its index stream from random.Random: numpy.random (about 5 MB and 11 ms
    # to import) is never loaded, not even by a 700-point audit in the
    # callable lane, which draws its pairs and triples, after the kernel lane
    out = subprocess.run([sys.executable, "-c", KERNEL_LANE_CALLS],
                         capture_output=True, text=True, check=True).stdout.split()
    assert out == ["True", "False", "True", "False"]


def test_rng_streams_bit_identical():
    for seed in (0, 1, 42, -7, 2 ** 63):
        for tag in (0, 3, 0xDEADBEEF):
            assert kernels.stream_seed(seed, tag) == pure.stream_seed(seed, tag)
            assert _stream(seed, tag, 64) == pure.rand_doubles(seed, tag, 64)
    n = kernels.CHUNK + 5
    assert _stream(-7, 11, n) == pure.rand_doubles(-7, 11, n)


def test_seed_table_gives_each_consumer_its_own_stream():
    # one base per seeded consumer, in _tag's top byte; the sweeps' bases 1-6
    # are pinned, since every kernel-lane report is drawn from them
    bases = kernels._BASES
    assert len(set(bases.values())) == len(bases)
    assert all(0 < base <= 0xFF and kernels._tag(base) == base << 56 for base in bases.values())
    sweeps = ("banach_k", "strict_contraction", "samet_mk", "symmetric_mk", "curve",
              "mixed_monotone")
    assert [bases[c] for c in sweeps] == [1, 2, 3, 4, 5, 6]
    for seed in range(100):
        assert len({kernels.stream_seed(seed, kernels._tag(b)) for b in bases.values()}) == len(bases)
        assert len({kernels._sampler_seed(seed, c) for c in bases}) == len(bases)
        assert kernels._sampler_seed(seed, "starts") == (
            kernels.stream_seed(seed, bases["starts"] << 56) & 0x7FFFFFFF)


def test_kernels_import_nothing_at_module_level():
    # numpy and the rest of the package load on the first sweep, so any
    # module of the package can import the seed policy without a cycle
    tree = ast.parse(inspect.getsource(kernels))
    assert not [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_rng_range_and_determinism():
    vals = pure.rand_doubles(5, 9, 256)
    assert all(0.0 <= v < 1.0 for v in vals)
    assert vals == pure.rand_doubles(5, 9, 256)
    assert vals != pure.rand_doubles(6, 9, 256)


SLACK = 1e-12  # the rounding slack the kernels take from operators.FLOAT_SLACK


def _linear_op(a, b, c, scale=10.0):
    op = cf.make_linear(a, b, c).operator
    # a replaced space also reaches radii that real_line rejects (inf)
    op.space = dataclasses.replace(op.space, sample_radius=scale)
    return op


def _run(name, a, b, c, *, n, seed, tag, scale=10.0, k=None, eps=None, delta=None,
         mode=0, symmetric=0):
    """(oracle result, kernel result) of one sweep on F(x, y) = (a*x - b*y)/c:
    the oracle takes the coefficients, the kernel the operator."""
    op = _linear_op(a, b, c, scale)
    if name == "banach_sweep":
        return (pure.banach_sweep(a, b, c, k, n, seed, tag, scale, SLACK),
                kernels.banach_sweep(op, k, seed, tag, n))
    if name == "band_sweep":
        return (pure.band_sweep(a, b, c, eps, delta, n, seed, tag, scale, mode, symmetric, SLACK),
                kernels._band_sweeps(op, [(eps, delta, tag)], seed, n, mode, symmetric)[0])
    if name == "band_sweep_smallest":
        return (pure.band_sweep_smallest(a, b, c, eps, delta, n, seed, tag, scale, mode,
                                         symmetric, SLACK, kernels.CHUNK // 4),
                kernels._band_sweeps(op, [(eps, delta, tag)], seed, n, mode, symmetric,
                                     smallest=True)[0])
    assert name == "strict_sweep"
    return (pure.strict_sweep(a, b, c, n, seed, tag, scale, SLACK),
            kernels.strict_sweep(op, seed, tag, n))


BANACH_CASES = [
    (1.0, 3.0, 5.0, 0.8, 500, 0, 1),
    (1.0, 1.0, 4.0, 0.5, 500, 7, 2),
    (0.0, 0.0, 1.0, 0.0, 200, 3, 3),
    (2.0, 1.0, 4.0, 0.75, 500, 11, 4),
]


@pytest.mark.parametrize("a,b,c,k,n,seed,tag", BANACH_CASES)
def test_banach_sweep_bit_identical(a, b, c, k, n, seed, tag):
    got_p, got_n = _run("banach_sweep", a, b, c, k=k, n=n, seed=seed, tag=tag)
    assert got_p == got_n


BAND_CASES = [
    (1.0, 3.0, 5.0, 1.0, 0.125, 400, 0, 5, 0, 1),
    (1.0, 3.0, 5.0, 1.0, 0.125, 400, 0, 6, 1, 0),
    (1.0, 3.0, 5.0, 0.1, 0.05, 400, 2, 7, 2, 1),
    (1.0, 1.0, 4.0, 10.0, 10.0, 400, 5, 8, 0, 0),
    (2.0, 0.0, 1.0, 1.0, 0.5, 100, 9, 9, 1, 1),
    (1.0, 3.0, 5.0, 7.0, 7e-15, 20, 940, 5, 2, 0),  # draw 7 lands on the band's upper edge
]


@pytest.mark.parametrize("a,b,c,eps,delta,n,seed,tag,mode,sym", BAND_CASES)
def test_band_sweep_bit_identical(a, b, c, eps, delta, n, seed, tag, mode, sym):
    got_p, got_n = _run("band_sweep", a, b, c, eps=eps, delta=delta, n=n, seed=seed,
                        tag=tag, mode=mode, symmetric=sym)
    assert got_p == got_n


@pytest.mark.parametrize("a,b,c,seed", [(1.0, 3.0, 5.0, 0), (1.0, 0.0, 1.0, 4),
                                        (0.0, 0.0, 1.0, 2)])
def test_strict_sweep_bit_identical(a, b, c, seed):
    got_p, got_n = _run("strict_sweep", a, b, c, n=400, seed=seed, tag=12)
    assert got_p == got_n


NON_FINITE_SWEEPS = {
    "banach_sweep": dict(k=0.8),
    "band_sweep": dict(eps=1.0, delta=0.125, mode=0, symmetric=1),
    "strict_sweep": dict(),
}
# (found, count) per scale: banach and strict stop at the first draw, whose
# image distance is NaN, except that at scale inf every half-sum is NaN and
# strict finds no distinct pair
NON_FINITE_COUNTS = {1e308: {"banach_sweep": (1, 1), "strict_sweep": (1, 1)},
                     float("inf"): {"banach_sweep": (1, 1), "strict_sweep": (0, 0)}}


@pytest.mark.parametrize("scale", [1e308, float("inf")])
def test_sweeps_non_finite_bit_identical(scale):
    # Overflowing draws give inf and nan quantities, where the sweeps depart
    # from the oracle on purpose: a NaN conclusion violates the shared
    # predicates (the oracle lets it through) and a NaN half-sum is no
    # distinct pair (the oracle counts it as checked).
    for name, kw in NON_FINITE_SWEEPS.items():
        got_p, got_n = _run(name, 1.0, 3.0, 5.0, n=300, seed=1, tag=2, scale=scale, **kw)
        if name == "band_sweep":  # no draw lands in the band at this scale
            assert repr(got_n) == repr(got_p)
            continue
        assert got_n[:2] == NON_FINITE_COUNTS[scale][name], name
        if got_n[0]:  # the oracle passes the NaN and stops later
            assert any(map(math.isnan, got_n[6:])) and got_p[1] > 1, name
        else:  # the oracle counts the 300 NaN half-sums as checked
            assert got_p[:2] == (0, 300)


# Sweeps over the real chunk size: a run that straddles the chunk boundary
# without a violation, and violations that first occur in the second chunk
# (rare ones: the map sits just past the tested bound).
FULL_CHUNK_CASES = [
    ("strict_sweep", dict(a=1.0, b=3.0, c=5.0, n=kernels.CHUNK + 1, seed=0, tag=12)),
    ("band_sweep", dict(a=1.0, b=3.0, c=5.0, eps=1.0, delta=0.125, n=kernels.CHUNK + 1,
                        seed=0, tag=5, mode=0, symmetric=1)),
    ("banach_sweep", dict(a=0.0, b=1.0, c=1.0, k=1.9998, n=2 * kernels.CHUNK + 1,
                          seed=5, tag=21)),
    ("band_sweep", dict(a=0.0, b=1.0, c=1.9999, eps=1.0, delta=1e-6, n=2 * kernels.CHUNK + 1,
                        seed=4, tag=22, mode=0, symmetric=0)),
]


@pytest.mark.parametrize("name,args", FULL_CHUNK_CASES)
def test_sweeps_across_chunks_bit_identical(name, args):
    got_p, got_n = _run(name, **args)
    assert got_p == got_n
    if got_p[0]:
        assert got_p[1] > kernels.CHUNK


coeff = st.one_of(st.sampled_from([0.0, 1.0, 3.0]), st.floats(min_value=0.0, max_value=5.0))
seeds = st.one_of(st.sampled_from([0, -7, 2 ** 63]),
                  st.integers(min_value=-2 ** 64, max_value=2 ** 64))


@given(a=coeff, b=coeff, c=st.floats(min_value=0.1, max_value=5.0),
       k=st.floats(min_value=0.0, max_value=2.0),
       eps=st.floats(min_value=1e-6, max_value=100.0),
       delta=st.floats(min_value=1e-9, max_value=100.0),
       n=st.integers(min_value=0, max_value=200), seed=seeds,
       tag=st.integers(min_value=0, max_value=2 ** 64 - 1),
       mode=st.sampled_from([0, 1, 2]), symmetric=st.sampled_from([0, 1]))
@example(a=1.0, b=3.0, c=5.0, k=0.8, eps=1.0, delta=0.125, n=130, seed=-7, tag=3,
         mode=0, symmetric=1)
@example(a=1.0, b=1.0, c=4.0, k=0.5, eps=0.1, delta=0.05, n=64, seed=2 ** 63, tag=0,
         mode=1, symmetric=0)
@example(a=0.0, b=1.0, c=1.95, k=1.0, eps=1.0, delta=1e-6, n=200, seed=11, tag=21,
         mode=0, symmetric=0)  # banach and band first violate at draws 104 and 81
@settings(max_examples=150, deadline=None)
def test_sweeps_match_oracle(a, b, c, k, eps, delta, n, seed, tag, mode, symmetric):
    # a small chunk makes multi-chunk runs and later-chunk violations cheap
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "CHUNK", 64)
        for name, kw in (
            ("banach_sweep", dict(k=k)),
            ("band_sweep", dict(eps=eps, delta=delta, mode=mode, symmetric=symmetric)),
            ("strict_sweep", dict()),
        ):
            got_p, got_n = _run(name, a, b, c, n=n, seed=seed, tag=tag, **kw)
            assert got_n == got_p, name


FAR_BAND = (1e6, 1e-300)  # one ulp of eps wide: rounding drops every draw
band = st.one_of(st.just(FAR_BAND), st.tuples(st.floats(min_value=1e-6, max_value=100.0),
                                               st.floats(min_value=1e-9, max_value=100.0)))


@given(a=coeff, b=coeff, c=st.floats(min_value=0.1, max_value=5.0),
       bands=st.lists(st.tuples(band, st.integers(min_value=0, max_value=3)),
                      min_size=1, max_size=6),
       n=st.integers(min_value=0, max_value=200), seed=seeds,
       mode=st.sampled_from([0, 1, 2]), symmetric=st.sampled_from([0, 1]),
       smallest=st.booleans())
@example(a=1.0, b=3.0, c=5.0, bands=[((1.0, 0.125), 5), (FAR_BAND, 5), ((0.1, 0.05), 5)],
         n=130, seed=-7, mode=0, symmetric=1, smallest=False)  # one tag thrice, a band without hits
@example(a=0.0, b=1.0, c=1.95, bands=[((1.0, 1e-6), 21), ((10.0, 1.0), 22), ((1.0, 1e-6), 21)],
         n=200, seed=11, mode=0, symmetric=0, smallest=False)  # a repeated band violates late
@example(a=0.0, b=1.0, c=1.95, bands=[((1.0, 1e-6), 21), ((10.0, 1.0), 22), ((1.0, 1e-6), 21),
                                      (FAR_BAND, 3), ((1.0, 1e-6), 21), ((0.1, 0.05), 0)],
         n=200, seed=11, mode=0, symmetric=0, smallest=True)  # two block passes of 4 and 2 rows
@settings(max_examples=150, deadline=None)
def test_batched_band_sweeps_match_single_sweeps(a, b, c, bands, n, seed, mode, symmetric,
                                                 smallest):
    # a small chunk splits each band's stream across passes, at a per-band
    # width that changes as bands find their violation and drop out, or with
    # smallest in blocks of CHUNK // 4 draws, at most CHUNK // min(block, n)
    # rows to a pass: a band's entry does not depend on the other bands of
    # its call
    op = _linear_op(a, b, c)
    bands = [(eps, delta, tag) for (eps, delta), tag in bands]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "CHUNK", 64)
        batched = kernels._band_sweeps(op, bands, seed, n, mode, symmetric, smallest)
        single = [kernels._band_sweeps(op, [(eps, delta, tag)], seed, n, mode, symmetric,
                                       smallest)[0] for eps, delta, tag in bands]
    assert batched == single
    if smallest:
        expected = [pure.band_sweep_smallest(a, b, c, eps, delta, n, seed, tag, 10.0, mode,
                                             symmetric, SLACK, 16) for eps, delta, tag in bands]
    else:
        expected = [pure.band_sweep(a, b, c, eps, delta, n, seed, tag, 10.0, mode, symmetric,
                                    SLACK) for eps, delta, tag in bands]
    assert single == expected


@given(a=coeff, b=coeff, c=st.floats(min_value=0.1, max_value=5.0),
       eps=st.floats(min_value=1e-6, max_value=100.0),
       delta=st.floats(min_value=1e-9, max_value=100.0),
       n=st.integers(min_value=0, max_value=3 * 2048 + 1), seed=seeds,
       tag=st.integers(min_value=0, max_value=2 ** 64 - 1),
       mode=st.sampled_from([0, 1, 2]), symmetric=st.sampled_from([0, 1]))
@example(a=0.0, b=1.0, c=1.999, eps=1.0, delta=1e-6, n=2 * 2048 + 1, seed=34, tag=22, mode=0,
         symmetric=0)  # the first violating block is the second, and its first is not its least
@example(a=1.0, b=3.0, c=5.0, eps=1.0, delta=10.0, n=5000, seed=0, tag=5, mode=0,
         symmetric=1)  # a violation in the first block, among many
@settings(max_examples=40, deadline=None)
def test_smallest_band_sweep_matches_oracle(a, b, c, eps, delta, n, seed, tag, mode, symmetric):
    # the delta curve's band search at the real block size, CHUNK // 4 draws
    assert kernels.CHUNK // 4 == 2048
    got_p, got_n = _run("band_sweep_smallest", a, b, c, eps=eps, delta=delta, n=n, seed=seed,
                        tag=tag, mode=mode, symmetric=symmetric)
    assert got_n == got_p


def test_smallest_band_sweep_ties_go_to_the_earliest_draw():
    # the band [1, 1 + 2**-52) of linear(0,1,1) with x == u holds only the
    # half-sum 1.0, and every in-band draw violates (its conclusion is 2 half-
    # sums): the first block's violations tie, and its first one is reported,
    # with the block's in-band draws as hits
    a, b, c, eps, delta, n, seed, tag = 0.0, 1.0, 1.0, 1.0, 2.0 ** -52, 300, 3, 9
    draws = list(pure._band_draws(a, b, c, eps, delta, 16, seed, tag, 10.0, 1, 0, SLACK))
    hits = [d for d in draws if d is not None]
    assert len(hits) >= 2 and all(d[4] == 1.0 and d[-1] for d in hits)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "CHUNK", 64)
        got_p, got_n = _run("band_sweep_smallest", a, b, c, eps=eps, delta=delta, n=n,
                            seed=seed, tag=tag, mode=1)
    first = pure.band_sweep(a, b, c, eps, delta, n, seed, tag, 10.0, 1, 0, SLACK)
    assert got_n == got_p == (1, len(hits)) + first[2:]


def test_batched_band_sweeps_keep_a_hitless_band():
    # with x == u the samet map's conclusion is 1.2 half-sums: the two real
    # bands violate in the first pass, and the hitless one sweeps on alone
    op = _linear_op(1.0, 3.0, 5.0)
    bands = [(1.0, 0.125, 5), FAR_BAND + (5,), (10.0, 1.0, 6)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "CHUNK", 64)
        got = kernels._band_sweeps(op, bands, -7, 300, 1, 0)
    assert got == [pure.band_sweep(1.0, 3.0, 5.0, eps, delta, 300, -7, tag, 10.0, 1, 0, SLACK)
                   for eps, delta, tag in bands]
    assert [r[:2] for r in got] == [(1, 1), (0, 0), (1, 1)]


@pytest.mark.parametrize("name", ["samet_example", "linear(1,1,4)", "linear(2,1,4)"])
def test_delta_curve_sweeps_a_short_phase_of_many_eps_in_one_call(name, monkeypatch):
    # a block of CHUNK // 4 draws is longer than the 200-draw adversarial
    # phases, so every row of such a phase fits one pass: twelve eps share
    # one _sweeps call there, and each row's entry is the one it gets alone
    op = cf.builtin(name).operator
    grid = [k / 10 for k in range(1, 11)] + [1, 10]
    sweeps, band_sweeps, phases = kernels._sweeps, kernels._band_sweeps, []

    def alone(op, cond, rows, *args):
        return [res for row in rows for res in sweeps(op, cond, [row], *args)]

    monkeypatch.setattr(kernels, "_sweeps", alone)
    expected = cf.estimate_delta_curve(op, grid, samples=2000, seed=1)

    def counted(op, cond, rows, *args):
        phases[-1].append(len(rows))
        return sweeps(op, cond, rows, *args)

    def phase(op, bands, seed, n, *args):
        phases.append([n])
        return band_sweeps(op, bands, seed, n, *args)

    monkeypatch.setattr(kernels, "_sweeps", counted)
    monkeypatch.setattr(kernels, "_band_sweeps", phase)
    assert cf.estimate_delta_curve(op, grid, samples=2000, seed=1) == expected
    adversarial = [rows for n, *rows in phases if n == 200]
    assert adversarial and all(len(rows) == 1 for rows in adversarial)
    assert adversarial[0] == [len(grid)]  # the thin probes of every eps


# perfbench/tracing.py spans every public function of a traced layer unless
# its COUNT_ONLY lists it, and counts only the sweeps its KERNEL_SWEEPS names,
# so a new public kernel function moves the traced per-layer numbers. Add one
# here only together with a tracer that lists or counts it.
PUBLIC_KERNEL_FUNCTIONS = {"banach_sweep", "strict_sweep", "stream_seed", "monotone_sweep"}


def test_public_kernel_functions_are_pinned():
    public = {name for name, fn in vars(kernels).items()
              if not name.startswith("_") and inspect.isfunction(fn)
              and fn.__module__.startswith(kernels.__name__)}
    assert public == PUBLIC_KERNEL_FUNCTIONS


def _report_blob(problem):
    op = problem.operator
    blobs = []
    blobs.append(cf.check_banach_k(op, 0.5, samples=1500, seed=7).to_jsonable())
    blobs.append(cf.check_samet(op, [0.1, 1.0], lambda e: e / 8,
                                samples=1500, seed=7).to_jsonable())
    blobs.append(cf.check_symmetric_mk(op, [0.1, 1.0], lambda e: e / 8,
                                       samples=1500, seed=7).to_jsonable())
    blobs.append(cf.check_strict_contraction(op, samples=1500, seed=7).to_jsonable())
    blobs.append([list(t) for t in cf.estimate_delta_curve(op, [1.0],
                                                           samples=400, seed=7)])
    return json.dumps(blobs, sort_keys=True)


# (a, b, c) of each problem's map F(x, y) = (a*x - b*y)/c
ORACLE_COEFFS = {"samet_example": (1.0, 3.0, 5.0), "linear(1,1,4)": (1.0, 1.0, 4.0),
                 "linear(2,1,4)": (2.0, 1.0, 4.0)}


@pytest.mark.parametrize("name", sorted(ORACLE_COEFFS))
def test_reports_identical_across_backends(name, monkeypatch):
    problem = cf.builtin(name)
    blob_numpy = _report_blob(problem)
    a, b, c = ORACLE_COEFFS[name]
    scale = problem.space.sample_radius
    monkeypatch.setattr(kernels, "banach_sweep", lambda op, k, seed, tag, n: pure.banach_sweep(
        a, b, c, k, n, seed, tag, scale, SLACK))
    monkeypatch.setattr(kernels, "strict_sweep", lambda op, seed, tag, n: pure.strict_sweep(
        a, b, c, n, seed, tag, scale, SLACK))
    # the checks and the curve sweep their bands through the batched entry,
    # the curve's probes and rounds with its smallest-in-block rule
    batches = []

    def band_sweeps(op, bands, seed, n, mode, sym, smallest=False):
        batches.append((len(bands), smallest))
        if smallest:
            return [pure.band_sweep_smallest(a, b, c, eps, delta, n, seed, tag, scale, mode, sym,
                                             SLACK, kernels.CHUNK // 4)
                    for eps, delta, tag in bands]
        return [pure.band_sweep(a, b, c, eps, delta, n, seed, tag, scale, mode, sym, SLACK)
                for eps, delta, tag in bands]

    monkeypatch.setattr(kernels, "_band_sweeps", band_sweeps)
    assert _report_blob(problem) == blob_numpy
    assert max(batches) == (2, False)  # the banded checks' grid of two eps
    assert (1, True) in batches  # the curve's probe and rounds
