import json
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coupledfp as cf
from coupledfp import kernels
from coupledfp.kernels import pure


def _stream(seed, tag, n):
    """The raw uniform stream as the numpy kernels generate it."""
    return [u for _, (row,) in kernels._chunks(seed, tag, n, 1) for u in row.tolist()]


def test_cli_import_leaves_numpy_unloaded():
    code = ("import sys, coupledfp.cli, coupledfp.kernels as k; "
            "print(k.KERNEL_BACKEND, 'numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout.split()
    assert out == ["numpy", "False"]


def test_rng_streams_bit_identical():
    for seed in (0, 1, 42, -7, 2 ** 63):
        for tag in (0, 3, 0xDEADBEEF):
            assert kernels.stream_seed(seed, tag) == pure.stream_seed(seed, tag)
            assert _stream(seed, tag, 64) == pure.rand_doubles(seed, tag, 64)
    n = kernels.CHUNK + 5
    assert _stream(-7, 11, n) == pure.rand_doubles(-7, 11, n)


def test_rng_range_and_determinism():
    vals = pure.rand_doubles(5, 9, 256)
    assert all(0.0 <= v < 1.0 for v in vals)
    assert vals == pure.rand_doubles(5, 9, 256)
    assert vals != pure.rand_doubles(6, 9, 256)


BANACH_CASES = [
    (1.0, 3.0, 5.0, 0.8, 500, 0, 1),
    (1.0, 1.0, 4.0, 0.5, 500, 7, 2),
    (0.0, 0.0, 1.0, 0.0, 200, 3, 3),
    (2.0, 1.0, 4.0, 0.75, 500, 11, 4),
]


@pytest.mark.parametrize("a,b,c,k,n,seed,tag", BANACH_CASES)
def test_banach_sweep_bit_identical(a, b, c, k, n, seed, tag):
    got_p = pure.banach_sweep(a, b, c, k, n, seed, tag, 10.0, 1e-12)
    got_n = kernels.banach_sweep(a, b, c, k, n, seed, tag, 10.0, 1e-12)
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
    got_p = pure.band_sweep(a, b, c, eps, delta, n, seed, tag, 10.0, mode, sym, 1e-12)
    got_n = kernels.band_sweep(a, b, c, eps, delta, n, seed, tag, 10.0, mode, sym, 1e-12)
    assert got_p == got_n


@pytest.mark.parametrize("a,b,c,seed", [(1.0, 3.0, 5.0, 0), (1.0, 0.0, 1.0, 4),
                                        (0.0, 0.0, 1.0, 2)])
def test_strict_sweep_bit_identical(a, b, c, seed):
    got_p = pure.strict_sweep(a, b, c, 400, seed, 12, 10.0, 1e-12)
    got_n = kernels.strict_sweep(a, b, c, 400, seed, 12, 10.0, 1e-12)
    assert got_p == got_n


@pytest.mark.parametrize("scale", [1e308, float("inf")])
def test_sweeps_non_finite_bit_identical(scale):
    # overflowing draws give inf and nan quantities, which every comparison
    # must treat as the oracle does (repr, because nan != nan)
    for name, args in (
        ("banach_sweep", (1.0, 3.0, 5.0, 0.8, 300, 1, 2, scale, 1e-12)),
        ("band_sweep", (1.0, 3.0, 5.0, 1.0, 0.125, 300, 1, 2, scale, 0, 1, 1e-12)),
        ("strict_sweep", (1.0, 3.0, 5.0, 300, 1, 2, scale, 1e-12)),
    ):
        assert repr(getattr(kernels, name)(*args)) == repr(getattr(pure, name)(*args)), name


# Sweeps over the real chunk size: a run that straddles the chunk boundary
# without a violation, and violations that first occur in the second chunk
# (rare ones: the map sits just past the tested bound).
FULL_CHUNK_CASES = [
    ("strict_sweep", (1.0, 3.0, 5.0, kernels.CHUNK + 1, 0, 12, 10.0, 1e-12)),
    ("band_sweep", (1.0, 3.0, 5.0, 1.0, 0.125, kernels.CHUNK + 1, 0, 5, 10.0, 0, 1, 1e-12)),
    ("banach_sweep", (0.0, 1.0, 1.0, 1.9998, 2 * kernels.CHUNK + 1, 5, 21, 10.0, 1e-12)),
    ("band_sweep", (0.0, 1.0, 1.9999, 1.0, 1e-6, 2 * kernels.CHUNK + 1, 4, 22, 10.0, 0, 0, 1e-12)),
]


@pytest.mark.parametrize("name,args", FULL_CHUNK_CASES)
def test_sweeps_across_chunks_bit_identical(name, args):
    got_p = getattr(pure, name)(*args)
    assert got_p == getattr(kernels, name)(*args)
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
        for name, args in (
            ("banach_sweep", (a, b, c, k, n, seed, tag, 10.0, 1e-12)),
            ("band_sweep", (a, b, c, eps, delta, n, seed, tag, 10.0, mode, symmetric, 1e-12)),
            ("strict_sweep", (a, b, c, n, seed, tag, 10.0, 1e-12)),
        ):
            assert getattr(kernels, name)(*args) == getattr(pure, name)(*args), name


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


@pytest.mark.parametrize("name", ["samet_example", "linear(1,1,4)", "linear(2,1,4)"])
def test_reports_identical_across_backends(name, monkeypatch):
    problem = cf.builtin(name)
    blob_numpy = _report_blob(problem)
    for sweep in ("banach_sweep", "band_sweep", "strict_sweep"):
        monkeypatch.setattr(kernels, sweep, getattr(pure, sweep))
    assert _report_blob(problem) == blob_numpy
