#!/usr/bin/env python3
"""Benchmark the numpy sweep kernels against the scalar reference they match.

On the linear maps timed here both implementations are bit-identical (the
script asserts it); this measures throughput only. The first numpy call pays
the numpy import, so every timing is the best of three.

    python benchmarks/bench_kernels.py --n 200000
"""

import argparse
import time

from coupledfp import kernels, make_linear
from coupledfp.kernels import pure

SLACK = 1e-12  # the rounding slack the kernels take from operators.FLOAT_SLACK


def _time(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=200_000,
                        help="draws per sweep (default 200000)")
    args = parser.parse_args()
    n = args.n

    # each case: (label, the reference's call, the kernel's call); the
    # reference takes the coefficients of F(x, y) = (a*x - b*y)/c, the
    # kernel the operator itself
    samet = make_linear(1.0, 3.0, 5.0).operator
    quarter = make_linear(1.0, 1.0, 4.0).operator
    cases = [
        ("banach_sweep",
         lambda: pure.banach_sweep(1.0, 1.0, 4.0, 0.5, n, 42, 1, 10.0, SLACK),
         lambda: kernels.banach_sweep(quarter, 0.5, 42, 1, n)),
        ("band_sweep (symmetric)",
         lambda: pure.band_sweep(1.0, 3.0, 5.0, 1.0, 0.125, n, 42, 2, 10.0, 0, 1, SLACK),
         lambda: kernels.band_sweep(samet, 1.0, 0.125, 42, 2, n, 0, True)),
        ("band_sweep (x==u slice)",
         lambda: pure.band_sweep(1.0, 1.0, 4.0, 1.0, 1.0, n, 42, 3, 10.0, 1, 0, SLACK),
         lambda: kernels.band_sweep(quarter, 1.0, 1.0, 42, 3, n, 1, False)),
        ("strict_sweep",
         lambda: pure.strict_sweep(1.0, 3.0, 5.0, n, 42, 4, 10.0, SLACK),
         lambda: kernels.strict_sweep(samet, 42, 4, n)),
    ]

    print(f"{'kernel':<26} {'backend':<12} {'time':>10} {'draws/s':>14}")
    for label, *calls in cases:
        results = []
        baseline = None
        for name, call in zip(("pure-python", "numpy"), calls):
            elapsed, out = _time(call)
            results.append(out)
            rate = n / elapsed
            line = f"{label:<26} {name:<12} {elapsed:>9.4f}s {rate:>14,.0f}"
            if baseline is None:
                baseline = elapsed
            else:
                line += f"   ({baseline / elapsed:,.0f}x)"
            print(line)
        a, b = results
        assert a == b, f"{label}: numpy and the reference disagree"
    print("\nall timed sweeps returned identical results in both implementations")


if __name__ == "__main__":
    main()
