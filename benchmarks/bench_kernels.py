#!/usr/bin/env python3
"""Benchmark the numpy sweep kernels against the scalar reference they match.

Both implementations are bit-identical (the script asserts it); this measures
throughput only. The first numpy call pays the numpy import, so every timing
is the best of three.

    python benchmarks/bench_kernels.py --n 200000
"""

import argparse
import time

from coupledfp import kernels
from coupledfp.kernels import pure


def _time(fn, *args, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=200_000,
                        help="draws per sweep (default 200000)")
    args = parser.parse_args()
    n = args.n

    impls = [("pure-python", pure), ("numpy", kernels)]

    cases = [
        ("banach_sweep", "banach_sweep",
         (1.0, 1.0, 4.0, 0.5, n, 42, 1, 10.0, 1e-12)),
        ("band_sweep (symmetric)", "band_sweep",
         (1.0, 3.0, 5.0, 1.0, 0.125, n, 42, 2, 10.0, 0, 1, 1e-12)),
        ("band_sweep (x==u slice)", "band_sweep",
         (1.0, 1.0, 4.0, 1.0, 1.0, n, 42, 3, 10.0, 1, 0, 1e-12)),
        ("strict_sweep", "strict_sweep",
         (1.0, 3.0, 5.0, n, 42, 4, 10.0, 1e-12)),
    ]

    print(f"{'kernel':<26} {'backend':<12} {'time':>10} {'draws/s':>14}")
    for label, fn_name, fn_args in cases:
        results = {}
        baseline = None
        for name, mod in impls:
            elapsed, out = _time(getattr(mod, fn_name), *fn_args)
            results[name] = out
            rate = n / elapsed
            line = f"{label:<26} {name:<12} {elapsed:>9.4f}s {rate:>14,.0f}"
            if name == "pure-python":
                baseline = elapsed
            elif baseline is not None:
                line += f"   ({baseline / elapsed:,.0f}x)"
            print(line)
        a, b = results.values()
        assert a == b, f"{label}: numpy and the reference disagree"
    print("\nall timed sweeps returned identical results in both implementations")


if __name__ == "__main__":
    main()
