"""Sweep kernels for the linear coupled maps F(x, y) = (a*x - b*y)/c on the real line.

Every sweep draws comparable quadruples (x >= u, y <= v) from a splitmix64
stream and stops at the first violation. The stream is counter based: draw j
(from 0) of the (seed, tag) stream is mix64(s0 + (j + 1) * GOLDEN) with
s0 = stream_seed(seed, tag), so the sweeps evaluate it as numpy arrays, one
chunk of draws at a time, and the first violation of a chunk is found with
argmax over its violation mask. Floats only; exact (rational) spaces are
handled elsewhere.

The results are bit-identical to the scalar reference in ``pure``, which the
tests use as the oracle: the same stream, the same IEEE operations in the
same order (numpy elementwise arithmetic does not fuse multiply-adds) and the
same returned tuple.

numpy is imported on the first sweep call, never at package import, so
commands that make no sweep do not pay its import time or memory.
"""

KERNEL_BACKEND = "numpy"
CHUNK = 8192  # draws evaluated per array pass; bounds memory and early-exit waste

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 1.0 / 9007199254740992.0  # 2^-53


def _mix64(z):
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def stream_seed(seed, tag):
    """Initial splitmix64 state for the (seed, tag) stream."""
    return _mix64((seed & _MASK64) ^ ((tag & _MASK64) * _GOLDEN & _MASK64))


def _chunks(seed, tag, n, width):
    """Yield (first draw index, uniforms) per chunk of at most CHUNK draws.

    uniforms has shape (width, m): row r holds the r-th of the width
    consecutive stream values each draw consumes, for the chunk's m draws.
    """
    import numpy as np

    s0 = np.uint64(stream_seed(seed, tag))
    offsets = np.arange(1, width + 1, dtype=np.uint64)[:, None]
    for i0 in range(0, n, CHUNK):
        m = min(CHUNK, n - i0)
        counter = np.arange(i0 * width, (i0 + m) * width, width, dtype=np.uint64) + offsets
        z = counter * np.uint64(_GOLDEN) + s0
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        yield i0, (z >> np.uint64(11)).astype(np.float64) * _INV_2_53


def _at(i, *arrays):
    return tuple(float(arr[i]) for arr in arrays)


def banach_sweep(a, b, c, k, n, seed, tag, scale, slack):
    """Search for a violation of  d(F(x,y), F(u,v)) <= (k/2) * [d(x,u) + d(y,v)]
    over n random comparable quadruples.

    Returns (found, checked, x, y, u, v, lhs, rhs).
    """
    import numpy as np

    with np.errstate(all="ignore"):
        for i0, (r1, r2, r3, r4) in _chunks(seed, tag, n, 4):
            x = (2.0 * r1 - 1.0) * scale
            v = (2.0 * r2 - 1.0) * scale
            u = x - r3 * scale
            y = v - r4 * scale
            lhs = np.abs((a * x - b * y) / c - (a * u - b * v) / c)
            rhs = 0.5 * k * (np.abs(x - u) + np.abs(y - v))
            bad = lhs > rhs + slack * np.where(rhs > 1.0, rhs, 1.0)
            i = int(bad.argmax())
            if bad[i]:
                return (1, i0 + i + 1) + _at(i, x, y, u, v, lhs, rhs)
    return (0, n, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def band_sweep(a, b, c, eps, delta, n, seed, tag, scale, mode, symmetric, slack):
    """Meir-Keeler band search: quadruples with half-sum in [eps, eps + delta).

    mode 0 draws a random split of the half-sum across the two coordinates,
    mode 1 pins x == u (all mass on the second coordinate), mode 2 pins y == v.
    The half-sum is re-derived from the constructed coordinates and checked
    against the band, so edge rounding can only drop a draw, never let an
    out-of-band quadruple through.

    A draw violates the condition when the conclusion quantity (coordinate
    image distance, or the averaged pair of image distances when symmetric)
    reaches eps + slack * max(1, eps).

    Returns (found, hits, x, y, u, v, half, lhs).
    """
    import numpy as np

    hits = 0
    hi = eps + delta
    thresh = eps + slack * (eps if eps > 1.0 else 1.0)
    with np.errstate(all="ignore"):
        for _, r in _chunks(seed, tag, n, 4 if mode == 0 else 3):
            h = eps + r[0] * delta
            if mode == 0:
                p = 2.0 * h * r[3]
                q = 2.0 * h - p
            elif mode == 1:
                p = 0.0
                q = 2.0 * h
            else:
                p = 2.0 * h
                q = 0.0
            x = (2.0 * r[1] - 1.0) * scale
            v = (2.0 * r[2] - 1.0) * scale
            u = x - p
            y = v - q
            half = 0.5 * (np.abs(x - u) + np.abs(y - v))
            in_band = (half >= eps) & (half < hi)
            lhs = np.abs((a * x - b * y) / c - (a * u - b * v) / c)
            if symmetric:
                lhs = 0.5 * (lhs + np.abs((a * y - b * x) / c - (a * v - b * u) / c))
            bad = in_band & (lhs >= thresh)
            i = int(bad.argmax())
            if bad[i]:
                hits += int(np.count_nonzero(in_band[:i + 1]))
                return (1, hits) + _at(i, x, y, u, v, half, lhs)
            hits += int(np.count_nonzero(in_band))
    return (0, hits, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def strict_sweep(a, b, c, n, seed, tag, scale, slack):
    """Strict contraction of the pair map under the product metric:
    d2(T(Y), T(V)) < d2(Y, V) over strictly comparable distinct pairs.

    Equality within slack counts as a violation (nonexpansive maps must be
    flagged), so this check errs on the strict side of the inequality.

    Returns (found, checked, x, y, u, v, d2_before, d2_after).
    """
    import numpy as np

    checked = 0
    with np.errstate(all="ignore"):
        for _, (r1, r2, r3, r4) in _chunks(seed, tag, n, 4):
            x = (2.0 * r1 - 1.0) * scale
            v = (2.0 * r2 - 1.0) * scale
            u = x - r3 * scale
            y = v - r4 * scale
            d2yv = 0.5 * (np.abs(x - u) + np.abs(y - v))
            distinct = ~(d2yv <= 0.0)
            d2t = 0.5 * (np.abs((a * x - b * y) / c - (a * u - b * v) / c)
                         + np.abs((a * y - b * x) / c - (a * v - b * u) / c))
            bad = distinct & (d2t >= d2yv - slack * np.where(d2yv > 1.0, d2yv, 1.0))
            i = int(bad.argmax())
            if bad[i]:
                checked += int(np.count_nonzero(distinct[:i + 1]))
                return (1, checked) + _at(i, x, y, u, v, d2yv, d2t)
            checked += int(np.count_nonzero(distinct))
    return (0, checked, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
