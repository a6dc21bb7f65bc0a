"""Sweep kernels: the banach, band and strict checks of a vectorized operator
on the real line (sampling box: the space's sample_radius).

Every sweep draws comparable quadruples (x >= u, y <= v) from a splitmix64
stream and stops at the first violation. The stream is counter based: draw j
(from 0) of the (seed, tag) stream is mix64(s0 + (j + 1) * GOLDEN) with
s0 = stream_seed(seed, tag), so a sweep builds a chunk of quadruples as numpy
arrays, evaluates the condition's shared predicate from ``operators`` on them
(op.apply and space.distance take whole arrays) and finds the chunk's first
violation with argmax over the violation mask.

On F(x, y) = (a*x - b*y)/c the results are bit-identical to the scalar
reference in tests/kernel_oracle.py, the tests' oracle: the same stream, the
same IEEE operations in the same order (numpy elementwise arithmetic does not
fuse multiply-adds), the same returned tuple. Only NaN differs on purpose: it
violates the shared predicates, while the reference lets it through.

numpy is imported on the first sweep call, never at package import, so
commands that make no sweep do not pay its import time or memory.
"""

from ..operators import _banach_holds, _banded_conclusion, _half_k, _strict_holds, _with_slack

KERNEL_BACKEND = "numpy"
CHUNK = 8192  # draws evaluated per array pass; bounds memory and early-exit waste
DEFAULT_SCALE = 10.0  # sampling radius of a real-line space that declares none

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
    """Yield the uniforms of each chunk of at most CHUNK draws.

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
        yield (z >> np.uint64(11)).astype(np.float64) * _INV_2_53


def _box_quadruples(space, seed, tag, n):
    """Per chunk, (x, y, u, v) arrays: x and v uniform in the sampling box,
    u and y up to one box radius below them."""
    scale = float(space.sample_radius or DEFAULT_SCALE)
    for r1, r2, r3, r4 in _chunks(seed, tag, n, 4):
        x = (2.0 * r1 - 1.0) * scale
        v = (2.0 * r2 - 1.0) * scale
        yield x, v - r4 * scale, x - r3 * scale, v


def _first_violation(chunks):
    """Run a sweep's chunks of (counted mask or None for all, violation mask,
    the six measured arrays): (1, count up to and including the first
    violation, its measured values), or (0, total count, six zeros)."""
    import numpy as np

    count = 0
    with np.errstate(all="ignore"):
        for counted, bad, measured in chunks:
            i = int(bad.argmax())
            if bad[i]:
                count += i + 1 if counted is None else int(np.count_nonzero(counted[:i + 1]))
                return (1, count) + tuple(float(arr[i]) for arr in measured)
            count += bad.size if counted is None else int(np.count_nonzero(counted))
    return (0, count, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def banach_sweep(op, k, seed, tag, n):
    """Search for a violation of  d(F(x,y), F(u,v)) <= (k/2) * [d(x,u) + d(y,v)]
    over n random comparable quadruples.

    Returns (found, checked, x, y, u, v, lhs, rhs).
    """
    space = op.space
    half_k = _half_k(space, k)

    def chunks():
        for x, y, u, v in _box_quadruples(space, seed, tag, n):
            lhs, rhs, holds = _banach_holds(op, half_k, x, y, u, v,
                                            space.distance(x, u), space.distance(y, v))
            yield None, ~holds, (x, y, u, v, lhs, rhs)

    return _first_violation(chunks())


def band_sweep(op, eps, delta, seed, tag, n, mode, symmetric):
    """Meir-Keeler band search: quadruples with half-sum in [eps, eps + delta).

    mode 0 draws a random split of the half-sum across the two coordinates,
    mode 1 pins x == u (all mass on the second coordinate), mode 2 pins y == v.
    The half-sum is re-derived from the constructed coordinates and checked
    against the band, so edge rounding can only drop a draw, never let an
    out-of-band quadruple through.

    A draw violates the condition unless its conclusion (coordinate image
    distance, averaged with the swapped one when symmetric) stays below the
    slackened eps.

    Returns (found, hits, x, y, u, v, half, lhs).
    """
    space = op.space
    distance = space.distance
    scale = float(space.sample_radius or DEFAULT_SCALE)
    hi = eps + delta
    thresh = _with_slack(space, eps)

    def chunks():
        for r in _chunks(seed, tag, n, 4 if mode == 0 else 3):
            h = eps + r[0] * delta
            if mode == 0:
                p = 2.0 * h * r[3]
                q = 2.0 * h - p
            else:
                p, q = (0.0, 2.0 * h) if mode == 1 else (2.0 * h, 0.0)
            x = (2.0 * r[1] - 1.0) * scale
            v = (2.0 * r[2] - 1.0) * scale
            u = x - p
            y = v - q
            half = (distance(x, u) + distance(y, v)) / 2
            in_band = (half >= eps) & (half < hi)
            lhs = _banded_conclusion(op, x, y, u, v, symmetric)
            yield in_band, in_band & ~(lhs < thresh), (x, y, u, v, half, lhs)

    return _first_violation(chunks())


def strict_sweep(op, seed, tag, n):
    """Strict contraction of the pair map under the product metric:
    d2(T(Y), T(V)) < d2(Y, V) over strictly comparable distinct pairs.

    Equality within slack counts as a violation (nonexpansive maps must be
    flagged), so this check errs on the strict side of the inequality.

    Returns (found, checked, x, y, u, v, d2_before, d2_after).
    """
    space = op.space

    def chunks():
        for x, y, u, v in _box_quadruples(space, seed, tag, n):
            before = (space.distance(x, u) + space.distance(y, v)) / 2
            distinct = before > 0.0
            after, holds = _strict_holds(op, x, y, u, v, before)
            yield distinct, distinct & ~holds, (x, y, u, v, before, after)

    return _first_violation(chunks())
