"""Sweep kernels: the banach, band and strict checks of a vectorized operator
on the real line (sampling box: the space's sample_radius), and the real
line's array twins of two sampled checks, the mixed-monotone check and the
comparability probe with the lattice bound.

Every sweep draws comparable quadruples (x >= u, y <= v) from a splitmix64
stream and stops at the first violation. The stream is counter based: draw j
(from 0) of the (seed, tag) stream is mix64(s0 + (j + 1) * GOLDEN) with
s0 = stream_seed(seed, tag), so a sweep builds a chunk of quadruples as numpy
arrays, evaluates the condition's shared predicate from ``operators`` on them
(op.apply and space.distance take whole arrays) and finds the chunk's first
violation with argmax over the violation mask. The band search also runs
several bands at once (_band_sweeps, which band_sweep calls with one band):
their streams are the rows of one array per pass, and a band drops out at its
first violation, so the banded checks and the delta curve make one batched
sweep per phase over their eps grid.

On F(x, y) = (a*x - b*y)/c the results are bit-identical to the scalar
reference in tests/kernel_oracle.py, the tests' oracle: the same stream, the
same IEEE operations in the same order (numpy elementwise arithmetic does not
fuse multiply-adds), the same returned tuple. Only NaN differs on purpose: it
violates the shared predicates, while the reference lets it through.

The twins take the space's own sampler points, not the stream: they run the
scalar check's trials on arrays, in the same order, and report the same
counts. Their callers read any witness back through the scalar callables.

numpy is imported on the first call, never at package import, so commands
that make no sweep do not pay its import time or memory.
"""

from ..operators import _banach_holds, _banded_conclusion, _half_k, _strict_holds, _with_slack
from ..spaces import _half_sum

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


def _uniforms(s0, i0, m, width):
    """The uniforms of draws i0 to i0 + m - 1 of the streams whose initial
    states are the uint64 array s0, of shape (B, 1): an array of shape
    (width, B, m), where [r, b] holds the r-th of the width consecutive values
    each draw consumes, for stream b's m draws."""
    import numpy as np

    offsets = np.arange(1, width + 1, dtype=np.uint64)[:, None, None]
    counter = np.arange(i0 * width, (i0 + m) * width, width, dtype=np.uint64) + offsets
    z = counter * np.uint64(_GOLDEN) + s0
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * _INV_2_53


def _chunks(seed, tag, n, width):
    """Yield the uniforms of each chunk of at most CHUNK draws.

    uniforms has shape (width, m): row r holds the r-th of the width
    consecutive stream values each draw consumes, for the chunk's m draws.
    """
    import numpy as np

    s0 = np.array([[stream_seed(seed, tag)]], dtype=np.uint64)
    for i0 in range(0, n, CHUNK):
        yield _uniforms(s0, i0, min(CHUNK, n - i0), width)[:, 0]


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
    return _band_sweeps(op, [(eps, delta, tag)], seed, n, mode, symmetric)[0]


def _band_sweeps(op, bands, seed, n, mode, symmetric):
    """band_sweep on each band (eps, delta, tag) of bands, with the same n,
    mode and symmetric: one list of band_sweep's tuples, bit for bit, in the
    order of bands.

    The bands' streams run side by side: each array pass evaluates the next
    max(1, CHUNK // B) draws of the B bands still without a violation as the
    rows of (B, m) arrays, which op.apply and space.distance take elementwise
    as they take a single stream's chunk. A band's draws depend only on
    (seed, tag), so its result depends neither on the other bands nor on
    where the passes split its stream.
    """
    import numpy as np

    space = op.space
    distance = space.distance
    scale = float(space.sample_radius or DEFAULT_SCALE)
    width = 4 if mode == 0 else 3
    # per live band: its stream state, and eps, delta, eps + delta and the slackened eps
    states = np.array([[stream_seed(seed, tag)] for _, _, tag in bands], dtype=np.uint64)
    params = np.array([(eps, delta, eps + delta, _with_slack(space, eps))
                       for eps, delta, _ in bands], dtype=np.float64)
    live = list(range(len(bands)))
    results = [None] * len(bands)
    hits = [0] * len(bands)
    i0 = 0
    with np.errstate(all="ignore"):
        while live and i0 < n:
            m = min(max(1, CHUNK // len(live)), n - i0)
            i0 += m
            lo, d, hi, thresh = params.T[:, :, None]
            r = _uniforms(states, i0 - m, m, width)
            h = lo + r[0] * d
            if mode == 0:
                p = 2.0 * h * r[3]
                q = 2.0 * h - p
            else:
                p, q = (0.0, 2.0 * h) if mode == 1 else (2.0 * h, 0.0)
            x, v = (2.0 * r[1:3] - 1.0) * scale
            u = x - p
            y = v - q
            half = _half_sum(space, distance(x, u) + distance(y, v))
            in_band = (half >= lo) & (half < hi)
            lhs = _banded_conclusion(op, x, y, u, v, symmetric)
            bad = in_band & ~(lhs < thresh)
            found = bad.any(axis=1).tolist()
            for k, b in enumerate(live):
                if not found[k]:
                    hits[b] += int(np.count_nonzero(in_band[k]))
                    continue
                i = int(bad[k].argmax())
                hits[b] += int(np.count_nonzero(in_band[k, :i + 1]))
                results[b] = (1, hits[b]) + tuple(float(arr[k, i])
                                                  for arr in (x, y, u, v, half, lhs))
            if any(found):
                rows = [k for k, hit in enumerate(found) if not hit]
                live = [live[k] for k in rows]
                if live:
                    states, params = states[rows], params[rows]
    return [res or (0, count, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
            for res, count in zip(results, hits)]


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
            before = _half_sum(space, space.distance(x, u) + space.distance(y, v))
            distinct = before > 0.0
            after, holds = _strict_holds(op, x, y, u, v, before)
            yield distinct, distinct & ~holds, (x, y, u, v, before, after)

    return _first_violation(chunks())


def _columns(pool, width):
    """The first len(pool) // width trials of width consecutive points each,
    as width float64 columns (column r holds point r of every trial), or
    None when a point is NaN: the scalar probe's PairPoint equality matches
    a NaN object with itself, which values on arrays cannot, so the callers
    of the twins run their scalar loop on such a pool."""
    import numpy as np

    trials = len(pool) // width
    flat = np.array(pool[:width * trials], dtype=np.float64)
    if np.isnan(flat).any():
        return None
    return flat.reshape(trials, width).T


def monotone_sweep(op, pool):
    """operators.check_mixed_monotone's trials on the real line: trial t
    takes (a, b, w) = pool[3t:3t + 3], skips a and b unless a <= b or
    b <= a, orders them as lo <= hi and tests F(lo, w) <= F(hi, w) on even
    t, F(w, hi) <= F(w, lo) on odd t, with op.apply on arrays; a NaN image
    violates. Returns (the first violating t, or the number of trials when
    none violates, and the comparable trials before it), or None for a pool
    with a NaN."""
    import numpy as np

    columns = _columns(pool, 3)
    if columns is None:
        return None
    a, b, w = columns
    below = a <= b
    comparable = below | (b <= a)
    lo, hi = np.where(below, a, b), np.where(below, b, a)
    bad = np.empty(a.size, dtype=bool)
    even, odd = slice(0, None, 2), slice(1, None, 2)
    with np.errstate(all="ignore"):
        bad[even] = ~np.less_equal(op.apply(lo[even], w[even]), op.apply(hi[even], w[even]))
        bad[odd] = ~np.less_equal(op.apply(w[odd], hi[odd]), op.apply(w[odd], lo[odd]))
    bad &= comparable
    t = int(bad.argmax())
    if not bad[t]:
        t = a.size
    return t, int(np.count_nonzero(comparable[:t]))


def _pairs_comparable(p1, p2, q1, q2):
    """Mask of (p1, p2) and (q1, q2) comparable in the product order:
    p1 <= q1 and q2 <= p2, or the reverse (spaces.product_leq)."""
    return ((p1 <= q1) & (q2 <= p2)) | ((q1 <= p1) & (p2 <= q2))


def lattice_comparability(pool):
    """uniqueness.probe_comparability's count on the real line with the
    lattice bound: trial t takes Y = (y1, y2) and V = (v1, v2) from
    pool[4t:4t + 4], drops Y == V, and counts Z = (max(y1, v1),
    min(y2, v2)) comparable to both. Returns (good, trials), as integers,
    or None for a pool with a NaN."""
    import numpy as np

    columns = _columns(pool, 4)
    if columns is None:
        return None
    y1, y2, v1, v2 = columns
    distinct = (y1 != v1) | (y2 != v2)
    z1, z2 = np.maximum(y1, v1), np.minimum(y2, v2)
    good = distinct & _pairs_comparable(z1, z2, y1, y2) & _pairs_comparable(z1, z2, v1, v2)
    return int(np.count_nonzero(good)), int(np.count_nonzero(distinct))
