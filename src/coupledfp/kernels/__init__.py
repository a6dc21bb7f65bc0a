"""Sweep kernels: the banach, band, strict and mixed-monotone checks of a
vectorized operator on the real line (sampling box: the space's
sample_radius).

Every sweep draws comparable quadruples (x >= u, y <= v) from a splitmix64
stream and stops at the first violation, except the delta curve's band
search: it draws in fixed blocks of CHUNK // 4 draws, stops at the first
block that holds a violation and reports the one of smallest half-sum in
that block (the earliest draw on ties), with the block's in-band draws
counted as hits. The stream is counter based: draw j
(from 0) of the (seed, tag) stream is mix64(s0 + (j + 1) * GOLDEN) with
s0 = stream_seed(seed, tag), so a sweep builds a chunk of quadruples as numpy
arrays and runs the condition's test from its definition in ``operators``
on them (op.apply and space.distance take whole arrays). All sweeps share
one row loop, _sweeps: each row is a stream with its own parameters, the
rows are the rows of one array per pass, and a row drops out at its first
violation. banach_sweep and strict_sweep are one-row calls with the box
draw, monotone_sweep one with the mixed-monotone trials' draw; the band
search runs one row per band (_band_sweeps), so the banded checks and the
delta curve make one batched sweep per phase over their eps grid. A block's
size does not depend on how many rows share the call, so a band's curve
result is the one it gets alone.

On F(x, y) = (a*x - b*y)/c the results are bit-identical to the scalar
reference in tests/kernel_oracle.py, the tests' oracle: the same stream, the
same IEEE operations in the same order (numpy elementwise arithmetic does not
fuse multiply-adds), the same results. Only NaN differs on purpose: it
violates the condition tests, while the reference lets it through, except
in monotone_sweep, where both count a NaN image a violation.

The module also holds the package's seed policy: every seeded draw starts
from stream_seed(seed, _tag(base)), one stream per consumer, with the base
from the one table _BASES; a sampler or random.Random is seeded with that
state cut to 31 bits (_sampler_seed).

numpy and the rest of the package are imported on the first sweep, never at
import, so commands that make no sweep do not pay numpy's import time or
memory, and every module can read the seed policy.
"""

KERNEL_BACKEND = "numpy"
CHUNK = 8192  # draws evaluated per array pass; bounds memory and early-exit waste
DEFAULT_SCALE = 10.0  # sampling radius of a real-line space that declares none

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 1.0 / 9007199254740992.0  # 2^-53

# the top byte of each seeded consumer's tags; 1-6 are the sweeps' streams
_BASES = {"banach_k": 1, "strict_contraction": 2, "samet_mk": 3, "symmetric_mk": 4,
          "curve": 5, "mixed_monotone": 6, "lipschitz": 7, "starts": 8, "comparability": 9,
          "audit_points": 10, "audit_pairs": 11, "audit_triples": 12}


def _mix64(z):
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def stream_seed(seed, tag):
    """Initial splitmix64 state for the (seed, tag) stream."""
    return _mix64((seed & _MASK64) ^ ((tag & _MASK64) * _GOLDEN & _MASK64))


def _tag(base, eps_idx=0, mode=0, probe=0):
    return ((base & 0xFF) << 56) ^ ((probe & 0xFFFFFF) << 32) ^ ((eps_idx & 0xFFFF) << 8) ^ (mode & 0xFF)


def _sampler_seed(seed, consumer):
    """The space.sampler or random.Random seed of a consumer named in _BASES."""
    return stream_seed(seed, _tag(_BASES[consumer])) & 0x7FFFFFFF


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


def _sweeps(op, cid, rows, seed, n, width, draw, block=0):
    """The first violation of the condition cid on each row (tag, args) of
    rows, in n draws of the row's (seed, tag) stream: per row, in the order
    of rows, (1, quadruples counted up to and including the violation, its x,
    y, u, v and two measured values), or (0, quadruples counted, six zeros).
    p, the row's tuple of floats cond.bind(op.space, *args), is passed to
    draw(uniforms, p, i0), which makes each draw's width uniforms into a
    comparable quadruple (x, y, u, v), with i0 the pass's first draw index.

    The rows' streams run side by side: each array pass evaluates the next
    max(1, CHUNK // B) draws of the B rows still without a violation as the
    rows of (B, m) arrays, with p as columns, which op.apply and
    space.distance take elementwise as they would a single stream. A row's
    draws depend only on (seed, tag), so its result depends neither on the
    other rows nor on where the passes split its stream.

    With a block size, a pass evaluates the next block draws of every live
    row instead, whatever B is, and a row leaves at the first block that
    holds a violation, with the violation of smallest first measured value in
    that block (the earliest draw on ties); its count then runs to the end of
    that block. The rows' results depend on the fixed block boundaries only,
    so again not on the other rows: at most CHUNK // min(block, n) rows share
    a pass, which keeps a pass within CHUNK draws.
    """
    import numpy as np

    from ..operators import _CONDITIONS, _measure

    group = max(1, CHUNK // (min(block, n) or 1)) if block else len(rows)
    if len(rows) > group:
        return [res for g in range(0, len(rows), group)
                for res in _sweeps(op, cid, rows[g:g + group], seed, n, width, draw, block)]
    cond = _CONDITIONS[cid]
    states = np.array([[stream_seed(seed, tag)] for tag, _ in rows], dtype=np.uint64)
    params = np.array([cond.bind(op.space, *args) for _, args in rows], dtype=np.float64)
    live = list(range(len(rows)))
    results = [None] * len(rows)
    counts = [0] * len(rows)
    i0 = 0
    with np.errstate(all="ignore"):
        while live and i0 < n:
            m = min(block or max(1, CHUNK // len(live)), n - i0)
            p = tuple(params.T[:, :, None])
            x, y, u, v = draw(_uniforms(states, i0, m, width), p, i0)
            i0 += m
            counted, first, second, holds = _measure(op, cond, p, x, y, u, v)
            bad = counted & ~holds
            found = bad.any(axis=1).tolist()
            if block:  # the smallest violating first value, the earliest on ties
                picks = np.where(bad, first, np.inf).argmin(axis=1).tolist()
            else:
                picks = bad.argmax(axis=1).tolist()
            for k, b in enumerate(live):
                i = picks[k]
                end = m - 1 if block or not found[k] else i
                counts[b] += (end + 1 if counted is True
                              else int(np.count_nonzero(counted[k, :end + 1])))
                if found[k]:
                    results[b] = (1, counts[b]) + tuple(float(arr[k, i]) for arr in
                                                        (x, y, u, v, first, second))
            if any(found):
                keep = [k for k, hit in enumerate(found) if not hit]
                live = [live[k] for k in keep]
                states, params = states[keep], params[keep]
    return [res or (0, count, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
            for res, count in zip(results, counts)]


def _box_sweep(op, cid, args, seed, tag, n):
    """cid's sweep of n quadruples with x and v uniform in the sampling box
    and u and y up to one box radius below them."""
    scale = float(op.space.sample_radius or DEFAULT_SCALE)

    def draw(r, p, i0):
        x, v = (2.0 * r[:2] - 1.0) * scale
        return x, v - r[3] * scale, x - r[2] * scale, v

    return _sweeps(op, cid, [(tag, args)], seed, n, 4, draw)[0]


def banach_sweep(op, k, seed, tag, n):
    """Search for a violation of  d(F(x,y), F(u,v)) <= (k/2) * [d(x,u) + d(y,v)]
    over n random comparable quadruples.

    Returns (found, checked, x, y, u, v, lhs, rhs).
    """
    return _box_sweep(op, "banach_k", (k,), seed, tag, n)


def _band_sweeps(op, bands, seed, n, mode, symmetric, smallest=False):
    """Meir-Keeler band search on each band (eps, delta, tag) of bands, with
    the same n, mode and symmetric: quadruples with half-sum in
    [eps, eps + delta), one row per band of one _sweeps call.

    A band stops at its first violation, or with smallest (the delta curve's
    rule) at the smallest half-sum of the first violating block of
    CHUNK // 4 draws (_sweeps).

    mode 0 draws a random split of the half-sum across the two coordinates,
    mode 1 pins x == u (all mass on the second coordinate), mode 2 pins y == v.
    The half-sum is re-derived from the constructed coordinates and checked
    against the band, so edge rounding can only drop a draw, never let an
    out-of-band quadruple through.

    A draw violates the condition unless its conclusion (coordinate image
    distance, averaged with the swapped one when symmetric) stays below the
    slackened eps.

    Returns one (found, hits, x, y, u, v, half, lhs) per band, in the order
    of bands.
    """
    scale = float(op.space.sample_radius or DEFAULT_SCALE)

    def draw(r, p, i0):
        lo, d = p[0], p[3]
        h = lo + r[0] * d
        if mode == 0:
            dx = 2.0 * h * r[3]
            dy = 2.0 * h - dx
        else:
            dx, dy = (0.0, 2.0 * h) if mode == 1 else (2.0 * h, 0.0)
        x, v = (2.0 * r[1:3] - 1.0) * scale
        return x, v - dy, x - dx, v

    rows = [(tag, (eps, delta)) for eps, delta, tag in bands]
    return _sweeps(op, "symmetric_mk" if symmetric else "samet_mk", rows, seed, n,
                   4 if mode == 0 else 3, draw, CHUNK // 4 if smallest else 0)


def strict_sweep(op, seed, tag, n):
    """Strict contraction of the pair map under the product metric:
    d2(T(Y), T(V)) < d2(Y, V) over strictly comparable distinct pairs.

    Equality within slack counts as a violation (nonexpansive maps must be
    flagged), so this check errs on the strict side of the inequality.

    Returns (found, checked, x, y, u, v, d2_before, d2_after).
    """
    return _box_sweep(op, "strict_contraction", (), seed, tag, n)


def monotone_sweep(op, seed, tag, n):
    """Search for a violation of mixed monotonicity, F(u, v) <= F(x, y),
    over n trials: trial t draws (a, b, w) uniform in the sampling box,
    orders a and b as lo <= hi and is the quadruple (hi, w, lo, w) on even t,
    (w, lo, w, hi) on odd t; a NaN image violates.

    Returns (found, checked, x, y, u, v, F(u, v), F(x, y)).
    """
    import numpy as np

    scale = float(op.space.sample_radius or DEFAULT_SCALE)

    def draw(r, p, i0):
        a, b, w = (2.0 * r - 1.0) * scale
        below = a <= b
        lo, hi = np.where(below, a, b), np.where(below, b, a)
        even = np.arange(i0, i0 + a.shape[1]) % 2 == 0
        return np.where(even, hi, w), np.where(even, w, lo), np.where(even, lo, w), np.where(even, w, hi)

    return _sweeps(op, "mixed_monotone", [(tag, ())], seed, n, 3, draw)[0]
