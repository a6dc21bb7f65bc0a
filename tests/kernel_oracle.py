"""Scalar reference for the sweep kernels in ``coupledfp.kernels``.

It lives with the tests, outside the package, as the oracle that the numpy
kernels must match bit for bit (same RNG stream, same arithmetic, same
evaluation order, same returned tuple). It steps the splitmix64 state one draw
at a time, the plainest statement of the stream the kernels vectorize. Any
semantic change to a sweep must be made here too.

All sweeps draw comparable quadruples (x >= u, y <= v) and stop at the first
violation, except band_sweep_smallest, the delta curve's band search, which
stops at the first block of draws that holds one; monotone_sweep draws the
mixed-monotone check's argument triples. Floats only; exact (rational) spaces
are handled elsewhere.
"""

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2_53 = 1.0 / 9007199254740992.0  # 2^-53


def _mix64(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream_seed(seed, tag):
    """Initial splitmix64 state for the (seed, tag) stream."""
    return _mix64((seed & _MASK64) ^ ((tag & _MASK64) * _GOLDEN & _MASK64))


def _half(s):
    # half a sum of two distances; 5e-324, the one positive float that
    # halves to 0.0, stays whole (spaces._half_sum)
    return s if s == 5e-324 else 0.5 * s


def _next_unif(state):
    # splitmix64 step, then map the top 53 bits to [0, 1)
    state = (state + _GOLDEN) & _MASK64
    z = _mix64(state)
    return state, (z >> 11) * _INV_2_53


def rand_doubles(seed, tag, n):
    """The raw uniform stream; the tests compare the kernels' stream against it."""
    state = stream_seed(seed, tag)
    out = []
    for _ in range(n):
        state, r = _next_unif(state)
        out.append(r)
    return out


def banach_sweep(a, b, c, k, n, seed, tag, scale, slack):
    """Search for a violation of  d(F(x,y), F(u,v)) <= (k/2) * [d(x,u) + d(y,v)]
    over n random comparable quadruples.

    Returns (found, checked, x, y, u, v, lhs, rhs).
    """
    state = stream_seed(seed, tag)
    for i in range(n):
        state, r1 = _next_unif(state)
        state, r2 = _next_unif(state)
        state, r3 = _next_unif(state)
        state, r4 = _next_unif(state)
        x = (2.0 * r1 - 1.0) * scale
        v = (2.0 * r2 - 1.0) * scale
        p = r3 * scale
        q = r4 * scale
        u = x - p
        y = v - q
        fxy = (a * x - b * y) / c
        fuv = (a * u - b * v) / c
        lhs = abs(fxy - fuv)
        rhs = 0.5 * k * (abs(x - u) + abs(y - v))
        m = rhs if rhs > 1.0 else 1.0
        if lhs > rhs + slack * m:
            return (1, i + 1, x, y, u, v, lhs, rhs)
    return (0, n, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _band_draws(a, b, c, eps, delta, n, seed, tag, scale, mode, symmetric, slack):
    """The n draws of the Meir-Keeler band search: quadruples with half-sum
    in [eps, eps + delta).

    mode 0 draws a random split of the half-sum across the two coordinates,
    mode 1 pins x == u (all mass on the second coordinate), mode 2 pins y == v.
    The half-sum is re-derived from the constructed coordinates and checked
    against the band, so edge rounding can only drop a draw, never let an
    out-of-band quadruple through.

    A draw violates the condition when the conclusion quantity (coordinate
    image distance, or the averaged pair of image distances when symmetric)
    reaches eps + slack * max(1, eps).

    Yields, per draw, None for a draw outside the band, else
    (x, y, u, v, half, lhs, violates).
    """
    state = stream_seed(seed, tag)
    hi = eps + delta
    m = eps if eps > 1.0 else 1.0
    thresh = eps + slack * m
    for _ in range(n):
        state, r1 = _next_unif(state)
        state, r2 = _next_unif(state)
        state, r3 = _next_unif(state)
        h = eps + r1 * delta
        if mode == 0:
            state, r4 = _next_unif(state)
            p = 2.0 * h * r4
            q = 2.0 * h - p
        elif mode == 1:
            p = 0.0
            q = 2.0 * h
        else:
            p = 2.0 * h
            q = 0.0
        x = (2.0 * r2 - 1.0) * scale
        v = (2.0 * r3 - 1.0) * scale
        u = x - p
        y = v - q
        dxu = abs(x - u)
        dyv = abs(y - v)
        half = _half(dxu + dyv)
        if not (half >= eps and half < hi):
            yield None
            continue
        fxy = (a * x - b * y) / c
        fuv = (a * u - b * v) / c
        lhs = abs(fxy - fuv)
        if symmetric:
            fyx = (a * y - b * x) / c
            fvu = (a * v - b * u) / c
            lhs = _half(lhs + abs(fyx - fvu))
        yield x, y, u, v, half, lhs, lhs >= thresh


def band_sweep(a, b, c, eps, delta, n, seed, tag, scale, mode, symmetric, slack):
    """The band search of _band_draws to its first violation.

    Returns (found, hits, x, y, u, v, half, lhs).
    """
    hits = 0
    for draw in _band_draws(a, b, c, eps, delta, n, seed, tag, scale, mode, symmetric, slack):
        if draw is None:
            continue
        hits += 1
        if draw[-1]:
            return (1, hits) + draw[:-1]
    return (0, hits, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def band_sweep_smallest(a, b, c, eps, delta, n, seed, tag, scale, mode, symmetric, slack, block):
    """The band search of _band_draws in blocks of block draws, the delta
    curve's rule: the violation with the smallest half-sum in the first block
    that holds one (the earliest draw on ties), with the in-band draws up to
    the end of that block.

    Returns (found, hits, x, y, u, v, half, lhs).
    """
    hits = 0
    best = None
    draws = _band_draws(a, b, c, eps, delta, n, seed, tag, scale, mode, symmetric, slack)
    for j, draw in enumerate(draws, 1):
        if draw is not None:
            hits += 1
            if draw[-1] and (best is None or draw[4] < best[4]):
                best = draw[:-1]
        if best is not None and (j % block == 0 or j == n):
            return (1, hits) + best
    return (0, hits, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def strict_sweep(a, b, c, n, seed, tag, scale, slack):
    """Strict contraction of the pair map under the product metric:
    d2(T(Y), T(V)) < d2(Y, V) over strictly comparable distinct pairs.

    Equality within slack counts as a violation (nonexpansive maps must be
    flagged), so this check errs on the strict side of the inequality.

    Returns (found, checked, x, y, u, v, d2_before, d2_after).
    """
    state = stream_seed(seed, tag)
    checked = 0
    for _ in range(n):
        state, r1 = _next_unif(state)
        state, r2 = _next_unif(state)
        state, r3 = _next_unif(state)
        state, r4 = _next_unif(state)
        x = (2.0 * r1 - 1.0) * scale
        v = (2.0 * r2 - 1.0) * scale
        p = r3 * scale
        q = r4 * scale
        u = x - p
        y = v - q
        dxu = abs(x - u)
        dyv = abs(y - v)
        d2yv = _half(dxu + dyv)
        if d2yv <= 0.0:
            continue
        checked += 1
        fxy = (a * x - b * y) / c
        fuv = (a * u - b * v) / c
        fyx = (a * y - b * x) / c
        fvu = (a * v - b * u) / c
        d2t = _half(abs(fxy - fuv) + abs(fyx - fvu))
        m = d2yv if d2yv > 1.0 else 1.0
        if d2t >= d2yv - slack * m:
            return (1, checked, x, y, u, v, d2yv, d2t)
    return (0, checked, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def monotone_sweep(f, n, seed, tag, scale):
    """The kernel lane's mixed-monotone check on the scalar map f: trial t
    draws a, b and w in the sampling box, orders a and b as lo <= hi (a pair
    that neither order relates is skipped) and tests f(lo, w) <= f(hi, w) on
    even t, f(w, hi) <= f(w, lo) on odd t, to the first violation; a NaN
    image violates.

    Returns (found, trials up to and including the violation, comparable
    trials counted, x, y, u, v, image at the lower argument, image at the
    upper one), with the witness in the check's slots: (hi, w, lo, w) on
    even t, (w, lo, w, hi) on odd t.
    """
    state = stream_seed(seed, tag)
    used = 0
    for t in range(n):
        state, r1 = _next_unif(state)
        state, r2 = _next_unif(state)
        state, r3 = _next_unif(state)
        a = (2.0 * r1 - 1.0) * scale
        b = (2.0 * r2 - 1.0) * scale
        w = (2.0 * r3 - 1.0) * scale
        if a <= b:
            lo, hi = a, b
        elif b <= a:
            lo, hi = b, a
        else:
            continue
        used += 1
        if t % 2 == 0:
            f_lo, f_hi = f(lo, w), f(hi, w)
            if not f_lo <= f_hi:
                return (1, t + 1, used, hi, w, lo, w, f_lo, f_hi)
        else:
            f_lo, f_hi = f(w, lo), f(w, hi)
            if not f_hi <= f_lo:
                return (1, t + 1, used, w, lo, w, hi, f_lo, f_hi)
    return (0, n, used, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
