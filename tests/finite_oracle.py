"""Independent brute-force verdicts for tabulated finite instances.

Deliberately written as plain quadruple loops over the raw JSON matrices,
straight from the definitions, sharing no code with the library. The
library's exhaustive checkers must agree with these verdicts exactly.
"""

from fractions import Fraction

HOLDS = "holds_on_samples"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


def _load(doc):
    n = len(doc["elements"])
    dist = [[Fraction(v) for v in row] for row in doc["distance"]]
    return n, dist, doc["leq"], doc["F"]


def oracle_mixed_monotone(doc):
    n, dist, leq, F = _load(doc)
    for i1 in range(n):
        for i2 in range(n):
            if not leq[i1][i2]:
                continue
            for w in range(n):
                if not leq[F[i1][w]][F[i2][w]]:
                    return FAILS
                if not leq[F[w][i2]][F[w][i1]]:
                    return FAILS
    return HOLDS


def _comparable_quadruples(n, leq):
    for ix in range(n):
        for iu in range(n):
            if not leq[iu][ix]:
                continue
            for iy in range(n):
                for iv in range(n):
                    if leq[iy][iv]:
                        yield ix, iy, iu, iv


def oracle_pair_map_monotone(doc):
    """F(u, v) <= F(x, y) on every comparable quadruple (u <= x, y <= v):
    the pair map is monotone in the product order."""
    n, dist, leq, F = _load(doc)
    for ix, iy, iu, iv in _comparable_quadruples(n, leq):
        if not leq[F[iu][iv]][F[ix][iy]]:
            return FAILS
    return HOLDS


def oracle_banach(doc, k):
    n, dist, leq, F = _load(doc)
    k = Fraction(k)
    for ix, iy, iu, iv in _comparable_quadruples(n, leq):
        lhs = dist[F[ix][iy]][F[iu][iv]]
        rhs = k * (dist[ix][iu] + dist[iy][iv]) / 2
        if lhs > rhs:
            return FAILS
    return HOLDS


def oracle_banded(doc, eps, delta, symmetric):
    n, dist, leq, F = _load(doc)
    eps = Fraction(eps)
    delta = Fraction(delta)
    hits = 0
    verdict = HOLDS
    for ix, iy, iu, iv in _comparable_quadruples(n, leq):
        half = (dist[ix][iu] + dist[iy][iv]) / 2
        if not (eps <= half < eps + delta):
            continue
        hits += 1
        lhs = dist[F[ix][iy]][F[iu][iv]]
        if symmetric:
            lhs = (lhs + dist[F[iy][ix]][F[iv][iu]]) / 2
        if lhs >= eps:
            verdict = FAILS
    if verdict == FAILS:
        return FAILS
    return HOLDS if hits else INCONCLUSIVE


def oracle_banded_grid(doc, eps_grid, delta_rule, symmetric):
    """Grid semantics of the library checkers: any violation anywhere fails;
    otherwise inconclusive only when no band on the whole grid was hit."""
    hits_any = False
    for eps in eps_grid:
        v = oracle_banded(doc, eps, delta_rule(Fraction(eps)), symmetric)
        if v == FAILS:
            return FAILS
        if v == HOLDS:
            hits_any = True
    return HOLDS if hits_any else INCONCLUSIVE


def oracle_strict(doc):
    n, dist, leq, F = _load(doc)
    pairs = 0
    for ix, iy, iu, iv in _comparable_quadruples(n, leq):
        before = (dist[ix][iu] + dist[iy][iv]) / 2
        if before == 0:
            continue
        pairs += 1
        after = (dist[F[ix][iy]][F[iu][iv]] + dist[F[iy][ix]][F[iv][iu]]) / 2
        if after >= before:
            return FAILS
    return HOLDS if pairs else INCONCLUSIVE


def oracle_monotone_first_violation(doc):
    """Enumeration semantics of the exhaustive mixed-monotone check: walk the
    comparable argument pairs lo <= hi in index order, each with every w, and
    return (triples walked up to and including the first violation, the
    violated clause's (x, y, u, v) indices: (hi, w, lo, w) for the first
    argument, (w, lo, w, hi) for the second), or (all triples, None)."""
    n, dist, leq, F = _load(doc)
    walked = 0
    for lo in range(n):
        for hi in range(n):
            if not leq[lo][hi]:
                continue
            for w in range(n):
                walked += 1
                if not leq[F[lo][w]][F[hi][w]]:
                    return walked, (hi, w, lo, w)
                if not leq[F[w][hi]][F[w][lo]]:
                    return walked, (w, lo, w, hi)
    return walked, None


def oracle_banach_first_violation(doc, k):
    """Enumeration semantics of the exhaustive banach_k check: (comparable
    quadruples walked in (x, u, y, v) index order up to and including the
    first violation, that quadruple as (x, y, u, v) indices), or (all of
    them, None)."""
    n, dist, leq, F = _load(doc)
    k = Fraction(k)
    walked = 0
    for ix, iy, iu, iv in _comparable_quadruples(n, leq):
        walked += 1
        if dist[F[ix][iy]][F[iu][iv]] > k * (dist[ix][iu] + dist[iy][iv]) / 2:
            return walked, (ix, iy, iu, iv)
    return walked, None


def oracle_strict_first_violation(doc):
    """Enumeration semantics of the exhaustive strict check: as
    oracle_banach_first_violation, over the quadruples with a positive
    half-sum only."""
    n, dist, leq, F = _load(doc)
    walked = 0
    for ix, iy, iu, iv in _comparable_quadruples(n, leq):
        before = (dist[ix][iu] + dist[iy][iv]) / 2
        if before <= 0:
            continue
        walked += 1
        if (dist[F[ix][iy]][F[iu][iv]] + dist[F[iy][ix]][F[iv][iu]]) / 2 >= before:
            return walked, (ix, iy, iu, iv)
    return walked, None


def oracle_delta_curve(doc, eps, cap):
    """Exact delta(eps) of the symmetric condition: the smallest violating
    half-sum >= eps, less eps, capped at cap (cap when nothing violates)."""
    n, dist, leq, F = _load(doc)
    eps = Fraction(eps)
    gaps = [Fraction(cap)]
    for ix, iy, iu, iv in _comparable_quadruples(n, leq):
        half = (dist[ix][iu] + dist[iy][iv]) / 2
        lhs = (dist[F[ix][iy]][F[iu][iv]] + dist[F[iy][ix]][F[iv][iu]]) / 2
        if half >= eps and lhs >= eps:
            gaps.append(half - eps)
    return float(min(gaps))


def oracle_band_first_violation(doc, eps, delta, symmetric):
    """Enumeration semantics of one exhaustive banded check: walk the
    comparable quadruples in (x, u, y, v) index order and return (in-band
    quadruples up to and including the first violation, that quadruple as
    (x, y, u, v) indices), or (all in-band quadruples, None). delta may be
    float('inf'), which leaves the band open above."""
    n, dist, leq, F = _load(doc)
    eps = Fraction(eps)
    hits = 0
    for ix, iy, iu, iv in _comparable_quadruples(n, leq):
        half = (dist[ix][iu] + dist[iy][iv]) / 2
        if half < eps or (delta != float("inf") and half >= eps + Fraction(delta)):
            continue
        hits += 1
        lhs = dist[F[ix][iy]][F[iu][iv]]
        if symmetric:
            lhs = (lhs + dist[F[iy][ix]][F[iv][iu]]) / 2
        if lhs >= eps:
            return hits, (ix, iy, iu, iv)
    return hits, None


def oracle_orbit_end(doc, start, max_iter):
    """Where Picard iteration of T(x, y) = (F[x][y], F[y][x]) takes the index
    pair start within max_iter steps: the first coupled fixed point among
    Z_0 .. Z_max_iter, as an index pair; else "cycle" when one of them
    repeats an earlier one; else "max_iterations"."""
    F = doc["F"]
    orbit = [tuple(start)]
    while True:
        x, y = orbit[-1]
        if (F[x][y], F[y][x]) == (x, y):
            return x, y
        if len(orbit) > max_iter:
            return "max_iterations"
        orbit.append((F[x][y], F[y][x]))
        if orbit[-1] in orbit[:-1]:
            return "cycle"


def oracle_audit(doc):
    """The audit_space report of a finite space, as JSON: every point, every
    pair i < j and every triple, in index order, with the first
    counterexample of each axiom, checked with zero tolerance. A point that
    is not below itself has no order relation with itself, so its leq_xx is
    "INCOMPARABLE"."""
    els = doc["elements"]
    n = len(els)
    dist = [[Fraction(v) for v in row] for row in doc["distance"]]
    leq = doc["leq"]
    points = range(n)
    pairs = [(i, j) for i in points for j in points if i < j]
    triples = [(i, j, k) for i in points for j in points for k in points]

    def first(witnesses):
        w = next(witnesses, None)
        return None if w is None else {k: str(v) if isinstance(v, Fraction) else v
                                       for k, v in w.items()}

    found = [
        ("metric_identity", n, first(
            {"x": els[i], "d_xx": dist[i][i]} for i in points if dist[i][i] != 0)),
        ("order_reflexive", n, first(
            {"x": els[i], "leq_xx": "INCOMPARABLE"} for i in points if not leq[i][i])),
        ("metric_nonnegative", len(pairs), first(
            {"x": els[i], "y": els[j], "d_xy": dist[i][j]}
            for i, j in pairs if dist[i][j] < 0)),
        ("metric_symmetry", len(pairs), first(
            {"x": els[i], "y": els[j], "d_xy": dist[i][j], "d_yx": dist[j][i]}
            for i, j in pairs if dist[i][j] != dist[j][i])),
        ("order_antisymmetric", len(pairs), first(
            {"x": els[i], "y": els[j]} for i, j in pairs if leq[i][j] and leq[j][i])),
        ("metric_triangle", len(triples), first(
            {"x": els[i], "y": els[j], "z": els[k],
             "d_xz": dist[i][k], "d_xy": dist[i][j], "d_yz": dist[j][k]}
            for i, j, k in triples if dist[i][k] > dist[i][j] + dist[j][k])),
        ("order_transitive", len(triples), first(
            {"x": els[i], "y": els[j], "z": els[k]}
            for i, j, k in triples if leq[i][j] and leq[j][k] and not leq[i][k])),
    ]
    return {
        "space": doc["description"],
        "passed": all(w is None for _, _, w in found),
        "exhaustive": True,
        "axioms": [{"name": name, "passed": w is None, "checks": checks, "counterexample": w}
                   for name, checks, w in found],
    }
