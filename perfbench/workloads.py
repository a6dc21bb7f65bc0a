"""Seeded job lists for the three workloads, with the expected outcome of each job.

A job is one call a user would make: a ``coupledfp.cli.main([...])`` call
(``linear_cli``, ``finite_cli``) or the equivalent library calls
(``generic_api``). Every job carries a *model*: what a correct output looks
like, taken from a source that shares no code with the library (closed forms
for the linear family, Lipschitz bounds for the nonlinear maps, brute force
over the raw tables for finite posets).

Why these workloads: each routes the condition checkers through a different
evaluation lane, so every layer a later change may optimise does most of the
work in one workload and little or none in another.

  linear_cli   kernel lane: built-in linear operators; the sweep kernels do
               the verify/delta-curve work, sampled audit and admissible-start
               sampling run on the real line.
  generic_api  generic lane: user-defined operators without linear_coeffs,
               evaluated through Python callables; one R^2 space without an
               interpolate hook forces rejection sampling. No kernel calls.
  finite_cli   exhaustive lane: generated posets loaded from schema-1 JSON,
               exact Fraction arithmetic. No kernel calls, no generic lane.

Each workload is a fixed list of slots (operator class, or poset shape and
table family); the seed draws only coefficients and metric weights within a
slot. The real-line classes keep the mix of "holds" and "fails" verdicts, and
with it the early-exit versus full-budget work, the same on every seed.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

COMMANDS = ("solve", "verify", "delta-curve", "uniqueness", "audit-space")
EPS_GRID = (0.1, 1.0, 10.0)
TOL = 1e-10
MAX_ITER = 10000
UNIQUENESS_STARTS = 10
DELTA_CAP_FACTOR = 10.0
REAL_RADIUS = 10.0

# Per-workload --samples. The generic lane is ~20x slower per draw than the
# kernels, so it gets half the budget to keep a pass of its job list short.
SAMPLES = {"linear_cli": 2000, "generic_api": 1000, "finite_cli": 2000}

# The self-test's small size: the first SMALL_SLOTS problems of each
# workload at half the sample budget.
SMALL_SLOTS = 4
SMALL_DIVISOR = 2

WORKLOADS = ("linear_cli", "generic_api", "finite_cli")

HOLDS = "holds_on_samples"
FAILS = "fails"

CONDITION_ORDER_LIPSCHITZ = ("mixed_monotone", "banach_k", "samet_mk",
                             "symmetric_mk", "strict_contraction")


def delta_rule(eps):
    """The CLI's delta candidate: eps/8."""
    return eps / 8


@dataclass
class Model:
    """Expected outcome of every job on one problem.

    kind       "real" (coordinates are floats), "r2" (pairs of floats) or
               "finite" (element labels)
    verdicts   condition_id -> expected verdict, in the order verify emits them
    curve      eps -> (lo, hi) inclusive bounds on the delta-curve estimate
    fixed      finite only: the coupled fixed points, as label pairs (on the
               real line and R^2 the only one is the origin)
    limit      finite only: where Picard iteration from the default start ends
    exhaustive whether audit-space enumerates instead of sampling
    """

    kind: str
    verdicts: dict
    curve: dict
    fixed: frozenset = None
    limit: tuple = None
    exhaustive: bool = False


@dataclass
class Job:
    jid: int
    cmd: str
    label: str
    model: Model
    samples: int
    argv: list = field(default_factory=list)   # cli jobs
    problem: object = None                     # api jobs: a ProblemInstance
    seed: int = 0


# ---------------------------------------------------------------------------
# closed forms for F(x, y) = (a*x - b*y)/c
# ---------------------------------------------------------------------------

def linear_verdicts(a, b, c):
    """Verdicts of the CLI's verify report set, from the closed form.

    banach at the CLI's k = 2*max(a,b)/c (a probe just below 1 when that
    reaches 1); banded checks at delta = eps/8, where the x == u / y == v
    slices give d = 2*max(a,b)/c * half and the symmetric average is
    (a+b)/c * half; strict compares d2 after = (a+b)/c * d2 before.
    """
    m = max(a, b) / c
    s = (a + b) / c
    return {
        "mixed_monotone": HOLDS,
        "banach_k": HOLDS if 2 * m < 1 else FAILS,
        "samet_mk": FAILS if 2.25 * m >= 1 else HOLDS,
        "symmetric_mk": FAILS if 1.125 * s >= 1 else HOLDS,
        "strict_contraction": HOLDS if a + b < c else FAILS,
    }


def linear_margin(a, b, c):
    """Smallest relative distance of the verdict quantities from 1."""
    m = max(a, b) / c
    s = (a + b) / c
    return min(abs(q - 1) for q in (2 * m, 2.25 * m, 1.125 * s, s))


def curve_bounds(s, exact, eps_grid=EPS_GRID):
    """Bounds on the symmetric delta curve of a map whose symmetric
    conclusion is at most s * half (exact: equal to it).

    Below delta* = eps*(1/s - 1) no violation exists, so the estimate (which
    only moves up past violation-free probes) is at least delta*. With an
    exact closed form and targeted sampling every draw lands in the band, so
    a sliver above delta* is found almost surely: allow 5% overshoot.
    """
    out = {}
    for eps in eps_grid:
        cap = DELTA_CAP_FACTOR * eps
        if s >= 1:
            out[eps] = (0.0, 0.0) if exact else (0.0, cap)
            continue
        star = min(eps * (1 / s - 1), cap)
        lo = star * (1 - 1e-6)
        hi = min(cap, star * 1.05 + 1e-9 * eps) if exact else cap
        out[eps] = (lo, hi)
    return out


def linear_model(a, b, c):
    return Model(kind="real", verdicts=linear_verdicts(a, b, c),
                 curve=curve_bounds((a + b) / c, exact=True))


# Coefficient classes, far from every verdict boundary:
#   A  all five conditions hold
#   B  banach and samet fail, symmetric and strict hold (like samet_example)
#   C  non-contractive: everything but mixed monotonicity fails
def draw_linear(rng, cls):
    while True:
        c = round(rng.uniform(2.0, 6.0), 3)
        if cls == "A":
            s, w = rng.uniform(0.5, 0.6), rng.uniform(0.35, 0.65)
        elif cls == "B":
            s, w = rng.uniform(0.74, 0.8), rng.uniform(0.75, 0.85)
        else:
            s, w = rng.uniform(1.3, 1.6), rng.uniform(0.4, 0.6)
        a = round(w * s * c, 4)
        b = round((1 - w) * s * c, 4)
        if cls == "B" and rng.random() < 0.5:
            a, b = b, a
        if linear_margin(a, b, c) >= 0.08:
            return a, b, c


# ---------------------------------------------------------------------------
# linear_cli
# ---------------------------------------------------------------------------

# Class of each operator slot, interleaved so that a partial pass over the
# job list keeps roughly the full mix. Slots 0 and 1 are fixed built-ins.
LINEAR_SLOTS = ("B", "A", "A", "C", "A", "A", "B", "A", "A", "C", "A", "A")


def _parse_linear(name):
    inner = name[name.index("(") + 1:-1]
    return tuple(float(p) for p in inner.split(","))


def build_linear_cli(seed, workdir, small=False):
    rng = random.Random(f"linear_cli/{seed}")
    problems = []
    for slot, cls in enumerate(LINEAR_SLOTS[:SMALL_SLOTS] if small else LINEAR_SLOTS):
        if slot == 0:
            name, coeffs = "samet_example", (1.0, 3.0, 5.0)
        elif slot == 1:
            name, coeffs = "linear(1,1,4)", (1.0, 1.0, 4.0)
        else:
            a, b, c = draw_linear(rng, cls)
            name = f"linear({a!r},{b!r},{c!r})"
            coeffs = _parse_linear(name)
        problems.append((name, linear_model(*coeffs)))
    return _cli_jobs(problems, rng, workdir, _samples("linear_cli", small))


def _samples(workload, small):
    return SAMPLES[workload] // SMALL_DIVISOR if small else SAMPLES[workload]


def _cli_jobs(problems, rng, workdir, samples):
    jobs = []
    for name, model in problems:
        job_seed = rng.randrange(1 << 30)
        for cmd in COMMANDS:
            base = os.path.join(workdir, f"out{len(jobs)}")
            argv = [cmd, "--problem", name, "--samples", str(samples),
                    "--seed", str(job_seed), "--output", base]
            jobs.append(Job(jid=len(jobs), cmd=cmd, label=name, model=model,
                            samples=samples, argv=argv, seed=job_seed))
    return jobs


# ---------------------------------------------------------------------------
# generic_api
# ---------------------------------------------------------------------------

def _r2_space(radius=REAL_RADIUS):
    """R^2 with the componentwise order and the L1 metric, and no
    interpolate hook: banded checks fall back to rejection sampling and
    incomparable draws are common."""
    from coupledfp.spaces import INCOMPARABLE, SpaceModel

    def distance(p, q):
        return abs(p[0] - q[0]) + abs(p[1] - q[1])

    def leq(p, q):
        if p[0] <= q[0] and p[1] <= q[1]:
            return True
        if q[0] <= p[0] and q[1] <= p[1]:
            return False
        return INCOMPARABLE

    def sampler(count, seed):
        rnd = random.Random(seed)
        u = rnd.uniform
        return [(u(-radius, radius), u(-radius, radius)) for _ in range(count)]

    return SpaceModel(distance=distance, leq=leq, sampler=sampler,
                      description=f"R^2 (L1, componentwise order, box [-{radius}, {radius}]^2)",
                      kind="custom", sample_radius=radius)


def _real_bound(Y, V):
    # coordinatewise extremes give an upper bound in the mixed product order
    from coupledfp.spaces import PairPoint

    return PairPoint(max(Y.first, V.first), min(Y.second, V.second))


def _generic_problem(cf, family, a, b, c):
    """Build one user-defined problem; none carries linear_coeffs."""
    from coupledfp.operators import CoupledOperator
    from coupledfp.problems import ProblemInstance
    from coupledfp.spaces import PairPoint

    contractive = a + b < c
    if family == "r2":
        space = _r2_space()

        def apply(p, q):
            return ((a * p[0] - b * q[0]) / c, (a * p[1] - b * q[1]) / c)

        start = PairPoint((-1.0, -1.0), (1.0, 1.0)) if contractive else PairPoint((0.0, 0.0), (0.0, 0.0))
        bound = None
        desc = f"F(p,q) = ({a}*p - {b}*q)/{c} componentwise on R^2"
    else:
        space = cf.real_line(REAL_RADIUS)
        if family == "tanh":
            def apply(x, y):
                return (a * x - b * math.tanh(y)) / c
        elif family == "atan":
            def apply(x, y):
                return (a * math.atan(x) - b * y) / c
        else:
            def apply(x, y):
                return (a * x - b * y) / c
        start = PairPoint(-1.0, 1.0) if contractive else PairPoint(0.0, 0.0)
        bound = _real_bound
        desc = f"{family}: a={a}, b={b}, c={c}"
    op = CoupledOperator(apply=apply, space=space, lipschitz_data=(a / c, b / c),
                         description=desc)
    origin = (0.0, 0.0) if family == "r2" else 0.0
    return ProblemInstance(name=desc, space=space, operator=op, default_start=start,
                           expected_fixed_point=PairPoint(origin, origin),
                           bound_search=bound)


def _nonlinear_model(kind, a, b, c, holds):
    """tanh/atan maps and R^2 maps: |F(x,y) - F(u,v)| <= (a dx + b dy)/c, so
    class A coefficients make every condition hold. Failing maps have a
    linear part that violates every condition on every draw of some phase."""
    s = (a + b) / c
    if holds:
        verdicts = dict.fromkeys(CONDITION_ORDER_LIPSCHITZ, HOLDS)
    else:
        verdicts = dict.fromkeys(CONDITION_ORDER_LIPSCHITZ, FAILS)
        verdicts["mixed_monotone"] = HOLDS
    return Model(kind=kind, verdicts=verdicts, curve=curve_bounds(s, exact=False))


def draw_tanh_failing(rng):
    # a/c >= 1.3 fails every condition on the y == v slice; b < a - c keeps
    # (0, 0) the only coupled fixed point
    c = round(rng.uniform(2.0, 6.0), 3)
    a = round(rng.uniform(1.3, 1.5) * c, 4)
    b = round(rng.uniform(0.05, 0.15) * c, 4)
    return a, b, c


# (family, class) per slot; fixed across seeds. Six of the eleven are
# real-line class A maps (full budget in every check), so the median verify
# job is one of them rather than a seed-dependent pick between clusters.
GENERIC_SLOTS = (
    ("tanh", "A"), ("linear", "A"), ("atan", "A"), ("r2", "A"), ("tanh", "C"),
    ("atan", "A"), ("linear", "B"), ("tanh", "A"), ("r2", "C"), ("linear", "C"),
    ("linear", "A"),
)


def build_generic_api(seed, workdir, small=False):
    import coupledfp as cf

    rng = random.Random(f"generic_api/{seed}")
    samples = _samples("generic_api", small)
    jobs = []
    for family, cls in GENERIC_SLOTS[:SMALL_SLOTS] if small else GENERIC_SLOTS:
        if family == "tanh" and cls == "C":
            a, b, c = draw_tanh_failing(rng)
        else:
            a, b, c = draw_linear(rng, cls)
        problem = _generic_problem(cf, family, a, b, c)
        if family == "linear":
            model = linear_model(a, b, c)
        else:
            model = _nonlinear_model("r2" if family == "r2" else "real", a, b, c,
                                     holds=(cls == "A"))
        job_seed = rng.randrange(1 << 30)
        for cmd in COMMANDS:
            jobs.append(Job(jid=len(jobs), cmd=cmd, label=problem.name, model=model,
                            samples=samples, problem=problem, seed=job_seed))
    return jobs


# ---------------------------------------------------------------------------
# finite_cli
# ---------------------------------------------------------------------------

WEIGHTS = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2))


def _shortest_paths(n, edges):
    inf = None
    d = [[Fraction(0) if i == j else inf for j in range(n)] for i in range(n)]
    for i, j, w in edges:
        if d[i][j] is None or w < d[i][j]:
            d[i][j] = d[j][i] = w
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik is None:
                continue
            di = d[i]
            for j in range(n):
                if dk[j] is None:
                    continue
                alt = dik + dk[j]
                if di[j] is None or alt < di[j]:
                    di[j] = alt
    return d


def _chain_map(n, p, q, r, s):
    """floor((p*i + q*(n-1-j))/r) + s, clamped to the chain 0..n-1: nondecreasing
    in i and nonincreasing in j for p, q >= 0."""
    return [[min(n - 1, max(0, (p * i + q * (n - 1 - j)) // r + s)) for j in range(n)]
            for i in range(n)]


def _chain(rng, n, pqr):
    elements = [f"c{i}" for i in range(n)]
    edges = [(i, i + 1, rng.choice(WEIGHTS)) for i in range(n - 1)]
    leq = [[1 if i <= j else 0 for j in range(n)] for i in range(n)]
    return elements, edges, leq, _chain_map(n, *pqr, s=n // 4)


def _grid(rng, rows, cols, pqr):
    idx = {(i, j): i * cols + j for i in range(rows) for j in range(cols)}
    elements = [f"g{i}_{j}" for i in range(rows) for j in range(cols)]
    n = len(elements)
    edges = []
    for (i, j), k in idx.items():
        if i + 1 < rows:
            edges.append((k, idx[(i + 1, j)], rng.choice(WEIGHTS)))
        if j + 1 < cols:
            edges.append((k, idx[(i, j + 1)], rng.choice(WEIGHTS)))
    keys = list(idx)
    leq = [[1 if (keys[x][0] <= keys[y][0] and keys[x][1] <= keys[y][1]) else 0
            for y in range(n)] for x in range(n)]
    f_rows, f_cols = _chain_map(rows, *pqr, s=rows // 4), _chain_map(cols, *pqr, s=cols // 4)
    table = [[idx[(f_rows[keys[x][0]][keys[y][0]], f_cols[keys[x][1]][keys[y][1]])]
              for y in range(n)] for x in range(n)]
    return elements, edges, leq, table


def _diamond(rng, middles, levels):
    """bot < m_1..m_k < top. F(x, y) = g_{r(y)}(x) for order-preserving maps
    g_0 <= g_1 <= g_2 (pointwise) and r order-reversing, which is mixed
    monotone by construction."""
    n = middles + 2
    top = n - 1
    elements = ["bot"] + [f"m{i}" for i in range(1, middles + 1)] + ["top"]
    edges = []
    for m in range(1, top):
        edges.append((0, m, rng.choice(WEIGHTS)))
        edges.append((m, top, rng.choice(WEIGHTS)))
    leq = [[1 if (i == j or i == 0 or j == top) else 0 for j in range(n)] for i in range(n)]
    pick = rng.randrange(1, top)
    maps = [
        [0] * n,                                   # constant bot
        [pick if x == top else 0 for x in range(n)],  # top -> a middle, else bot
        list(range(n)),                            # identity
        [top] * n,                                 # constant top
    ]
    g = [maps[k] for k in levels]

    def r(y):
        return 0 if y == top else (2 if y == 0 else 1)

    table = [[g[r(y)][x] for y in range(n)] for x in range(n)]
    return elements, edges, leq, table


def _frac_json(v):
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _picard(doc, start):
    """Plain pair-map iteration on the raw table. Returns (limit, eta
    nonincreasing) or (None, False) when no fixed point is reached."""
    F = doc["F"]
    dist = [[Fraction(v) for v in row] for row in doc["distance"]]
    x, y = start
    prev = None
    monotone = True
    for _ in range(4 * len(F) + 4):
        nx, ny = F[x][y], F[y][x]
        if (nx, ny) == (x, y):
            return (x, y), monotone
        step = (dist[nx][x] + dist[ny][y]) / 2
        if prev is not None and step > prev:
            monotone = False
        prev = step
        x, y = nx, ny
    return None, False


def finite_curve(doc, eps_grid=EPS_GRID):
    """Exact symmetric delta curve by brute force over the raw matrices."""
    n = len(doc["elements"])
    dist = [[Fraction(v) for v in row] for row in doc["distance"]]
    leq, F = doc["leq"], doc["F"]
    out = {}
    for eps in eps_grid:
        eps_f = Fraction(eps)
        cap = DELTA_CAP_FACTOR * eps
        best = None
        for ix in range(n):
            for iu in range(n):
                if not leq[iu][ix]:
                    continue
                for iy in range(n):
                    for iv in range(n):
                        if not leq[iy][iv]:
                            continue
                        half = (dist[ix][iu] + dist[iy][iv]) / 2
                        if half < eps_f:
                            continue
                        lhs = (dist[F[ix][iy]][F[iu][iv]] + dist[F[iy][ix]][F[iv][iu]]) / 2
                        if lhs >= eps_f and (best is None or half < best):
                            best = half
        value = cap if best is None else float(min(best - eps_f, Fraction(cap)))
        out[eps] = (value, value)
    return out


def finite_model(doc, oracle):
    """Expected outcomes from tests/finite_oracle.py and brute force."""
    n = len(doc["elements"])
    labels = doc["elements"]
    F = doc["F"]
    verdicts = {
        "mixed_monotone": oracle.oracle_mixed_monotone(doc),
        "samet_mk": oracle.oracle_banded_grid(doc, EPS_GRID, delta_rule, False),
        "symmetric_mk": oracle.oracle_banded_grid(doc, EPS_GRID, delta_rule, True),
        "strict_contraction": oracle.oracle_strict(doc),
    }
    fixed = frozenset((labels[x], labels[y]) for x in range(n) for y in range(n)
                      if F[x][y] == x and F[y][x] == y)
    start = doc.get("start", [0, 0])
    limit, _ = _picard(doc, start)
    return Model(kind="finite", verdicts=verdicts, curve=finite_curve(doc),
                 fixed=fixed, limit=(labels[limit[0]], labels[limit[1]]),
                 exhaustive=True)


# Poset slots per pass: shape, size and table family are fixed per slot (as
# the coefficient classes are for the real-line workloads); the seed draws
# the edge weights of the metric and, for diamonds, the middle element that
# top is sent to. The diamond8 table is constant, so every condition holds
# there and the exhaustive checks run to the end instead of exiting early.
FINITE_SLOTS = (("chain", 14, (1, 1, 3)), ("grid", (4, 4), (1, 1, 3)),
                ("diamond", 10, (0, 1, 2)), ("chain", 10, (2, 1, 4)),
                ("grid", (3, 4), (1, 0, 2)), ("diamond", 6, (1, 2, 3)),
                ("chain", 12, (1, 2, 4)), ("diamond", 8, (0, 0, 0)))


def generate_poset(rng, shape, size, family, oracle):
    """Draw until the table is mixed monotone (confirmed by the oracle) and
    Picard iteration from (bot, top) reaches a fixed point with
    nonincreasing steps, so the instance has a known solve outcome."""
    for _ in range(1000):
        if shape == "chain":
            elements, edges, leq, table = _chain(rng, size, family)
        elif shape == "grid":
            elements, edges, leq, table = _grid(rng, *size, family)
        else:
            elements, edges, leq, table = _diamond(rng, size, family)
        n = len(elements)
        dist = _shortest_paths(n, edges)
        doc = {
            "schema_version": 1,
            "description": f"{shape} {size}",
            "elements": elements,
            "distance": [[_frac_json(v) for v in row] for row in dist],
            "leq": leq,
            "F": table,
            "start": [0, n - 1],
        }
        if oracle.oracle_mixed_monotone(doc) != HOLDS:
            continue
        limit, monotone = _picard(doc, doc["start"])
        if limit is not None and monotone:
            return doc
    raise RuntimeError(f"no admissible {shape} {size} table after 1000 draws")


def build_finite_cli(seed, workdir, oracle, fixture, small=False):
    rng = random.Random(f"finite_cli/{seed}")
    problems = []
    with open(fixture) as fh:
        doc = json.load(fh)
    problems.append((fixture, finite_model(doc, oracle)))
    for k, (shape, size, family) in enumerate(FINITE_SLOTS[:SMALL_SLOTS - 1] if small
                                              else FINITE_SLOTS):
        doc = generate_poset(rng, shape, size, family, oracle)
        path = os.path.join(workdir, f"poset{k}_{shape}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        problems.append((path, finite_model(doc, oracle)))
    return _cli_jobs(problems, rng, workdir, _samples("finite_cli", small))


def build(workload, seed, workdir, oracle, fixture, small=False):
    if workload == "linear_cli":
        return build_linear_cli(seed, workdir, small)
    if workload == "generic_api":
        return build_generic_api(seed, workdir, small)
    if workload == "finite_cli":
        return build_finite_cli(seed, workdir, oracle, fixture, small)
    raise ValueError(f"unknown workload {workload!r}")
