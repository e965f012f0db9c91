"""Seeded workload generators and answer checks for the synthkit benchmark.

Every op is plain data: a CLI script with its flags, or a suite call. The
generators import nothing from synthkit, and every expected answer is
derived from how the input was built (chosen roots, multiplicities and
staircases), never from synthkit's output.

Ops come in decks. A deck holds a fixed number of ops of each kind, in a
shuffled order, so every run sees the same mix of kinds whatever its seed.
A solve-fat deck also holds every shape of each kind exactly once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F
from functools import partial
from itertools import product
from math import isqrt

# --- Gaussian rationals as (re, im) pairs of Fractions ----------------------

ZERO = (F(0), F(0))
ONE = (F(1), F(0))


def g_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def g_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def g_inv(a):
    n = a[0] * a[0] + a[1] * a[1]
    return (a[0] / n, -a[1] / n)


def g_pow(a, e):
    if e < 0:
        a, e = g_inv(a), -e
    out = ONE
    for _ in range(e):
        out = g_mul(out, a)
    return out


def lit(a) -> str:
    """Script literal of a Gaussian rational, always parenthesized."""
    re, im = a
    text = str(re) if re or not im else ""
    if im:
        text += ("+" if im > 0 and text else "") + f"{im}i"
    return f"({text})"


def parse_scalar(text: str):
    """Read synthkit's printed form of a Gaussian rational ("1/2-3i")."""
    if not text.endswith("i"):
        return (F(text), F(0))
    body = text[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    re, im = (body[:cut], body[cut:]) if cut > 0 else ("0", body)
    if im in ("", "+", "-"):
        im += "1"
    return (F(re), F(im))


# --- ops -------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    kind: str
    script: str = ""
    argv: tuple = ()
    suite: tuple = ()  # (name, seed, trials) for run_suite ops
    expect: object = None
    pooled: bool = False  # the op reuses an ideal from the shared pool

    def label(self) -> str:
        if self.suite:
            name, seed, trials = self.suite
            return f"run_suite({name!r}, seed={seed}, trials={trials})"
        flags = " ".join(self.argv)
        return self.script.replace("\n", "; ") + (f"  [{flags}]" if flags else "")


def _decks(rng: random.Random, deck: dict, makers: dict, fresh: bool):
    """Endless op stream, one shuffled deck at a time."""
    seen = set()
    while True:
        ops = []
        for kind, count in deck.items():
            for _ in range(count):
                for _attempt in range(100):
                    op = makers[kind](rng)
                    key = (op.script, op.argv, op.suite)
                    if not fresh or key not in seen:
                        break
                else:
                    raise RuntimeError(f"cannot draw a fresh {kind} op")
                seen.add(key)
                ops.append(op)
        rng.shuffle(ops)
        yield from ops


# --- random values ---------------------------------------------------------


def _rational(rng):
    while True:
        p = rng.randint(-4, 4)
        if p:
            return (F(p, rng.randint(1, 4)), F(0))


def _small_coefficient(rng):
    while True:
        c = (F(rng.randint(-3, 3), rng.randint(1, 2)), F(0))
        if rng.random() < 0.2:
            c = (c[0], F(rng.randint(-2, 2)))
        if c != ZERO:
            return c


# --- script text -----------------------------------------------------------


def _axis_delta(dim, i, step):
    point = [0] * dim
    point[i] = step
    return "d[" + ",".join(map(str, point)) + "]"


def _measure_factor(dim, i, c, k):
    """Measure whose transform is (z_i - c)^k."""
    base = f"({_axis_delta(dim, i, -1)}-{lit(c)}*{_axis_delta(dim, i, 0)})"
    return base if k == 1 else f"{base}^{k}"


def _laurent_var(dim, i):
    return "z" if dim == 1 else f"z{i + 1}"


def _laurent_factor(dim, i, c, k):
    base = f"({_laurent_var(dim, i)}-{lit(c)})"
    return base if k == 1 else f"{base}^{k}"


def _monomial(letter, dim, alpha):
    parts = []
    for i, a in enumerate(alpha):
        if a:
            var = letter if dim == 1 else f"{letter}{i + 1}"
            parts.append(var if a == 1 else f"{var}^{a}")
    return "*".join(parts)


def _poly_text(letter, dim, terms: dict):
    out = []
    for alpha, c in sorted(terms.items()):
        mono = _monomial(letter, dim, alpha)
        out.append(f"{lit(c)}*{mono}" if mono else lit(c))
    return "+".join(out)


def _random_terms(rng, dim, maxdeg, count):
    terms = {}
    for _ in range(count):
        alpha = tuple(rng.randint(0, maxdeg) for _ in range(dim))
        terms[alpha] = _small_coefficient(rng)
    return terms


def _exponential_text(c):
    return lit(c[0]) if len(c) == 1 else "(" + ", ".join(lit(v)[1:-1] for v in c) + ")"


# --- expected solution spaces ----------------------------------------------


def _box(shape):
    return frozenset(product(*(range(k) for k in shape)))


@dataclass(frozen=True)
class SolveExpect:
    """Exact roots, each with the staircase of its solution space.

    At a root c the solutions p(x) c^x have p in the span of x^b for b in
    the staircase: the transform ideal is monomial in z_i - c_i, so the
    difference equations keep exactly the binomials C(x, b) with b outside
    the ideal, and a staircase is closed under taking smaller exponents.
    """

    roots: dict  # root tuple -> frozenset of exponents
    degbound: int | None = None

    def spaces(self):
        for root, stairs in self.roots.items():
            if self.degbound is not None:
                stairs = frozenset(b for b in stairs if sum(b) <= self.degbound)
            yield root, stairs

    def truncated(self, stairs) -> bool:
        return self.degbound is not None and any(
            sum(b) == self.degbound for b in stairs
        )

    @property
    def code(self) -> int:
        return 2 if any(self.truncated(s) for _, s in self.spaces()) else 0


class _Bag:
    """Draws items in shuffled rounds, so that each comes up equally often."""

    def __init__(self, rng, items):
        self.rng = rng
        self.items = list(items)
        self.left: list = []

    def draw(self):
        if not self.left:
            self.left = list(self.items)
            self.rng.shuffle(self.left)
        return self.left.pop()

    def distinct(self, count):
        out = []
        while len(out) < count:
            item = self.draw()
            if item not in out:
                out.append(item)
        return out


def _fat_point(rng, values, kind, shape):
    """prod (z_i - c_i)^k_i: the answer is the box of exponents below shape."""
    dim = len(shape)
    c = tuple(values.draw() for _ in range(dim))
    gens = " ".join(_measure_factor(dim, i, c[i], k) for i, k in enumerate(shape))
    return Op(kind, "solve " + gens, expect=SolveExpect({c: _box(shape)}))


def _staircases(side):
    """Heights of the staircases inside a side x side box that are not boxes."""
    out = []
    for heights in product(range(side + 1), repeat=side):
        heights = tuple(h for h in heights if h)
        if heights and list(heights) == sorted(heights, reverse=True):
            if heights[0] != heights[-1] and heights not in out:
                out.append(heights)
    return out


def _nonci(rng, values, heights):
    """Monomial ideal in z1-a, z2-b whose staircase is not a box."""
    c = (values.draw(), values.draw())
    stairs = frozenset((i, j) for i, h in enumerate(heights) for j in range(h))
    gens = [(len(heights), 0)]
    for i, h in enumerate(heights):
        if i == 0 or h < heights[i - 1]:
            gens.append((i, h))
    if rng.random() < 0.5:  # a redundant generator, as in a^2, b, a*b
        i, j = rng.choice(gens)
        gens.append((i + 1, j + 1))
    factors = []
    for i, j in gens:
        parts = []
        if i:
            parts.append(_measure_factor(2, 0, c[0], i))
        if j:
            parts.append(_measure_factor(2, 1, c[1], j))
        factors.append("*".join(parts))
    rng.shuffle(factors)
    return Op("solve.nonci", "solve " + " ".join(factors), expect=SolveExpect({c: stairs}))


def _multiroot(rng, values, exponents):
    """prod (z1-a_i)^e_i, prod (z2-b_j)^f_j with several distinct a_i."""
    e, f = exponents
    a, b = values.distinct(len(e)), values.distinct(len(f))
    mu1 = "*".join(_measure_factor(2, 0, v, k) for v, k in zip(a, e))
    mu2 = "*".join(_measure_factor(2, 1, v, k) for v, k in zip(b, f))
    roots = {(ai, bj): _box([ei, fj]) for ai, ei in zip(a, e) for bj, fj in zip(b, f)}
    return Op("solve.multiroot", f"solve {mu1} {mu2}", expect=SolveExpect(roots))


# Quotient dimensions stay within 1..16: every root is solved at a degree
# bound equal to the quotient dimension, so the cost grows steeply with it.
MULTIROOT_EXPONENTS = list(
    product([(1, 1), (2, 1), (1, 1, 1), (2, 2)], [(1,), (2,), (1, 1)])
)

# Shapes of each solve kind. A deck holds each shape once: a solve costs
# from 5 ms to 600 ms by its shape, so drawing shapes at random would make
# p90 depend on the seed.
SOLVE_FAT_SHAPES = {
    "solve.fat2d": list(product(range(1, 5), repeat=2)),
    "solve.fat3d": list(product(range(1, 3), repeat=3)),
    "solve.fat1d": [(k,) for k in range(5, 15)],
    "solve.nonci": _staircases(3),
    "solve.multiroot": MULTIROOT_EXPONENTS,
}
SOLVE_FAT_DECK = {kind: len(shapes) for kind, shapes in SOLVE_FAT_SHAPES.items()}


# Root coordinates: the 22 rationals p/q with |p|, q <= 4 and 16 Gaussian
# rationals. They come from a bag too, so every run has the same share of
# Gaussian roots, which make a solve about 1.5 times as expensive.
VALUE_POOL = sorted({(F(p, q), F(0)) for p in range(-4, 5) if p for q in range(1, 5)}) + [
    (F(re), F(im, 2)) for re in (-1, 0, 1) for im in (-2, -1, 1, 2)
    ] + [(F(1, 2), F(1, 3)), (F(-1, 2), F(2, 3)), (F(3, 2), F(-1, 3)), (F(2), F(-1, 2))]


def solve_fat(seed):
    rng = random.Random(f"solve-fat:{seed}")
    values = _Bag(rng, VALUE_POOL)
    bags = {kind: _Bag(rng, shapes) for kind, shapes in SOLVE_FAT_SHAPES.items()}
    build = {"solve.nonci": _nonci, "solve.multiroot": _multiroot}
    seen = set()

    def maker(kind):
        def make(rng):
            # One bag round per deck: a repeated script redraws its values, not its shape.
            shape = bags[kind].draw()
            for _attempt in range(100):
                if kind in build:
                    op = build[kind](rng, values, shape)
                else:
                    op = _fat_point(rng, values, kind, shape)
                if op.script not in seen:
                    seen.add(op.script)
                    return op
            raise RuntimeError(f"cannot draw a fresh {kind} op")

        return make

    return _decks(rng, SOLVE_FAT_DECK, {kind: maker(kind) for kind in bags}, fresh=False)


# --- query-mix -------------------------------------------------------------


@dataclass(frozen=True)
class RootsExpect:
    exact: frozenset  # root tuples
    irrational: tuple = ()  # (q, imaginary): roots +-sqrt(q), or +-i sqrt(q)

    @property
    def code(self) -> int:
        return 2 if self.irrational else 0


@dataclass(frozen=True)
class Univariate:
    """prod (z - r)^e over distinct nonzero roots."""

    roots: tuple  # ((root, exponent), ...)

    def text(self):
        return "*".join(_laurent_factor(1, 0, r, e) for r, e in self.roots)

    @property
    def degree(self):
        return sum(e for _, e in self.roots)


@dataclass(frozen=True)
class FatIdeal:
    """ideal((z1-a)^k1, (z2-b)^k2)."""

    point: tuple
    shape: tuple

    def text(self):
        gens = ", ".join(
            _laurent_factor(2, i, v, k) for i, (v, k) in enumerate(zip(self.point, self.shape))
        )
        return f"ideal({gens})"


# Root multiplicities of the univariate ideals prod (z - r)^e, and the
# shapes (k1, k2) of the 2-D ideals; both come from bags, like the roots.
UNIVARIATE_SHAPES = [
    (1,), (2,), (3,), (1, 1), (2, 1), (3, 1), (2, 2), (1, 1, 1), (2, 1, 1), (3, 2, 1)
]
FAT_SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2)]
POOL_SHARE = 0.5


class _Ideals:
    """Ideals for the query verbs; POOL_SHARE of them come from a shared pool.

    The pool holds six univariate and four 2-D ideals drawn at the start,
    so pooled ops reuse an ideal that other verbs also get.
    """

    def __init__(self, rng):
        self.values = _Bag(rng, VALUE_POOL)
        self.shapes1 = _Bag(rng, UNIVARIATE_SHAPES)
        self.shapes2 = _Bag(rng, FAT_SHAPES)
        self.pool1 = [self.new_univariate() for _ in range(6)]
        self.pool2 = [self.new_fat() for _ in range(4)]

    def new_univariate(self):
        exponents = self.shapes1.draw()
        return Univariate(tuple(zip(self.values.distinct(len(exponents)), exponents)))

    def new_fat(self):
        return FatIdeal((self.values.draw(), self.values.draw()), self.shapes2.draw())

    def univariate(self, rng):
        if rng.random() < POOL_SHARE:
            return rng.choice(self.pool1), True
        return self.new_univariate(), False

    def fat(self, rng):
        if rng.random() < POOL_SHARE:
            return rng.choice(self.pool2), True
        return self.new_fat(), False


def _big_rational(rng):
    bits = rng.randint(2, 48)
    q = rng.randint(2 ** (bits - 1), 2**bits)
    while True:
        p = rng.randint(-3 * q, 3 * q)
        if p:
            return (F(p, q), F(0))


def _make_roots_rational(rng):
    """Rational roots whose denominators run from 2 to 48 bits."""
    r1 = _big_rational(rng)
    r2 = _rational(rng)
    while r2 == r1:
        r2 = _rational(rng)
    script = f"roots {_laurent_factor(1, 0, r1, 1)}*{_laurent_factor(1, 0, r2, 1)}"
    return Op("roots.rational", script, expect=RootsExpect(frozenset({(r1,), (r2,)})))


def _make_roots_irrational(rng):
    """a z^2 -+ b with b/a not a rational square, times an optional linear factor."""
    while True:
        a, b = rng.randint(1, 5), rng.randint(1, 30)
        if isqrt(a * b) ** 2 != a * b:
            break
    imaginary = rng.random() < 0.3
    text = f"({a}*z^2{'+' if imaginary else '-'}{b})"
    exact = frozenset()
    if rng.random() < 0.5:
        r = _rational(rng)
        text += "*" + _laurent_factor(1, 0, r, 1)
        exact = frozenset({(r,)})
    return Op(
        "roots.irrational", "roots " + text, expect=RootsExpect(exact, ((F(b, a), imaginary),))
    )


def _make_roots_pooled(ideals, rng):
    u, pooled = ideals.univariate(rng)
    exact = frozenset((r,) for r, _ in u.roots)
    return Op("roots.univariate", "roots " + u.text(), expect=RootsExpect(exact), pooled=pooled)


def _make_roots_2d(ideals, rng):
    a = ideals.values.distinct(2)
    b = ideals.values.draw()
    gens = f"{_laurent_factor(2, 0, a[0], 1)}*{_laurent_factor(2, 0, a[1], 1)}, {_laurent_factor(2, 1, b, 1)}"
    return Op(
        "roots.2d", f"roots ideal({gens})", expect=RootsExpect(frozenset({(a[0], b), (a[1], b)}))
    )


def _make_member_1d(ideals, rng):
    u, pooled = ideals.univariate(rng)
    h = _poly_text("z", 1, _random_terms(rng, 1, 2, rng.randint(1, 3)))
    script = f"member ideal({u.text()}) ({u.text()})*({h})"
    member = rng.random() < 0.5
    if not member:
        rest = _random_terms(rng, 1, u.degree - 1, rng.randint(1, 2))
        script += "+" + _poly_text("z", 1, rest)
    return Op("member.1d", script, expect={"member": member}, pooled=pooled)


def _make_member_2d(ideals, rng):
    ideal, pooled = ideals.fat(rng)
    (a, b), (k1, k2) = ideal.point, ideal.shape
    h1 = _poly_text("z", 2, _random_terms(rng, 2, 1, 2))
    h2 = _poly_text("z", 2, _random_terms(rng, 2, 1, 2))
    element = (
        f"{_laurent_factor(2, 0, a, k1)}*({h1})+{_laurent_factor(2, 1, b, k2)}*({h2})"
    )
    member = rng.random() < 0.5
    if not member:  # add a standard monomial (z1-a)^i (z2-b)^j, i < k1, j < k2
        i, j = rng.randrange(k1), rng.randrange(k2)
        parts = [_laurent_factor(2, 0, a, i)] if i else []
        parts += [_laurent_factor(2, 1, b, j)] if j else []
        element += "+" + ("*".join(parts) if parts else "(1)")
    return Op(
        "member.2d", f"member {ideal.text()} {element}", expect={"member": member}, pooled=pooled
    )


def _make_root_order_1d(ideals, rng):
    u, pooled = ideals.univariate(rng)
    if rng.random() < 0.8:
        c, order = rng.choice(u.roots)
    else:
        c, order = ideals.values.draw(), 0
        if any(c == r for r, _ in u.roots):
            order = dict(u.roots)[c]
    return Op(
        "root-order.1d",
        f"root-order {u.text()} {lit(c)}",
        expect={"order": order},
        pooled=pooled,
    )


def _make_root_order_2d(ideals, rng):
    ideal, pooled = ideals.fat(rng)
    c = ideal.point
    if rng.random() < 0.5:
        return Op(
            "root-order.2d",
            f"root-order {ideal.text()} {_exponential_text(c)}",
            expect={"order": min(ideal.shape)},
            pooled=pooled,
        )
    k1, k2 = ideal.shape
    product = f"{_laurent_factor(2, 0, c[0], k1)}*{_laurent_factor(2, 1, c[1], k2)}"
    return Op(
        "root-order.2d",
        f"root-order {product} {_exponential_text(c)}",
        expect={"order": k1 + k2},
    )


def _make_dual_space_1d(ideals, rng):
    u, pooled = ideals.univariate(rng)
    c, e = rng.choice(u.roots)
    return Op(
        "dual-space.1d",
        f"dual-space {u.text()} {lit(c)}",
        expect=SolveExpect({(c,): _box([e])}),
        pooled=pooled,
    )


def _make_dual_space_2d(ideals, rng):
    ideal, pooled = ideals.fat(rng)
    return Op(
        "dual-space.2d",
        f"dual-space {ideal.text()} {_exponential_text(ideal.point)}",
        expect=SolveExpect({ideal.point: _box(ideal.shape)}),
        pooled=pooled,
    )


def _make_apply_derivation(ideals, rng):
    dim = rng.randint(1, 2)
    p = {}
    while not p:
        p = _random_terms(rng, dim, 2, rng.randint(1, 3))
    mu = {}
    for _ in range(rng.randint(1, 3)):
        mu[tuple(rng.randint(-2, 2) for _ in range(dim))] = _small_coefficient(rng)
    c = tuple(ideals.values.draw() for _ in range(dim))
    mu_text = "+".join(f"{lit(v)}*d[{','.join(map(str, x))}]" for x, v in sorted(mu.items()))
    script = f"apply-derivation {_poly_text('x', dim, p)} {mu_text} {_exponential_text(c)}"
    order = max(sum(a) for a in p)
    if order >= 1:  # a positive-order derivation drops the constant term
        p.pop((0,) * dim, None)
    value = ZERO
    for x, v in mu.items():
        px = ZERO
        for alpha, coef in p.items():
            m = 1
            for xi, ai in zip(x, alpha):
                m *= xi**ai
            px = g_add(px, g_mul(coef, (F(m), F(0))))
        weight = ONE
        for ci, xi in zip(c, x):
            weight = g_mul(weight, g_pow(ci, -xi))
        value = g_add(value, g_mul(g_mul(v, px), weight))
    return Op("apply-derivation", script, expect={"value": value, "order": order})


def _make_demo_rank(rng):
    k = rng.randint(1, 4)
    return Op("demo-rank", f"demo-rank {k}", expect={"dimension": k + 2})


def _make_solve_degbound(ideals, rng):
    u = ideals.new_univariate()
    m = rng.randint(0, 3)
    measure = "*".join(_measure_factor(1, 0, r, e) for r, e in u.roots)
    roots = {(r,): _box([e]) for r, e in u.roots}
    return Op(
        "solve.degbound",
        f"solve {measure}",
        argv=("--degbound", str(m)),
        expect=SolveExpect(roots, degbound=m),
    )


def _make_error(rng):
    c = _rational(rng)
    k = rng.randint(1, 3)
    cases = [
        (f"solve {_measure_factor(1, 0, c, k)}*d[", (), "syntax-error"),
        (f"solve {_measure_factor(1, 0, c, k)}\nsolve d[0]", (), "syntax-error"),
        (f"member ideal({_laurent_factor(1, 0, c, k)}) z-", (), "syntax-error"),
        (f"demo-rank 0\n# {k}", (), "command-error"),
        (f"verify no-such-suite-{'abc'[k - 1]}", (), "command-error"),
        (f"solve {_measure_factor(2, 0, c, k)} d[1]", (), "dimension-mismatch"),
        (f"roots {_laurent_factor(2, 0, c, k)}", ("--dim", "2"), "positive-dimensional-zero-set"),
        (f"apply-derivation x^{k} d[1] 0", (), "zero-exponential-coordinate"),
        (f"solve {_measure_factor(1, 0, c, k)}", ("--degbound", "-1"), "invalid-value"),
    ]
    script, argv, code = rng.choice(cases)
    return Op("error", script, argv=argv, expect={"error": code})


# Ops per deck, ordered by typical cost. The counts put p50 inside the
# band of roots.rational and p90 inside the band of roots.irrational, not
# on a gap between two kinds.
QUERY_MIX_DECK = {
    "error": 1,
    "apply-derivation": 3,
    "root-order.1d": 2,
    "root-order.2d": 2,
    "roots.univariate": 2,
    "roots.rational": 7,
    "demo-rank": 1,
    "member.1d": 2,
    "dual-space.1d": 2,
    "solve.degbound": 1,
    "member.2d": 1,
    "roots.irrational": 4,
    "dual-space.2d": 1,
    "roots.2d": 1,
}


def query_mix(seed):
    rng = random.Random(f"query-mix:{seed}")
    ideals = _Ideals(rng)
    makers = {
        "error": _make_error,
        "apply-derivation": partial(_make_apply_derivation, ideals),
        "root-order.1d": partial(_make_root_order_1d, ideals),
        "root-order.2d": partial(_make_root_order_2d, ideals),
        "roots.univariate": partial(_make_roots_pooled, ideals),
        "roots.rational": _make_roots_rational,
        "demo-rank": _make_demo_rank,
        "member.1d": partial(_make_member_1d, ideals),
        "dual-space.1d": partial(_make_dual_space_1d, ideals),
        "solve.degbound": partial(_make_solve_degbound, ideals),
        "member.2d": partial(_make_member_2d, ideals),
        "roots.irrational": _make_roots_irrational,
        "dual-space.2d": partial(_make_dual_space_2d, ideals),
        "roots.2d": partial(_make_roots_2d, ideals),
    }
    return _decks(rng, QUERY_MIX_DECK, makers, fresh=False)


# --- verify ----------------------------------------------------------------

# (ops per deck, trials per op). Trials are sized so that most suite calls
# take 10 to 70 ms and their costs overlap, which keeps p50 and p90 off
# the gaps between suites; the suites whose cost varies most from instance
# to instance (product-rule, max-ideal-power, derivation-ideal) set p90.
VERIFY_DECK = {
    "transform-homomorphism": (1, 40),
    "derivation-compose": (1, 30),
    "rank-growth": (1, 4),
    "plane-instance": (1, 1),
    "frechet-order": (2, 8),
    "localizability": (2, 2),
    "lefranc": (2, 2),
    "product-rule": (1, 2),
    "derivation-ideal": (1, 3),
    "max-ideal-power": (1, 3),
}


def verify(seed):
    def maker(name):
        def make(rng):
            trials = VERIFY_DECK[name][1]
            return Op(
                f"suite.{name}",
                suite=(name, rng.randrange(2**32), trials),
                expect={"trials": trials},
            )

        return make

    deck = {f"suite.{name}": count for name, (count, _) in VERIFY_DECK.items()}
    makers = {f"suite.{name}": maker(name) for name in VERIFY_DECK}
    return _decks(random.Random(f"verify:{seed}"), deck, makers, fresh=True)


WORKLOADS = {"solve-fat": solve_fat, "query-mix": query_mix, "verify": verify}
DECK_SIZES = {
    "solve-fat": sum(SOLVE_FAT_DECK.values()),
    "query-mix": sum(QUERY_MIX_DECK.values()),
    "verify": sum(count for count, _ in VERIFY_DECK.values()),
}


# --- answer checks ---------------------------------------------------------

OK = "ok"
INCONCLUSIVE = "inconclusive"  # flagged inconclusive, enclosure holds the true root
WRONG = "wrong"


def _grevlex(alpha):
    return (sum(alpha), tuple(-a for a in reversed(alpha)))


def _check_space(polys, stairs):
    """Polys span the monomials of stairs: right count, support and leading terms."""
    if len(polys) != len(stairs):
        return f"dimension {len(polys)}, expected {len(stairs)}"
    leads = set()
    for q in polys:
        monos = [tuple(t["monomial"]) for t in q["terms"]]
        if not monos or any(m not in stairs for m in monos):
            return f"basis element with monomials {monos} outside {sorted(stairs)}"
        leads.add(max(monos, key=_grevlex))
    if len(leads) != len(polys):
        return "basis elements share a leading monomial"
    return None


def _inside(enclosure, root):
    """The certified box around each coordinate holds the exact root."""
    coords = enclosure["coordinates"]
    if len(coords) != len(root):
        return False
    for box, (re, im) in zip(coords, root):
        rad = F(box["radius"])
        if abs(F(box["re"]) - re) > rad or abs(F(box["im"]) - im) > rad:
            return False
    return True


def _holds_sqrt(box, q, sign, imaginary):
    """The box around one coordinate holds sign * sqrt(q) (times i if imaginary)."""
    rad = F(box["radius"])
    on, off = (F(box["im"]), F(box["re"])) if imaginary else (F(box["re"]), F(box["im"]))
    if abs(off) > rad:
        return False
    lo, hi = sign * (on - rad), sign * (on + rad)
    lo, hi = min(lo, hi), max(lo, hi)
    return hi > 0 and hi * hi >= q and (lo <= 0 or lo * lo <= q)


def _take(approx, fits, what):
    hits = [a for a in approx if fits(a)]
    if len(hits) != 1:
        return f"{len(hits)} enclosures of {what}"
    approx.remove(hits[0])
    return None


def _verdict(code, doc, want_code, missed, approx):
    """Shared end of the roots and solve checks.

    An exact root that comes back only as an approximate enclosure is a
    failure; it is INCONCLUSIVE, not WRONG, when the enclosure holds the
    root and the document says inconclusive with exit code 2.
    """
    for root in sorted(missed):
        bad = _take(approx, lambda a: _inside(a, root), f"exact root {root}")
        if bad:
            return WRONG, bad
    if approx:
        return WRONG, f"{len(approx)} unexplained approximate roots"
    if missed:
        if code != 2 or not doc["inconclusive"]:
            return WRONG, "missed an exact root without flagging inconclusive"
        return INCONCLUSIVE, "exact roots reported only as enclosures: " + ", ".join(
            "(" + ", ".join(lit(v)[1:-1] for v in root) + ")" for root in sorted(missed)
        )
    if code != want_code:
        return WRONG, f"exit {code}, expected {want_code}"
    return OK, None


def _root(values):
    return tuple(parse_scalar(v) for v in values)


def _check_solve(op, code, doc):
    exp = op.expect
    if "roots" not in doc:
        return WRONG, f"exit {code}: {doc.get('error')}"
    got = {_root(r["root"]): r for r in doc["roots"]}
    want = dict(exp.spaces())
    if len(got) != len(doc["roots"]) or not set(got) <= set(want):
        return WRONG, f"roots {sorted(got)}, expected {sorted(want)}"
    for root, r in got.items():
        stairs = want[root]
        bad = _check_space(r["basis"], stairs)
        if bad:
            return WRONG, f"root {root}: {bad}"
        if r["multiplicity"] != len(stairs) or r["truncated"] != exp.truncated(stairs):
            return WRONG, f"root {root}: multiplicity or truncation flag wrong"
    total = sum(len(want[root]) for root in got)
    if doc["total_dimension"] != total:
        return WRONG, f"total_dimension {doc['total_dimension']}, expected {total}"
    approx = list(doc["approximate_roots"])
    return _verdict(code, doc, exp.code, set(want) - set(got), approx)


def _check_roots(op, code, doc):
    exp = op.expect
    if "exact" not in doc:
        return WRONG, f"exit {code}: {doc.get('error')}"
    got = [_root(r) for r in doc["exact"]]
    if len(set(got)) != len(got) or not set(got) <= exp.exact:
        return WRONG, f"exact roots {got}, expected {sorted(exp.exact)}"
    approx = list(doc["approximate"])
    for q, imaginary in exp.irrational:
        for sign in (1, -1):
            bad = _take(
                approx,
                lambda a: a["certified"] and _holds_sqrt(a["coordinates"][0], q, sign, imaginary),
                f"{'-' if sign < 0 else ''}sqrt({q}){'i' if imaginary else ''}",
            )
            if bad:
                return WRONG, bad
    return _verdict(code, doc, exp.code, exp.exact - set(got), approx)


def _check_cli(op, code, doc):
    """(verdict, reason) for one CLI document against the constructed answer."""
    exp = op.expect
    if op.kind.startswith("roots."):
        return _check_roots(op, code, doc)
    if op.kind == "error":
        if code == 1 and doc.get("error", {}).get("code") == exp["error"]:
            return OK, None
        return WRONG, f"exit {code} {doc.get('error')}, expected {exp['error']}"
    if op.kind.startswith("solve."):
        return _check_solve(op, code, doc)
    if op.kind.startswith("dual-space."):
        (root, stairs), = exp.roots.items()
        if code != 0 or not doc.get("stabilized") or not doc.get("root_in_zero_set"):
            bad = f"exit {code}, stabilized {doc.get('stabilized')}"
        elif doc["dimension"] != len(stairs):
            bad = f"dimension {doc['dimension']}, expected {len(stairs)}"
        else:
            bad = _check_space(doc["basis"], stairs)
    elif op.kind == "apply-derivation":
        got = parse_scalar(doc["value"]) if code == 0 else None
        bad = None if got == exp["value"] and doc["order"] == exp["order"] else (
            f"value {doc.get('value')} order {doc.get('order')}, expected {exp}"
        )
    else:
        key = next(iter(exp))
        bad = None if code == 0 and doc.get(key) == exp[key] else (
            f"exit {code}, {key} {doc.get(key)!r}, expected {exp[key]!r}"
        )
    return (WRONG, bad) if bad else (OK, None)


def check(op, outcome):
    """Verdict for one op: OK, INCONCLUSIVE (a known, flagged miss) or WRONG."""
    if op.suite:
        if outcome.passed and outcome.trials == op.expect["trials"]:
            return OK, None
        return WRONG, f"suite failures: {outcome.failures[:2]}"
    code, doc = outcome
    try:
        return _check_cli(op, code, doc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return WRONG, f"malformed document ({type(exc).__name__}: {exc})"
