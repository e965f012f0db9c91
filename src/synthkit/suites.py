"""Named randomized property suites behind `verify` and the acceptance run.

Each suite replays the same instances for a given seed, so results are
reproducible; SYNTHKIT_SEED overrides the default seed. Failures carry a
printable counterexample payload instead of raising.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .derivations import Derivation, compose, moment
from .exppoly import ExpPolynomial, act, frechet_order
from .fourier import LaurentPoly, inverse_transform, transform
from .ideals import IdealHandle, derivation_ideal_member, annihilates_translates
from .linalg import RowSpace, vectors_equal_span
from .measures import (
    Exponential,
    Measure,
    difference_product,
    trivial_exponential,
)
from .polynomials import Polynomial, monomials_of_degree, monomials_up_to
from .scalars import ONE, ZERO, GaussianRational
from .synthesis import (
    biadditive_demo,
    default_window,
    localizability_witness,
    solve_system,
    window_oracle,
)

DEFAULT_SEED = 271828


def active_seed() -> int:
    raw = os.environ.get("SYNTHKIT_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ValueError("SYNTHKIT_SEED must be an integer") from None


@dataclass
class SuiteResult:
    name: str
    trials: int
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _scalar(rng: random.Random, nonzero: bool = False) -> GaussianRational:
    while True:
        re = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
        im = Fraction(0)
        if rng.random() < 0.25:
            im = Fraction(rng.randint(-2, 2), rng.choice((1, 2)))
        value = GaussianRational(re, im)
        if value or not nonzero:
            return value


def _point(rng: random.Random, dim: int, span: int = 3) -> tuple:
    return tuple(rng.randint(-span, span) for _ in range(dim))


def _measure(rng: random.Random, dim: int, max_support: int = 6) -> Measure:
    coeffs = {}
    for _ in range(rng.randint(1, max_support)):
        coeffs[_point(rng, dim)] = _scalar(rng, nonzero=True)
    return Measure(dim, coeffs)


def _polynomial(rng: random.Random, dim: int, maxdeg: int, terms: int = 4) -> Polynomial:
    monos = monomials_up_to(dim, maxdeg)
    out = {}
    for _ in range(rng.randint(1, terms)):
        out[rng.choice(monos)] = _scalar(rng, nonzero=True)
    return Polynomial(dim, out)


def _exponential(rng: random.Random, dim: int) -> Exponential:
    pool = (
        GaussianRational(1),
        GaussianRational(-1),
        GaussianRational(2),
        GaussianRational(Fraction(1, 2)),
        GaussianRational(0, 1),
        GaussianRational(1, 1),
    )
    return Exponential(tuple(rng.choice(pool) for _ in range(dim)))


def _laurent(rng: random.Random, dim: int, max_support: int = 6) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(1, max_support)):
        terms[_point(rng, dim)] = _scalar(rng, nonzero=True)
    return LaurentPoly(dim, terms)


def suite_transform_homomorphism(rng: random.Random, trials: int = 200) -> SuiteResult:
    result = SuiteResult("transform-homomorphism", trials)
    for _ in range(trials):
        dim = rng.randint(1, 3)
        mu = _measure(rng, dim)
        nu = _measure(rng, dim)
        lhs = transform(mu * nu)
        rhs = transform(mu) * transform(nu)
        if lhs != rhs:
            result.failures.append({"mu": repr(mu), "nu": repr(nu)})
    return result


def _sample_shifts(dim: int, length: int) -> list:
    """Small deterministic family of shift tuples of the given length."""
    fills = [tuple((s * ((i + j) % 3 + 1)) for i in range(dim)) for j, s in
             enumerate((1, -1, 2, 1, -2))]
    tuples = []
    for start in range(2):
        tuples.append([fills[(start + k) % len(fills)] for k in range(length)])
    units = []
    for i in range(dim):
        e = [0] * dim
        e[i] = 1
        units.append(tuple(e))
    tuples.append([units[k % dim] for k in range(length)])
    return tuples


def frechet_order_error(f: ExpPolynomial, n: int) -> str | None:
    """Check the order n of a single-term f against difference products.

    Sampled shift tuples of length n+1 must annihilate f, and for n > 0 the
    unit steps along a top-degree monomial of its polynomial part, a tuple
    of length n, must not. Returns the first disagreement, or None.
    """
    exponential, poly = f.terms[0]
    for ys in _sample_shifts(f.dim, n + 1):
        if not act(difference_product(exponential, ys), f).is_zero():
            return "difference product failed to annihilate"
    if n > 0:
        alpha = max(poly.terms, key=lambda a: (sum(a), a))
        ys = []
        for i, a in enumerate(alpha):
            e = [0] * f.dim
            e[i] = 1
            ys.extend([tuple(e)] * a)
        if len(ys) != n:
            return f"top-degree witness has length {len(ys)}, not {n}"
        if act(difference_product(exponential, ys), f).is_zero():
            return "witness tuple unexpectedly annihilates"
    return None


def suite_frechet_order(rng: random.Random, trials: int = 60) -> SuiteResult:
    result = SuiteResult("frechet-order", trials)
    for _ in range(trials):
        dim = rng.randint(1, 3)
        p = _polynomial(rng, dim, rng.randint(0, 4))
        c = _exponential(rng, dim)
        f = ExpPolynomial.single(c, p)
        expected = p.degree()
        order = frechet_order(f)
        error = frechet_order_error(f, order)
        if error is not None:
            result.failures.append({"f": repr(f), "error": error})
            continue
        if order != expected:
            result.failures.append(
                {"f": repr(f), "order": order, "degree": expected}
            )
    return result


def suite_product_rule(rng: random.Random, trials: int = 100) -> SuiteResult:
    result = SuiteResult("product-rule", trials)
    for _ in range(trials):
        dim = rng.randint(1, 3)
        f = _polynomial(rng, dim, 3)
        g = _polynomial(rng, dim, 3)
        y = _point(rng, dim)
        lhs = (f * g).difference(y)
        rhs = f.difference(y) * g.shift(y) + f * g.difference(y)
        if lhs != rhs:
            result.failures.append({"f": repr(f), "g": repr(g), "y": y})
            continue
        c = _exponential(rng, dim)
        total = frechet_order(ExpPolynomial.single(c, f * g))
        if total != (f.degree() or 0) + (g.degree() or 0):
            result.failures.append(
                {"f": repr(f), "g": repr(g), "total_order": total}
            )
    return result


def suite_derivation_compose(rng: random.Random, trials: int = 100) -> SuiteResult:
    result = SuiteResult("derivation-compose", trials)
    for _ in range(trials):
        dim = rng.randint(1, 2)
        d1 = Derivation(_polynomial(rng, dim, 2))
        d2 = Derivation(_polynomial(rng, dim, 2))
        mu = _measure(rng, dim)
        c = _exponential(rng, dim)
        both = compose(d1, d2).apply(mu, c)
        reweighted = Measure(
            dim, {x: v * d2.poly.evaluate(x) for x, v in mu.terms.items()}
        )
        split = d1.apply(reweighted, c)
        if both != split:
            result.failures.append(
                {
                    "p1": repr(d1.poly),
                    "p2": repr(d2.poly),
                    "mu": repr(mu),
                    "c": repr(c),
                    "compose": str(both),
                    "reweighted": str(split),
                }
            )
    return result


def _linear_factors(c: Exponential) -> list:
    """z_i - c_i for each coordinate i: generators of the maximal ideal at c."""
    return [LaurentPoly.variable(c.dim, i) - v for i, v in enumerate(c.base)]


def _max_ideal_power(c: Exponential, n: int, cache: dict) -> IdealHandle:
    key = (c.base, n)
    handle = cache.get(key)
    if handle is None:
        dim = c.dim
        linear = _linear_factors(c)
        gens = []
        for beta in monomials_of_degree(dim, n + 1):
            g = LaurentPoly.constant(dim, ONE)
            for factor, e in zip(linear, beta):
                g = g * factor**e
            gens.append(g)
        handle = IdealHandle(gens)
        cache[key] = handle
    return handle


def suite_max_ideal_power(rng: random.Random, trials: int = 100) -> SuiteResult:
    from .ideals import max_ideal_power_member

    result = SuiteResult("max-ideal-power", trials)
    cache: dict = {}
    # Small base pool keeps the number of distinct power ideals (and hence
    # Groebner runs) bounded while still exercising nontrivial points.
    pool = (
        GaussianRational(1),
        GaussianRational(2),
        GaussianRational(0, 1),
        GaussianRational(Fraction(1, 2)),
    )
    for _ in range(trials):
        dim = rng.randint(1, 2)
        c = Exponential(tuple(rng.choice(pool) for _ in range(dim)))
        n = rng.randint(0, 3)
        if rng.random() < 0.6:
            L = LaurentPoly.constant(dim, ONE)
            for factor in _linear_factors(c):
                for _ in range(rng.randint(0, 2)):
                    L = L * factor
            L = L * _laurent(rng, dim, 2)
        else:
            L = _laurent(rng, dim, 8)
        if L.is_zero():
            continue
        by_order = max_ideal_power_member(L, c, n)
        by_groebner = _max_ideal_power(c, n, cache).contains(L)
        mu = inverse_transform(L)
        by_moments = all(
            moment(mu, Polynomial(dim, {beta: ONE}), c).is_zero()
            for beta in monomials_up_to(dim, n)
        )
        if not (by_order == by_groebner == by_moments):
            result.failures.append(
                {
                    "L": repr(L),
                    "c": repr(c),
                    "n": n,
                    "order_route": by_order,
                    "groebner_route": by_groebner,
                    "moment_route": by_moments,
                }
            )
    return result


def suite_derivation_ideal(rng: random.Random, trials: int = 100) -> SuiteResult:
    """Membership by derivation conditions against the translate-span route.

    L vanishes at c to order deg p + 1 along every coordinate (a member),
    to an order from 1 to deg p (decided by the moment conditions), or is
    random (mostly cut off by the mass gate).
    """
    result = SuiteResult("derivation-ideal", trials)
    for _ in range(trials):
        dim = rng.randint(1, 2)
        p = _polynomial(rng, dim, 3)
        c = _exponential(rng, dim)
        degree = p.degree() or 0
        linear = _linear_factors(c)
        style = rng.random()
        if style < 0.7:
            if style < 0.3:
                factors = [f for f in linear for _ in range(degree + 1)]
            else:
                order = rng.randint(1, max(degree, 1))
                factors = [rng.choice(linear) for _ in range(order)]
            L = _laurent(rng, dim, 2)
            for factor in factors:
                L = L * factor
        else:
            L = _laurent(rng, dim, 5)
        if L.is_zero():
            continue
        direct = derivation_ideal_member(p, c, L)
        mu = inverse_transform(L)
        f = ExpPolynomial.single(c, p.reflect())
        by_span = transform(mu).evaluate(c).is_zero() and annihilates_translates(
            mu, f
        )
        if direct != by_span:
            result.failures.append(
                {
                    "p": repr(p),
                    "c": repr(c),
                    "L": repr(L),
                    "member_route": direct,
                    "span_route": by_span,
                }
            )
            continue
        if direct:
            shift = LaurentPoly(dim, {_point(rng, dim, 2): ONE})
            if not derivation_ideal_member(p, c, L * shift):
                result.failures.append(
                    {"p": repr(p), "c": repr(c), "L": repr(L), "shift": repr(shift)}
                )
    return result


def _lefranc_instance(rng: random.Random):
    pool = (
        GaussianRational(1),
        GaussianRational(-1),
        GaussianRational(2),
        GaussianRational(Fraction(1, 2)),
        GaussianRational(0, 1),
        GaussianRational(3),
        GaussianRational(Fraction(-1, 2)),
    )
    count = rng.randint(1, 3)
    roots = rng.sample(pool, count)
    budget = 6
    exponents = []
    for i in range(count):
        hi = budget - (count - i - 1)
        e = rng.randint(1, min(3, hi)) if i < count - 1 else rng.randint(1, hi)
        exponents.append(e)
        budget -= e
    L = LaurentPoly.constant(1, ONE)
    for root, e in zip(roots, exponents):
        factor = LaurentPoly(1, {(1,): ONE, (0,): -root})
        for _ in range(e):
            L = L * factor
    return L, list(zip(roots, exponents))


def suite_lefranc(rng: random.Random, trials: int = 50) -> SuiteResult:
    result = SuiteResult("lefranc", trials)
    for _ in range(trials):
        L, factorization = _lefranc_instance(rng)
        total = sum(e for _, e in factorization)
        mu = inverse_transform(L)
        solution = solve_system([mu])
        if solution.total_dimension != total or solution.approximate:
            result.failures.append(
                {
                    "L": repr(L),
                    "expected_dimension": total,
                    "solved_dimension": solution.total_dimension,
                }
            )
            continue
        box = default_window([mu], max(e for _, e in factorization))
        window = window_oracle([mu], box)
        restricted = RowSpace(len(window.points))
        vectors = []
        for basis in solution.bases:
            for p in basis.polys:
                f = ExpPolynomial.single(basis.root, p)
                vec = [f.evaluate(x) for x in window.points]
                vectors.append(vec)
                restricted.add(vec)
        if restricted.rank != total:
            result.failures.append(
                {"L": repr(L), "restriction_rank": restricted.rank, "expected": total}
            )
            continue
        if window.dimension != total:
            result.failures.append(
                {"L": repr(L), "window_dimension": window.dimension, "expected": total}
            )
            continue
        oracle_space = RowSpace(len(window.points))
        for vec in window.basis:
            oracle_space.add(list(vec))
        forward = all(oracle_space.contains(v) for v in vectors)
        backward = all(restricted.contains(list(v)) for v in window.basis)
        if not (forward and backward):
            result.failures.append(
                {"L": repr(L), "forward": forward, "backward": backward}
            )
    return result


def _plane_instance():
    z1 = LaurentPoly.variable(2, 0)
    z2 = LaurentPoly.variable(2, 1)
    one = LaurentPoly.constant(2, ONE)
    return [(z1 - one) ** 2, z2 - one, (z1 - one) * (z2 - one)]


def dual_space_error(gens: list, dual) -> str | None:
    """Check a local dual basis against the ideal's generators by moments.

    Every dual polynomial q must pair to zero with the inverse transform of
    g z^gamma for each generator g and each gamma in [0..cutoff]^d. The
    pairing is a polynomial in gamma of degree at most the cutoff in each
    coordinate, so vanishing on that box means vanishing on every shift
    of every generator. Returns the first failure, or None.
    """
    dim = dual.c.dim
    box = list(itertools.product(range(dual.cutoff + 1), repeat=dim))
    for g in gens:
        for gamma in box:
            mu = inverse_transform(g * LaurentPoly(dim, {gamma: ONE}))
            for q in dual.polys:
                if not moment(mu, q, dual.c).is_zero():
                    return f"{q!r} does not kill {g!r} shifted by {gamma}"
    return None


def suite_plane_instance(rng: random.Random, trials: int = 1) -> SuiteResult:
    result = SuiteResult("plane-instance", trials)
    gens = _plane_instance()
    c = trivial_exponential(2)
    measures = [inverse_transform(g) for g in gens]
    solution = solve_system(measures, roots=[c])
    basis = solution.bases[0]
    dual = IdealHandle(gens).local_dual_space(c)
    index = {m: i for i, m in enumerate(monomials_up_to(2, 2))}

    def rows(polys):
        out = []
        for q in polys:
            out.append([ZERO] * len(index))
            for m, v in q.terms.items():
                out[-1][index[m]] = v
        return out

    want = rows([Polynomial.constant(2, ONE), Polynomial.variable(2, 0)])
    error = dual_space_error(gens, dual)
    if not (
        vectors_equal_span(rows(basis.polys), want, len(index))
        and vectors_equal_span(rows(dual.polys), want, len(index))
        and error is None
        and solution.total_dimension == 2
    ):
        result.failures.append(
            {
                "solution": [repr(q) for q in basis.polys],
                "dual": [repr(q) for q in dual.polys],
                "dimension": solution.total_dimension,
                "error": error,
            }
        )
    return result


def suite_localizability(rng: random.Random, trials: int = 50) -> SuiteResult:
    result = SuiteResult("localizability", trials)
    for _ in range(trials):
        L, factorization = _lefranc_instance(rng)
        handle = IdealHandle([L])
        root, top = factorization[0]
        candidates = [LaurentPoly.constant(1, ONE)]
        reduced = LaurentPoly.constant(1, ONE)
        for r, e in factorization:
            factor = LaurentPoly(1, {(1,): ONE, (0,): -r})
            for _ in range(e - 1 if r == root else e):
                reduced = reduced * factor
        candidates.append(reduced)
        for candidate in candidates:
            if handle.contains(candidate):
                continue
            report = localizability_witness(handle, candidate)
            if report.member or report.inconclusive or report.witness is None:
                result.failures.append(
                    {"I": repr(L), "L": repr(candidate), "report": repr(report)}
                )
                continue
            c, q = report.witness
            if moment(inverse_transform(candidate), q, c).is_zero():
                result.failures.append(
                    {"I": repr(L), "L": repr(candidate), "witness": repr(report.witness)}
                )
        member_case = L * _laurent(rng, 1, 2)
        if not member_case.is_zero():
            report = localizability_witness(handle, member_case)
            if not report.member or report.witness is not None:
                result.failures.append(
                    {"I": repr(L), "L": repr(member_case), "report": repr(report)}
                )
    gens = _plane_instance()
    handle = IdealHandle(gens)
    z1 = LaurentPoly.variable(2, 0)
    one = LaurentPoly.constant(2, ONE)
    report = localizability_witness(handle, z1 - one)
    if report.member or report.inconclusive or report.witness is None:
        result.failures.append({"I": "plane instance", "report": repr(report)})
    return result


def suite_rank_growth(rng: random.Random, trials: int = 8) -> SuiteResult:
    result = SuiteResult("rank-growth", trials)
    previous = None
    for k in range(1, trials + 1):
        dim = biadditive_demo(k)
        ok = dim == k + 2 and (previous is None or dim > previous)
        if not ok:
            result.failures.append({"k": k, "dimension": dim})
        previous = dim
    return result


SUITES = {
    "transform-homomorphism": suite_transform_homomorphism,
    "frechet-order": suite_frechet_order,
    "product-rule": suite_product_rule,
    "derivation-compose": suite_derivation_compose,
    "max-ideal-power": suite_max_ideal_power,
    "derivation-ideal": suite_derivation_ideal,
    "lefranc": suite_lefranc,
    "plane-instance": suite_plane_instance,
    "localizability": suite_localizability,
    "rank-growth": suite_rank_growth,
}


def run_suite(name: str, seed: int | None = None, trials: int | None = None) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    seed = active_seed() if seed is None else seed
    fn = SUITES[name]
    rng = _rng(seed, name)
    return fn(rng) if trials is None else fn(rng, trials)


def run_all(seed: int | None = None) -> list:
    return [run_suite(name, seed) for name in SUITES]
