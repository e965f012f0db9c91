"""Exponential polynomials sum of p_j(x) * c_j^x and the measure action.

The translate span of such a function is finite dimensional: translation
keeps each exponential and moves polynomial parts inside their staircases,
so spans and closures are computed by exact rank saturation.
"""

from __future__ import annotations

from typing import Iterable

from .errors import DimensionMismatch, MultiTermInput
from .linalg import RowSpace
from .measures import Exponential, Measure, check_point, neg_point
from .polynomials import Polynomial, _accumulate, _binomial_shift
from .scalars import ZERO, GaussianRational


class ExpPolynomial:
    """Canonical form: distinct exponentials, nonzero polynomial parts."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Iterable = ()):
        self.dim = dim
        merged: dict = {}
        order: list = []
        for exponential, poly in terms:
            if not isinstance(exponential, Exponential):
                raise TypeError("expected an Exponential base")
            if exponential.dim != dim or poly.dim != dim:
                raise DimensionMismatch("term dimension mismatch")
            if exponential in merged:
                merged[exponential] = merged[exponential] + poly
            else:
                merged[exponential] = poly
                order.append(exponential)
        cleaned = [(e, merged[e]) for e in order if not merged[e].is_zero()]
        cleaned.sort(key=lambda t: t[0].sort_key())
        self.terms = tuple(cleaned)

    @classmethod
    def single(cls, exponential: Exponential, poly: Polynomial) -> "ExpPolynomial":
        return cls(exponential.dim, [(exponential, poly)])

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, ExpPolynomial)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dim, self.terms))

    def __add__(self, other):
        if not isinstance(other, ExpPolynomial):
            return NotImplemented
        if other.dim != self.dim:
            raise DimensionMismatch("dimension mismatch")
        return ExpPolynomial(self.dim, self.terms + other.terms)

    def __sub__(self, other):
        if not isinstance(other, ExpPolynomial):
            return NotImplemented
        return self + other.scaled(-1)

    def scaled(self, s) -> "ExpPolynomial":
        return ExpPolynomial(self.dim, [(e, p.scaled(s)) for e, p in self.terms])

    def evaluate(self, x) -> GaussianRational:
        x = check_point(self.dim, x)
        total = ZERO
        for exponential, poly in self.terms:
            total = total + poly.evaluate(x) * exponential.value_at(x)
        return total

    def translated(self, a) -> "ExpPolynomial":
        """f(. + a): each part picks up c^a and a polynomial shift."""
        a = check_point(self.dim, a)
        return ExpPolynomial(
            self.dim,
            [
                (e, p.shift(a).scaled(e.value_at(a)))
                for e, p in self.terms
            ],
        )

    def __repr__(self):
        if not self.terms:
            return "ExpPolynomial(0)"
        bits = [f"({p})*({e.base})^x" for e, p in self.terms]
        return "ExpPolynomial(" + " + ".join(str(b) for b in bits) + ")"


def evaluate(f: ExpPolynomial, x) -> GaussianRational:
    return f.evaluate(x)


def act(mu: Measure, f: ExpPolynomial) -> ExpPolynomial:
    """Module action: (mu * f)(x) = sum over y of mu(y) f(x - y).

    Each term (c, p) maps to (c, sum over y of mu(y) c^-y p(x - y)); the
    result is re-canonicalized so annihilated terms disappear.
    """
    if mu.dim != f.dim:
        raise DimensionMismatch("dimension mismatch")
    out = []
    for exponential, poly in f.terms:
        acc: dict = {}
        for y, weight in mu.terms.items():
            back = neg_point(y)
            w = weight * exponential.value_at(back)
            if any(back):
                for alpha, v in poly.terms.items():
                    vw = v * w
                    for gamma, mult in _binomial_shift(alpha, back):
                        _accumulate(acc, gamma, vw * mult)
            else:
                for alpha, v in poly.terms.items():
                    _accumulate(acc, alpha, v * w)
        out.append((exponential, Polynomial._raw(f.dim, acc)))
    return ExpPolynomial(f.dim, out)


def _staircase_layout(f: ExpPolynomial):
    """Column layout (term index, monomial) covering every translate."""
    layout = []
    for j, (_, poly) in enumerate(f.terms):
        for beta in poly.staircase():
            layout.append((j, beta))
    index = {key: i for i, key in enumerate(layout)}
    return layout, index


def _vectorize(g: ExpPolynomial, base: ExpPolynomial, index: dict) -> list:
    vec = [ZERO] * len(index)
    base_exps = [e for e, _ in base.terms]
    for exponential, poly in g.terms:
        j = next(
            (k for k, e in enumerate(base_exps) if e == exponential), None
        )
        if j is None:
            raise ValueError("translate left the exponential family")
        for beta, v in poly.terms.items():
            vec[index[(j, beta)]] = v
    return vec


def unit_steps(dim: int) -> list:
    """The 2d unit steps of Z^dim: +e_i, then -e_i, for each i in turn."""
    steps = []
    for i in range(dim):
        e = tuple(int(j == i) for j in range(dim))
        steps += [e, tuple(-v for v in e)]
    return steps


def span_closure(seeds, move, vector, width: int, dim: int) -> list:
    """Basis of the smallest span that holds the seeds and is closed under
    g -> move(g, step) for every unit step.

    vector(g) gives the coordinates of g in a space of the given width.
    The rank fixpoint certifies stabilization. Independent seeds come
    first, then each new element in the order found, working last in,
    first out.
    """
    space = RowSpace(width)
    basis = [g for g in seeds if space.add(vector(g))]
    work = list(basis)
    steps = unit_steps(dim)
    while work:
        g = work.pop()
        for step in steps:
            h = move(g, step)
            if space.add(vector(h)):
                basis.append(h)
                work.append(h)
    return basis


def translate_closure(f: ExpPolynomial) -> list:
    """Basis of the span of all translates of f.

    Closure under the 2d unit translates: every translate is a product of
    unit steps, so once the span is stable under them it contains them all.
    """
    if f.is_zero():
        return []
    layout, index = _staircase_layout(f)
    return span_closure(
        [f],
        ExpPolynomial.translated,
        lambda g: _vectorize(g, f, index),
        len(layout),
        f.dim,
    )


def translate_span_dim(f: ExpPolynomial) -> int:
    """Dimension of the span of all translates (exact rank saturation)."""
    return len(translate_closure(f))


def frechet_order(f: ExpPolynomial) -> int:
    """Smallest n with every length n+1 difference product annihilating f.

    Input must be a single term p * c^x; the answer is the total degree of
    p. A difference product acts on p * c^x through plain differences of p,
    each of which lowers the degree by at least one, while the unit steps
    along a top-degree monomial x^alpha of p leave alpha! times its
    coefficient.
    """
    if len(f.terms) != 1:
        raise MultiTermInput("frechet_order needs exactly one exponential term")
    return f.terms[0][1].degree()
