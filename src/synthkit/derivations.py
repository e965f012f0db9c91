"""Higher-order derivations on transforms, stored by generating polynomial.

A derivation acts at an exponential c by the weighted moment sum
D(mu)(c) = sum over x of mu(x) p(x) c^-x. Its order is the total degree
of p: constants are the order-0 multiples of evaluation, and any
positive-degree p is normalized to p(0) = 0 at construction so that the
operator kills the unit measure.
"""

from __future__ import annotations

from .errors import DimensionMismatch
from .measures import Exponential, Measure, neg_point
from .polynomials import Polynomial
from .scalars import ZERO, GaussianRational


def moment(mu: Measure, p: Polynomial, c: Exponential) -> GaussianRational:
    """sum over x of mu(x) p(x) c^-x, the pairing behind every check here."""
    if mu.dim != p.dim or mu.dim != c.dim:
        raise DimensionMismatch("dimension mismatch")
    total = ZERO
    for x, v in mu.terms.items():
        total = total + v * p.evaluate(x) * c.value_at(neg_point(x))
    return total


def mass(mu: Measure, c: Exponential) -> GaussianRational:
    """Transform value at c: sum over x of mu(x) c^-x."""
    if mu.dim != c.dim:
        raise DimensionMismatch("dimension mismatch")
    total = ZERO
    for x, v in mu.terms.items():
        total = total + v * c.value_at(neg_point(x))
    return total


class Derivation:
    __slots__ = ("dim", "poly")

    def __init__(self, poly: Polynomial):
        degree = poly.degree()
        if degree is not None and degree >= 1:
            constant = poly.constant_term()
            if constant:
                poly = poly - Polynomial.constant(poly.dim, constant)
        self.poly = poly
        self.dim = poly.dim

    @property
    def order(self) -> int:
        degree = self.poly.degree()
        return 0 if degree is None else degree

    def apply(self, mu: Measure, c: Exponential) -> GaussianRational:
        return moment(mu, self.poly, c)

    __call__ = apply

    def compose(self, other: "Derivation") -> "Derivation":
        """Operator composition; generating polynomials multiply."""
        if other.dim != self.dim:
            raise DimensionMismatch("dimension mismatch")
        return Derivation(self.poly * other.poly)

    def is_order_at_most(self, n: int) -> bool:
        """Whether the generating polynomial has total degree at most n."""
        if n < 0:
            raise ValueError("order bound must be a natural number")
        return self.order <= n

    def leibniz_defect(
        self, mu: Measure, nu: Measure, c: Exponential
    ) -> GaussianRational:
        """D(mu*nu) - D(mu) nu-hat - mu-hat D(nu), all evaluated at c."""
        product = self.apply(mu * nu, c)
        left = self.apply(mu, c) * mass(nu, c)
        right = mass(mu, c) * self.apply(nu, c)
        return product - left - right

    def __eq__(self, other):
        return isinstance(other, Derivation) and self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def __repr__(self):
        return f"Derivation({self.poly})"


def identity_derivation(dim: int) -> Derivation:
    return Derivation(Polynomial.constant(dim, 1))


def compose(d1: Derivation, d2: Derivation) -> Derivation:
    return d1.compose(d2)
