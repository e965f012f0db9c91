"""Laurent polynomials as transforms of finitely supported measures.

transform(mu)(z) = sum over x of mu(x) z^-x, so evaluation at an
exponential base c recovers the moment sum of c^-x against mu. The map is
a ring isomorphism onto Laurent polynomials with Gaussian-rational
coefficients.
"""

from __future__ import annotations

from .errors import DimensionMismatch
from .measures import Exponential, Measure, neg_point
from .polynomials import Polynomial, SparseTerms, _accumulate
from .scalars import ONE, ZERO, GaussianRational


class LaurentPoly(SparseTerms):
    """Terms keyed by exponent vectors in Z^d; no zero coefficients."""

    __slots__ = ()

    @staticmethod
    def _check_key(dim: int, alpha) -> tuple:
        alpha = tuple(alpha)
        if len(alpha) != dim or any(not isinstance(a, int) for a in alpha):
            raise DimensionMismatch(f"bad exponent {alpha} for dimension {dim}")
        return alpha

    @classmethod
    def variable(cls, dim: int, index: int, power: int = 1) -> "LaurentPoly":
        if not 0 <= index < dim:
            raise ValueError(f"variable index {index} out of range for dimension {dim}")
        alpha = tuple(power if i == index else 0 for i in range(dim))
        return cls._raw(dim, {alpha: ONE})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n >= 0:
            return super().__pow__(n)
        # Only monomials are units, so negative powers stop there.
        if len(self.terms) != 1:
            raise ValueError("negative power of a non-monomial Laurent polynomial")
        ((alpha, v),) = self.terms.items()
        return LaurentPoly._raw(self.dim, {neg_point(alpha): v.inverse()}) ** -n

    def evaluate(self, c: Exponential) -> GaussianRational:
        """Value at an exponential base (all coordinates invertible)."""
        if c.dim != self.dim:
            raise DimensionMismatch("dimension mismatch")
        total = ZERO
        for alpha, v in self.terms.items():
            total = total + v * c.value_at(alpha)
        return total

    def derivative(self, index: int) -> "LaurentPoly":
        out: dict = {}
        for alpha, v in self.terms.items():
            a = alpha[index]
            if a:
                _accumulate(out, alpha[:index] + (a - 1,) + alpha[index + 1 :], v * a)
        return LaurentPoly._raw(self.dim, out)

    def to_polynomial(self):
        """Clear negative exponents: returns (shift, Polynomial) with
        z^shift * self polynomial and shift minimal componentwise."""
        if not self.terms:
            return (0,) * self.dim, Polynomial.zero(self.dim)
        shift = tuple(
            max(0, -min(alpha[i] for alpha in self.terms)) for i in range(self.dim)
        )
        out = {
            tuple(a + s for a, s in zip(alpha, shift)): v
            for alpha, v in self.terms.items()
        }
        return shift, Polynomial(self.dim, out)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for alpha in sorted(self.terms, key=lambda a: (sum(a), a)):
            v = self.terms[alpha]
            mono = "*".join(
                f"z{i + 1}" + (f"^{a}" if a != 1 else "")
                for i, a in enumerate(alpha)
                if a
            )
            bits.append(f"({v})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def transform(mu: Measure) -> LaurentPoly:
    """Moment generating transform: the coefficient at -x is mu(x)."""
    return LaurentPoly._raw(
        mu.dim, {neg_point(x): v for x, v in mu.terms.items()}
    )


def inverse_transform(L: LaurentPoly) -> Measure:
    return Measure._raw(
        L.dim, {neg_point(alpha): v for alpha, v in L.terms.items()}
    )
