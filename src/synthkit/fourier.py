"""Laurent polynomials as transforms of finitely supported measures.

transform(mu)(z) = sum over x of mu(x) z^-x, so evaluation at an
exponential base c recovers the moment sum of c^-x against mu. The map is
a ring isomorphism onto Laurent polynomials with Gaussian-rational
coefficients.
"""

from __future__ import annotations

from typing import Mapping

from .errors import DimensionMismatch
from .measures import Exponential, Measure, neg_point
from .polynomials import Polynomial
from .scalars import ONE, ZERO, GaussianRational, _coerce


class LaurentPoly:
    """Terms keyed by exponent vectors in Z^d; no zero coefficients."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping | None = None):
        self.dim = dim
        cleaned: dict = {}
        if terms:
            for alpha, v in terms.items():
                alpha = tuple(alpha)
                if len(alpha) != dim or any(not isinstance(a, int) for a in alpha):
                    raise DimensionMismatch(f"bad exponent {alpha} for dimension {dim}")
                s = _coerce(v)
                if s is None:
                    raise TypeError(f"coefficient {v!r} is not a scalar")
                if s:
                    prev = cleaned.get(alpha)
                    s = s if prev is None else prev + s
                    if s:
                        cleaned[alpha] = s
                    else:
                        del cleaned[alpha]
        self.terms = cleaned

    @classmethod
    def _raw(cls, dim: int, terms: dict) -> "LaurentPoly":
        self = object.__new__(cls)
        self.dim = dim
        self.terms = terms
        return self

    @classmethod
    def zero(cls, dim: int) -> "LaurentPoly":
        return cls._raw(dim, {})

    @classmethod
    def constant(cls, dim: int, value) -> "LaurentPoly":
        s = _coerce(value)
        if not s:
            return cls._raw(dim, {})
        return cls._raw(dim, {(0,) * dim: s})

    @classmethod
    def variable(cls, dim: int, index: int, power: int = 1) -> "LaurentPoly":
        if not 0 <= index < dim:
            raise ValueError(f"variable index {index} out of range for dimension {dim}")
        alpha = tuple(power if i == index else 0 for i in range(dim))
        return cls._raw(dim, {alpha: ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __add__(self, other):
        other = self._coerce_laurent(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for alpha, v in other.terms.items():
            s = out.get(alpha)
            s = v if s is None else s + v
            if s:
                out[alpha] = s
            else:
                del out[alpha]
        return LaurentPoly._raw(self.dim, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce_laurent(other)
        if other is None:
            return NotImplemented
        return self + other.scaled(-1)

    def __rsub__(self, other):
        other = self._coerce_laurent(other)
        if other is None:
            return NotImplemented
        return other + self.scaled(-1)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, s) -> "LaurentPoly":
        s = _coerce(s)
        if not s:
            return LaurentPoly._raw(self.dim, {})
        return LaurentPoly._raw(self.dim, {a: v * s for a, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            if other.dim != self.dim:
                raise DimensionMismatch("dimension mismatch")
            out: dict = {}
            for a, va in self.terms.items():
                for b, vb in other.terms.items():
                    key = tuple(x + y for x, y in zip(a, b))
                    c = va * vb
                    prev = out.get(key)
                    c = c if prev is None else prev + c
                    if c:
                        out[key] = c
                    else:
                        del out[key]
            return LaurentPoly._raw(self.dim, out)
        s = _coerce(other)
        if s is not None:
            return self.scaled(s)
        return NotImplemented

    def __rmul__(self, other):
        s = _coerce(other)
        if s is not None:
            return self.scaled(s)
        return NotImplemented

    def _coerce_laurent(self, other):
        if isinstance(other, LaurentPoly):
            if other.dim != self.dim:
                raise DimensionMismatch("dimension mismatch")
            return other
        s = _coerce(other)
        if s is not None:
            return LaurentPoly.constant(self.dim, s)
        return None

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            # Only monomials are units, so negative powers stop there.
            if len(self.terms) != 1:
                raise ValueError("negative power of a non-monomial Laurent polynomial")
            ((alpha, v),) = self.terms.items()
            inv = LaurentPoly._raw(self.dim, {neg_point(alpha): v.inverse()})
            return inv ** (-n)
        result = LaurentPoly.constant(self.dim, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
                key = alpha[:index] + (a - 1,) + alpha[index + 1 :]
                c = v * a
                prev = out.get(key)
                c = c if prev is None else prev + c
                if c:
                    out[key] = c
                else:
                    del out[key]
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

    def __repr__(self):
        return f"LaurentPoly(dim={self.dim}, {self})"


def transform(mu: Measure) -> LaurentPoly:
    """Moment generating transform: the coefficient at -x is mu(x)."""
    return LaurentPoly._raw(
        mu.dim, {neg_point(x): v for x, v in mu.coeffs.items()}
    )


def inverse_transform(L: LaurentPoly) -> Measure:
    return Measure._raw(
        L.dim, {neg_point(alpha): v for alpha, v in L.terms.items()}
    )
