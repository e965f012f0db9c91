"""Multivariate polynomials with Gaussian-rational coefficients, and the
sparse-term ring kernel they share with Laurent polynomials and measures.

Terms are keyed by exponent multi-indices in N^d. Shifts p(x + a) expand
binomially and stay inside the staircase (lower closure) of the support,
which keeps translate spans finite dimensional.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Mapping

from .errors import DimensionMismatch
from .scalars import ONE, ZERO, GaussianRational, _coerce

Monomial = tuple  # tuple[int, ...], entries >= 0


def grevlex_key(alpha: Monomial):
    """Sort key: ascending graded reverse lexicographic order."""
    return (sum(alpha), tuple(-a for a in reversed(alpha)))


def monomials_of_degree(dim: int, n: int) -> list:
    if dim == 1:
        return [(n,)]
    out = []
    for first in range(n, -1, -1):
        for rest in monomials_of_degree(dim - 1, n - first):
            out.append((first,) + rest)
    return sorted(out, key=grevlex_key)


def monomials_up_to(dim: int, n: int) -> list:
    out = []
    for k in range(n + 1):
        out.extend(monomials_of_degree(dim, k))
    return out


def _scalar(value) -> GaussianRational:
    """value as a Gaussian rational; TypeError if it is not a scalar."""
    s = _coerce(value)
    if s is None:
        raise TypeError(f"coefficient {value!r} is not a scalar")
    return s


def _accumulate(out: dict, key, c) -> None:
    """Add the nonzero scalar c at key, dropping the key if the sum cancels."""
    prev = out.get(key)
    c = c if prev is None else prev + c
    if c:
        out[key] = c
    else:
        del out[key]


class SparseTerms:
    """Finitely many nonzero coefficients keyed by integer vectors.

    The shared ring kernel of Polynomial, LaurentPoly and Measure: sums
    merge terms, products add keys and multiply coefficients, and a scalar
    operand stands for that scalar times the unit. Zero coefficients are
    never stored. A subclass fixes which keys are allowed (_check_key) and
    adds what its elements mean.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping | None = None):
        self.dim = dim
        cleaned: dict = {}
        if terms:
            for key, v in terms.items():
                key = self._check_key(dim, key)
                s = _scalar(v)
                if s:
                    _accumulate(cleaned, key, s)
        self.terms = cleaned

    @classmethod
    def _raw(cls, dim: int, terms: dict):
        self = object.__new__(cls)
        self.dim = dim
        self.terms = terms
        return self

    @classmethod
    def zero(cls, dim: int):
        return cls._raw(dim, {})

    @classmethod
    def constant(cls, dim: int, value):
        s = _scalar(value)
        if not s:
            return cls._raw(dim, {})
        return cls._raw(dim, {(0,) * dim: s})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def _operand(self, other):
        """other as an element of this ring, or None if it is not one."""
        if type(other) is type(self):
            if other.dim != self.dim:
                raise DimensionMismatch(f"dimension {self.dim} vs {other.dim}")
            return other
        s = _coerce(other)
        if s is not None:
            return self.constant(self.dim, s)
        return None

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        # The merge of _accumulate, inlined: sums and products are the hot loops.
        for key, v in other.terms.items():
            prev = out.get(key)
            v = v if prev is None else prev + v
            if v:
                out[key] = v
            else:
                del out[key]
        return self._raw(self.dim, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + other.scaled(-1)

    def __rsub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return other + self.scaled(-1)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, s):
        s = _scalar(s)
        if not s:
            return self._raw(self.dim, {})
        return self._raw(self.dim, {k: v * s for k, v in self.terms.items()})

    def __mul__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        small, large = self.terms, other.terms
        if len(large) < len(small):
            small, large = large, small
        out: dict = {}
        for a, va in small.items():
            for b, vb in large.items():
                key = tuple(x + y for x, y in zip(a, b))
                c = va * vb
                prev = out.get(key)
                c = c if prev is None else prev + c
                if c:
                    out[key] = c
                else:
                    del out[key]
        return self._raw(self.dim, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = self.constant(self.dim, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, {self})"


class Polynomial(SparseTerms):
    """Terms keyed by exponent vectors in N^d."""

    __slots__ = ()

    @staticmethod
    def _check_key(dim: int, alpha) -> tuple:
        alpha = tuple(alpha)
        if len(alpha) != dim or any(a < 0 or not isinstance(a, int) for a in alpha):
            raise DimensionMismatch(f"bad exponent {alpha} for dimension {dim}")
        return alpha

    @classmethod
    def variable(cls, dim: int, index: int) -> "Polynomial":
        if not 0 <= index < dim:
            raise ValueError(f"variable index {index} out of range for dimension {dim}")
        alpha = tuple(1 if i == index else 0 for i in range(dim))
        return cls._raw(dim, {alpha: ONE})

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(alpha) for alpha in self.terms)

    def constant_term(self) -> GaussianRational:
        return self.terms.get((0,) * self.dim, ZERO)

    def evaluate(self, point) -> GaussianRational:
        """Value at an integer lattice point."""
        point = tuple(point)
        if len(point) != self.dim:
            raise DimensionMismatch(f"point {point} vs dimension {self.dim}")
        total = ZERO
        for alpha, v in self.terms.items():
            factor = 1
            for x, a in zip(point, alpha):
                if a:
                    factor *= x**a
            total = total + v * factor
        return total

    def shift(self, a) -> "Polynomial":
        """p(x + a) for an integer vector a, expanded binomially."""
        a = tuple(a)
        if len(a) != self.dim:
            raise DimensionMismatch(f"shift {a} vs dimension {self.dim}")
        if not any(a):
            return self
        out: dict = {}
        for alpha, v in self.terms.items():
            for gamma, mult in _binomial_shift(alpha, a):
                _accumulate(out, gamma, v * mult)
        return Polynomial._raw(self.dim, out)

    def reflect(self) -> "Polynomial":
        """p(-x)."""
        out = {}
        for alpha, v in self.terms.items():
            out[alpha] = v if sum(alpha) % 2 == 0 else -v
        return Polynomial._raw(self.dim, out)

    def difference(self, y) -> "Polynomial":
        """Forward difference p(x + y) - p(x)."""
        return self.shift(y) - self

    def staircase(self) -> list:
        """Lower closure of the support; shifts never leave it."""
        seen = set()
        for alpha in self.terms:
            _add_lower_set(alpha, seen)
        return sorted(seen, key=grevlex_key)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for alpha in sorted(self.terms, key=grevlex_key):
            v = self.terms[alpha]
            mono = "*".join(
                f"x{i + 1}" + (f"^{a}" if a > 1 else "")
                for i, a in enumerate(alpha)
                if a
            )
            bits.append(f"({v})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def _add_lower_set(alpha: Monomial, seen: set) -> None:
    if alpha in seen:
        return
    stack = [alpha]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        for i, a in enumerate(cur):
            if a:
                stack.append(cur[:i] + (a - 1,) + cur[i + 1 :])


@lru_cache(maxsize=None)
def _binomial_shift(alpha: Monomial, a: tuple) -> tuple:
    """Expansion of prod (x_i + a_i)^alpha_i as ((gamma, int factor), ...)."""
    out = [(tuple(), 1)]
    for ai, av in zip(alpha, a):
        nxt = []
        if av == 0:
            for gamma, mult in out:
                nxt.append((gamma + (ai,), mult))
        else:
            powers = [1]
            for _ in range(ai):
                powers.append(powers[-1] * av)
            for gamma, mult in out:
                for g in range(ai + 1):
                    nxt.append((gamma + (g,), mult * comb(ai, g) * powers[ai - g]))
        out = nxt
    return tuple(out)
