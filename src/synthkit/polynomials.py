"""Multivariate polynomials with Gaussian-rational coefficients.

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


class Polynomial:
    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping | None = None):
        self.dim = dim
        cleaned: dict = {}
        if terms:
            for alpha, v in terms.items():
                alpha = tuple(alpha)
                if len(alpha) != dim or any(a < 0 or not isinstance(a, int) for a in alpha):
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
    def _raw(cls, dim: int, terms: dict) -> "Polynomial":
        self = object.__new__(cls)
        self.dim = dim
        self.terms = terms
        return self

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls._raw(dim, {})

    @classmethod
    def constant(cls, dim: int, value) -> "Polynomial":
        s = _coerce(value)
        if not s:
            return cls._raw(dim, {})
        return cls._raw(dim, {(0,) * dim: s})

    @classmethod
    def variable(cls, dim: int, index: int) -> "Polynomial":
        if not 0 <= index < dim:
            raise ValueError(f"variable index {index} out of range for dimension {dim}")
        alpha = tuple(1 if i == index else 0 for i in range(dim))
        return cls._raw(dim, {alpha: ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(alpha) for alpha in self.terms)

    def constant_term(self) -> GaussianRational:
        return self.terms.get((0,) * self.dim, ZERO)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __add__(self, other):
        other = self._coerce_poly(other)
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
        return Polynomial._raw(self.dim, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce_poly(other)
        if other is None:
            return NotImplemented
        return self + other.scaled(-1)

    def __rsub__(self, other):
        other = self._coerce_poly(other)
        if other is None:
            return NotImplemented
        return other + self.scaled(-1)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, s) -> "Polynomial":
        s = _coerce(s)
        if not s:
            return Polynomial._raw(self.dim, {})
        return Polynomial._raw(self.dim, {a: v * s for a, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if other.dim != self.dim:
                raise DimensionMismatch(f"dimension {self.dim} vs {other.dim}")
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
            return Polynomial._raw(self.dim, out)
        s = _coerce(other)
        if s is not None:
            return self.scaled(s)
        return NotImplemented

    def __rmul__(self, other):
        s = _coerce(other)
        if s is not None:
            return self.scaled(s)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = Polynomial.constant(self.dim, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _coerce_poly(self, other):
        if isinstance(other, Polynomial):
            if other.dim != self.dim:
                raise DimensionMismatch(f"dimension {self.dim} vs {other.dim}")
            return other
        s = _coerce(other)
        if s is not None:
            return Polynomial.constant(self.dim, s)
        return None

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
                c = v * mult
                prev = out.get(gamma)
                c = c if prev is None else prev + c
                if c:
                    out[gamma] = c
                else:
                    del out[gamma]
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

    def substitute_sum(self, var_map: list, new_dim: int) -> "Polynomial":
        """Replace variable i by the sum of new-ring variables var_map[i].

        Used to expand p(x + y_1 + ... + y_k) with symbolic shift blocks.
        """
        if len(var_map) != self.dim:
            raise DimensionMismatch("substitution map length mismatch")
        out: dict = {}
        for alpha, v in self.terms.items():
            partial = {(0,) * new_dim: v}
            for i, a in enumerate(alpha):
                if not a:
                    continue
                expansion = _power_of_sum(tuple(var_map[i]), a, new_dim)
                nxt: dict = {}
                for mono, coeff in partial.items():
                    for emono, emult in expansion:
                        key = tuple(x + y for x, y in zip(mono, emono))
                        c = coeff * emult
                        prev = nxt.get(key)
                        c = c if prev is None else prev + c
                        if c:
                            nxt[key] = c
                        else:
                            del nxt[key]
                partial = nxt
            for mono, coeff in partial.items():
                prev = out.get(mono)
                coeff = coeff if prev is None else prev + coeff
                if coeff:
                    out[mono] = coeff
                else:
                    del out[mono]
        return Polynomial._raw(new_dim, out)

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

    def __repr__(self):
        return f"Polynomial(dim={self.dim}, {self})"


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


@lru_cache(maxsize=None)
def _power_of_sum(var_indices: tuple, power: int, new_dim: int) -> tuple:
    """(u_{j1} + ... + u_{jm})^power expanded as ((monomial, coeff), ...)."""
    if not var_indices:
        raise ValueError("empty variable list in substitution")
    first, rest = var_indices[0], var_indices[1:]
    out = []
    if not rest:
        mono = [0] * new_dim
        mono[first] = power
        return ((tuple(mono), 1),)
    for k in range(power + 1):
        c = comb(power, k)
        for mono, mult in _power_of_sum(rest, power - k, new_dim):
            lifted = list(mono)
            lifted[first] += k
            out.append((tuple(lifted), c * mult))
    return tuple(out)


def symbolic_difference(p: Polynomial, blocks: int) -> Polynomial:
    """Iterated difference with symbolic shifts.

    Returns sum over S of (-1)^(blocks - |S|) p(x + sum of blocks in S) in a
    ring with blocks + 1 groups of p.dim variables: x first, then each shift.
    The result is the zero polynomial exactly when every choice of integer
    shifts annihilates p.
    """
    d = p.dim
    new_dim = d * (blocks + 1)
    total = Polynomial.zero(new_dim)
    for mask in range(1 << blocks):
        var_map = []
        for i in range(d):
            targets = [i]
            for j in range(blocks):
                if mask >> j & 1:
                    targets.append(d * (j + 1) + i)
            var_map.append(targets)
        term = p.substitute_sum(var_map, new_dim)
        sign = 1 if (blocks - bin(mask).count("1")) % 2 == 0 else -1
        total = total + term.scaled(sign)
    return total
