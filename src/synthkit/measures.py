"""Finitely supported measures on Z^d and the exponentials they pair with.

A measure is a map from lattice points to nonzero Gaussian-rational
coefficients; convolution makes them a commutative ring with unit delta(0).
An exponential is a character x -> c^x determined by a base vector c with
nonzero coordinates.
"""

from __future__ import annotations

from typing import Iterable

from .errors import DimensionMismatch, EmptyShiftList, ZeroCoordinate
from .polynomials import SparseTerms
from .scalars import ONE, GaussianRational, _coerce

Point = tuple  # tuple[int, ...]


def check_point(dim: int, x) -> Point:
    x = tuple(x) if not isinstance(x, tuple) else x
    if len(x) != dim:
        raise DimensionMismatch(f"point {x} has length {len(x)}, expected {dim}")
    for v in x:
        if not isinstance(v, int):
            raise DimensionMismatch(f"point {x} has non-integer coordinate {v!r}")
    return x


def sub_points(x: Point, y: Point) -> Point:
    return tuple(a - b for a, b in zip(x, y))


def neg_point(x: Point) -> Point:
    return tuple(-a for a in x)


class Exponential:
    """Character x -> c^x on Z^d; every base coordinate must be nonzero."""

    __slots__ = ("dim", "base")

    def __init__(self, base: Iterable):
        coords = []
        for value in base:
            s = _coerce(value)
            if s is None or not isinstance(s, GaussianRational):
                raise TypeError(f"exponential coordinate {value!r} is not a scalar")
            if s.is_zero():
                raise ZeroCoordinate("exponential base has a zero coordinate")
            coords.append(s)
        if not coords:
            raise DimensionMismatch("exponential needs at least one coordinate")
        self.base = tuple(coords)
        self.dim = len(coords)

    def value_at(self, x) -> GaussianRational:
        x = check_point(self.dim, x)
        result = ONE
        for c, e in zip(self.base, x):
            if e:
                result = result * c**e
        return result

    def __eq__(self, other):
        return isinstance(other, Exponential) and self.base == other.base

    def __hash__(self):
        return hash(self.base)

    def sort_key(self):
        return tuple(c.sort_key() for c in self.base)

    def __repr__(self):
        return f"Exponential(({', '.join(str(c) for c in self.base)}))"


def trivial_exponential(dim: int) -> Exponential:
    return Exponential([ONE] * dim)


class Measure(SparseTerms):
    """Finitely supported measure: terms keyed by lattice points in Z^d,
    with convolution as the ring product."""

    __slots__ = ()

    _check_key = staticmethod(check_point)

    def support(self) -> list:
        return sorted(self.terms)

    def __repr__(self):
        items = ", ".join(f"{x}: {v}" for x, v in sorted(self.terms.items()))
        return f"Measure(dim={self.dim}, {{{items}}})"


def delta(x) -> Measure:
    """Unit point mass at the lattice point x."""
    x = tuple(x) if isinstance(x, (tuple, list)) else (x,)
    x = check_point(len(x), x)
    return Measure._raw(len(x), {x: ONE})


def convolve(mu: Measure, nu: Measure) -> Measure:
    """Ring product: (mu * nu)(s) = sum over x + y = s of mu(x) nu(y)."""
    return mu * nu


def difference_measure(m: Exponential, y) -> Measure:
    """delta(-y) - m(y) delta(0), the building block of higher differences."""
    y = check_point(m.dim, y)
    return delta(neg_point(y)) - m.value_at(y)


def difference_product(m: Exponential, ys: Iterable) -> Measure:
    """Convolution product of difference measures, one per shift in ys."""
    ys = list(ys)
    if not ys:
        raise EmptyShiftList("difference product needs at least one shift")
    out = difference_measure(m, ys[0])
    for y in ys[1:]:
        out = out * difference_measure(m, y)
    return out
