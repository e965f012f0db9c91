"""Ideals of transforms: membership, roots, multiplicity, dual spaces.

A Laurent ideal J is handled through its polynomial part J ∩ K[z], the
saturation of the ideal I of its polynomial forms by m = z_1 ... z_d, so
Laurent units never affect membership. Each coordinate z_i has an
eliminant, the generator of I ∩ K[z_i]. When I is zero-dimensional and
no eliminant vanishes at 0, m is a unit on K[z]/I, I is already saturated
and its basis lives in K[z]; otherwise the basis carries the relation
t * m - 1 in one more variable (see _saturate). The roots are read off
the same eliminants, in every dimension. Local structure at a root is
read off moment functionals: q belongs to the dual space at c when
sum mu(x) q(x) c^-x kills every member of the ideal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod
from typing import Iterable

import mpmath

from .derivations import mass, moment
from .errors import (
    DegreeBoundRequired,
    DimensionMismatch,
    InfiniteOrder,
    PositiveDimensional,
)
from .exppoly import ExpPolynomial, span_closure, translate_closure, unit_steps
from .fourier import LaurentPoly, inverse_transform
from .groebner import eliminate, groebner_basis, normal_form, standard_monomials
from .linalg import nullspace
from .measures import Exponential, Measure, neg_point
from .polynomials import Polynomial, grevlex_key, monomials_of_degree
from .scalars import ONE, ZERO
from .univariate import ApproxRoot, _to_mpc, find_roots


def _embed(poly: Polynomial) -> Polynomial:
    """Lift into K[z, t], the ring of the fallback in _saturate."""
    terms = {alpha + (0,): v for alpha, v in poly.terms.items()}
    return Polynomial(poly.dim + 1, terms)


def _saturation_relation(dim: int) -> Polynomial:
    """t * z_1 ... z_d - 1, which makes m = z_1 ... z_d a unit."""
    terms = {(1,) * (dim + 1): ONE, (0,) * (dim + 1): -ONE}
    return Polynomial(dim + 1, terms)


def _saturate(forms: list, dim: int) -> tuple:
    """A reduced grevlex basis for I : m^infinity, where I is generated by
    `forms` and m = z_1 ... z_d, and the eliminants of z_1, ..., z_d when
    that basis lies in K[z] (None otherwise).

    On a zero-dimensional K[z]/I, m is a unit exactly when every z_i is,
    that is when the minimal polynomial of each z_i, its eliminant, has a
    nonzero constant term; then I is already saturated (Cox, Little &
    O'Shea, Using Algebraic Geometry, ch. 2 §4).

    Otherwise I is positive-dimensional or its variety meets a coordinate
    hyperplane, as for (z1 (z2 - 1), z1 (z1 - 2)), which contains the line
    z1 = 0, and the basis is that of I + (t m - 1) in K[z, t]. A
    polynomial in z lies in it exactly when it lies in I : m^infinity, and
    its quotient is the Laurent quotient (Ideals, Varieties, and
    Algorithms, ch. 4 §4).
    """
    basis = groebner_basis(forms)
    if standard_monomials(basis) is not None:
        eliminants = [eliminate(basis, i) for i in range(dim)]
        if all((0,) * dim in g.terms for g in eliminants):
            return basis, eliminants
    lifted = [_embed(g) for g in basis] + [_saturation_relation(dim)]
    return groebner_basis(lifted), None


class IdealHandle:
    """Finitely generated ideal of Laurent transforms; the Groebner basis
    of its polynomial part is computed on first use and cached."""

    def __init__(self, generators: Iterable):
        gens = list(generators)
        if not gens:
            raise ValueError("ideal needs at least one generator")
        dim = gens[0].dim
        for g in gens:
            if not isinstance(g, LaurentPoly):
                raise TypeError("generators must be Laurent polynomials")
            if g.dim != dim:
                raise DimensionMismatch("generator dimension mismatch")
        self.dim = dim
        self.generators = tuple(gens)
        self._groebner = None
        self._eliminants = None

    def __eq__(self, other):
        if not isinstance(other, IdealHandle):
            return NotImplemented
        return self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def groebner(self) -> list:
        """The reduced basis of the ideal's polynomial part (see
        _saturate). Its polynomials have one variable more than the ideal
        when the basis carries the saturation relation."""
        if self._groebner is None:
            forms = [g.to_polynomial()[1] for g in self.generators if not g.is_zero()]
            self._groebner, self._eliminants = _saturate(forms, self.dim)
        return self._groebner

    def is_zero(self) -> bool:
        return all(g.is_zero() for g in self.generators)

    def contains(self, L: LaurentPoly) -> bool:
        """Laurent membership; unit monomial factors are irrelevant."""
        if L.dim != self.dim:
            raise DimensionMismatch("dimension mismatch")
        if L.is_zero():
            return True
        if self.is_zero():
            return False
        basis = self.groebner()
        _, poly = L.to_polynomial()
        if basis[0].dim > self.dim:
            poly = _embed(poly)
        return normal_form(poly, basis).is_zero()

    def quotient_dimension(self):
        """Dimension of the Laurent quotient, None when infinite."""
        if self.is_zero():
            return None
        monos = standard_monomials(self.groebner())
        return None if monos is None else len(monos)

    def is_zero_dimensional(self) -> bool:
        return self.quotient_dimension() is not None

    def root_order(self, c: Exponential) -> int:
        """Minimum vanishing order of the generators at c."""
        if self.is_zero():
            raise InfiniteOrder("zero ideal vanishes to every order")
        return min(
            vanishing_order(g, c) for g in self.generators if not g.is_zero()
        )

    def zero_set(self):
        """Common roots on the torus of exponentials.

        Returns (exact, approximate): exact roots as Exponential bases,
        approximate ones as per-coordinate enclosure reports that are
        never consumed by exact computations. The candidates are the
        combinations of the roots of the coordinates' eliminants.
        """
        if self.is_zero():
            raise PositiveDimensional("zero ideal; supply candidate exponentials")
        if not self.is_zero_dimensional():
            raise PositiveDimensional(
                "infinite zero set; supply candidate exponentials"
            )
        if self._eliminants is None:  # the basis carries the relation
            self._eliminants = [eliminate(self.groebner(), i) for i in range(self.dim)]
        per_coordinate = []
        for i, g in enumerate(self._eliminants):
            coeffs = [ZERO] * (max(m[i] for m in g.terms) + 1)
            for mono, v in g.terms.items():
                coeffs[mono[i]] = v
            exact, approx = find_roots(coeffs)
            per_coordinate.append(
                [("exact", c) for c, _ in exact] + [("approx", a) for a in approx]
            )
        forms = [g.to_polynomial()[1] for g in self.generators if not g.is_zero()]
        exact_out = []
        approx_out = []
        for combo in itertools.product(*per_coordinate):
            if all(kind == "exact" for kind, _ in combo):
                base = Exponential([value for _, value in combo])
                if all(g.evaluate(base).is_zero() for g in self.generators):
                    exact_out.append(base)
            else:
                report = _approx_root(forms, combo)
                if report is not None:
                    approx_out.append(report)
        exact_out.sort(key=lambda e: e.sort_key())
        return exact_out, approx_out

    def local_dual_space(self, c: Exponential, cutoff: int | None = None):
        """Moment functionals of bounded degree killing the whole ideal.

        They are the local solutions at c reflected (see _local_kernel).
        With the cutoff omitted, the reported cutoff is the degree at
        which the dimension stalled.
        """
        if c.dim != self.dim:
            raise DimensionMismatch("dimension mismatch")
        if cutoff is not None and cutoff < 0:
            raise ValueError("cutoff must be a natural number")
        message = "ideal is not zero dimensional; pass an explicit cutoff"
        bound = _quotient_bound(self, message) if cutoff is None else cutoff
        measures = [inverse_transform(g) for g in self.generators if not g.is_zero()]
        polys, stall = _local_kernel(measures, c, bound)
        if cutoff is None:
            if stall is None:
                raise AssertionError("dual space failed to stabilize")
            cutoff = stall
        # Reflection turns each leading coefficient 1 into +-1, its own inverse.
        dual = [q.reflect() for q in polys]
        dual = [q.scaled(q.terms[max(q.terms, key=grevlex_key)]) for q in dual]
        low = sum(1 for q in dual if (q.degree() or 0) <= cutoff - 1)
        return DualSpaceBasis(
            c=c,
            cutoff=cutoff,
            polys=tuple(dual),
            stabilized=(low == len(dual)),
            root_in_zero_set=self._is_root(c),
        )

    def _is_root(self, c: Exponential) -> bool:
        return all(g.evaluate(c).is_zero() for g in self.generators)


def _approx_root(forms: list, combo):
    """The combination of coordinate roots as an ApproxExponential, or None
    when some polynomial form f of a generator is plainly nonzero there.

    With centre p and reported radii r (0 for an exact coordinate), the
    combination stays when |f(p)| is at most
    10^-25 sum_a |f_a p^a| + sum_a |f_a| ((|p| + 2r)^a - |p|^a). The first
    term covers the rounding of the evaluation. The second bounds
    |f(q) - f(p)| for q within distance 2r of p in each coordinate, which
    holds the reported box, so a true root whose centre is off by the
    rounding of its report is kept. Both scale with the coefficients and
    with the roots, large or small.
    """
    coords = tuple(
        value
        if kind == "approx"
        else ApproxRoot(re=value.re, im=value.im, radius=Fraction(0), multiplicity=1, certified=True)
        for kind, value in combo
    )
    with mpmath.workdps(60):
        point = [_to_mpc(c) for c in coords]
        reach = [
            abs(x) + 2 * mpmath.mpf(c.radius.numerator) / c.radius.denominator
            for x, c in zip(point, coords)
        ]
        for f in forms:
            total = mpmath.mpc(0)
            scale = spread = mpmath.mpf(0)
            for alpha, v in f.terms.items():
                term = _to_mpc(v)
                wide = abs(term)
                for x, y, a in zip(point, reach, alpha):
                    term *= x**a
                    wide *= y**a
                size = abs(term)
                total += term
                scale += size
                spread += wide - size
            if abs(total) > mpmath.mpf(10) ** -25 * scale + spread:
                return None
    return ApproxExponential(coords)


def _quotient_bound(handle: IdealHandle, message: str) -> int:
    """The degree bound that an omitted bound or cutoff stands for.

    Every local multiplicity is at most the quotient dimension qdim, so
    at any point the dimension of the local solutions stalls by degree
    max(qdim, 1); an ideal without roots (qdim 0) stalls at degree 1.
    """
    qdim = handle.quotient_dimension()
    if qdim is None:
        raise DegreeBoundRequired(message)
    return max(qdim, 1)


def _local_kernel(measures: list, c: Exponential, bound: int) -> tuple:
    """Polynomials p of degree at most bound with p(x) c^x annihilated by
    every measure, and the first degree k >= 1 at which their dimension
    stalls (None if it grows up to the bound).

    The basis is the canonical kernel basis: ordered by grevlex-leading
    monomial, leading coefficient one. With w_x = mu(x) c^-x and moments
    m_b = sum_x w_x x^b, mu annihilates p(x) c^x iff for every g the
    coefficient of y^g in sum_x w_x p(y - x) vanishes, that is
    sum_a p_a binom(a, g) (-1)^|a - g| m_(a - g) = 0. The degree grows by
    one; the weights and each moment are computed once.

    Three facts let this one engine serve solve_at_root, solve_system and
    IdealHandle.local_dual_space (Mourrain, "Isolated points, duality and
    residues", JPAA 117-118, 1997):

    1. The dual basis is the solution basis, reflected. q lies in the
       local dual space of the ideal of transforms at c iff sum_x mu(x)
       q(x - y) c^-x vanishes for all y, that is iff q(-x) is a local
       solution. Reflection scales the column of x^b by (-1)^|b|, so the
       canonical dual basis is each solution reflected and rescaled to
       grevlex-leading coefficient one.
    2. The stall theorem. Let S_k be the solutions of degree at most k.
       The solution space S is closed under differences, so if
       S_k = S_(k+1) then S = S_k: an element of least degree above k
       would have a difference of degree k + 1. The canonical basis
       depends on the space alone, and the columns of degree at most k
       come first at every larger degree, so stopping at the first stall
       returns the same polynomials as any larger bound.
    3. An omitted bound is the bound max(qdim, 1) (_quotient_bound).
    """
    dim = c.dim
    weights = [
        [(x, v * c.value_at(neg_point(x))) for x, v in mu.terms.items()]
        for mu in measures
    ]
    moments: list = [{} for _ in measures]
    columns: list = []
    previous = None
    for k in range(bound + 1):
        fresh = monomials_of_degree(dim, k)
        columns.extend(fresh)
        for pairs, table in zip(weights, moments):
            for beta in fresh:
                total = ZERO
                for x, w in pairs:
                    power = prod(a**b for a, b in zip(x, beta))
                    if power:
                        total = total + w * power
                table[beta] = total
        rows = []
        for table in moments:
            for gamma in columns:
                row = [ZERO] * len(columns)
                for j, alpha in enumerate(columns):
                    if any(a < g for a, g in zip(alpha, gamma)):
                        continue
                    diff = tuple(a - g for a, g in zip(alpha, gamma))
                    binom = prod(comb(a, g) for a, g in zip(alpha, gamma))
                    row[j] = table[diff] * (-binom if sum(diff) % 2 else binom)
                rows.append(row)
        # One vector per free column, which is its grevlex-leading monomial.
        polys = [
            Polynomial(dim, {m: v for m, v in zip(columns, vec) if v})
            for vec in nullspace(rows, len(columns))
        ]
        if len(polys) == previous:
            return polys, k
        previous = len(polys)
    return polys, None


@dataclass(frozen=True)
class ApproxExponential:
    """Numeric enclosure of a non-exact root, report-only."""

    coords: tuple

    @property
    def certified(self) -> bool:
        return all(r.certified for r in self.coords)

    @property
    def radius(self) -> Fraction:
        return max(r.radius for r in self.coords)


@dataclass(frozen=True)
class DualSpaceBasis:
    c: Exponential
    cutoff: int
    polys: tuple
    stabilized: bool
    root_in_zero_set: bool

    @property
    def dimension(self) -> int:
        return len(self.polys)


def member(I: IdealHandle, L: LaurentPoly) -> bool:
    return I.contains(L)


def vanishing_order(L: LaurentPoly, c: Exponential) -> int:
    """Least total order of a nonvanishing mixed partial at c."""
    if L.dim != c.dim:
        raise DimensionMismatch("dimension mismatch")
    if L.is_zero():
        raise InfiniteOrder("zero transform vanishes to every order")
    _, poly = L.to_polynomial()
    bound = poly.degree()
    level = [(L, 0)]
    for n in range(bound + 1):
        if any(not deriv.evaluate(c).is_zero() for deriv, _ in level):
            return n
        level = [
            (deriv.derivative(i), i)
            for deriv, start in level
            for i in range(start, L.dim)
        ]
    raise AssertionError("vanishing order exceeded the degree bound")


def max_ideal_power_member(L: LaurentPoly, c: Exponential, n: int) -> bool:
    """Membership in the (n+1)-st power of the maximal ideal at c.

    L lies in it exactly when it vanishes at c to order at least n + 1.
    """
    if n < 0:
        raise ValueError("power index must be a natural number")
    if L.is_zero():
        return True
    return vanishing_order(L, c) >= n + 1


def difference_closure(p: Polynomial) -> list:
    """Basis of the span of all iterated differences of p.

    Seeded by unit-step differences and closed under unit translations;
    the rank fixpoint certifies stabilization.
    """
    if p.is_zero():
        return []
    layout = p.staircase()
    index = {m: i for i, m in enumerate(layout)}

    def vec(q: Polynomial) -> list:
        out = [ZERO] * len(layout)
        for m, v in q.terms.items():
            out[index[m]] = v
        return out

    seeds = [p.difference(step) for step in unit_steps(p.dim)]
    return span_closure(seeds, Polynomial.shift, vec, len(layout), p.dim)


def derivation_ideal_member(
    p: Polynomial, c: Exponential, L: LaurentPoly
) -> bool:
    """Membership in the ideal of transforms killed at c by the derivation
    with generating polynomial p and all its difference companions.

    The conditions are that the transform vanishes at c and that the
    moments of p and of every member of its difference closure vanish.
    """
    if p.dim != c.dim or p.dim != L.dim:
        raise DimensionMismatch("dimension mismatch")
    mu = inverse_transform(L)
    if not mass(mu, c).is_zero():
        return False
    if p.is_zero():
        return True
    return moment(mu, p, c).is_zero() and all(
        moment(mu, w, c).is_zero() for w in difference_closure(p)
    )


def annihilates_translates(mu: Measure, f: ExpPolynomial) -> bool:
    """Convolution-pairing check of mu against the translate span of f.

    mu kills the span iff (mu * g)(0) = sum mu(x) g(-x) vanishes for every
    g in a translate-closure basis; translation invariance of the span
    upgrades the single evaluation point to the whole action.
    """
    for g in translate_closure(f):
        total = ZERO
        for x, v in mu.terms.items():
            total = total + v * g.evaluate(neg_point(x))
        if total:
            return False
    return True
