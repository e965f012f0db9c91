"""Buchberger engine on small hand-checkable systems."""

import itertools
import random
from fractions import Fraction

import pytest

from synthkit import Polynomial
from synthkit.groebner import (
    eliminate,
    groebner_basis,
    leading_monomials,
    normal_form,
    standard_monomials,
)
from synthkit.polynomials import grevlex_key

from conftest import count_row_space_adds


def P(dim, terms):
    return Polynomial(dim, terms)


def test_grevlex_orders_by_degree_first():
    assert grevlex_key((0, 0)) < grevlex_key((1, 0))
    assert grevlex_key((1, 0)) < grevlex_key((0, 2))
    # same degree: reverse lexicographic on reversed negated exponents
    assert grevlex_key((0, 1)) < grevlex_key((1, 0))


def test_principal_ideal_basis():
    x = Polynomial.variable(1, 0)
    basis = groebner_basis([x * x - 1])
    assert len(basis) == 1
    nf = normal_form((x - 1) * (x + 1), basis)
    assert nf.is_zero()
    assert not normal_form(x - 2, basis).is_zero()


def test_two_variable_intersection_point():
    # <x - 1, y - 2> cuts out the single point (1, 2)
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    basis = groebner_basis([x - 1, y - 2])
    std = standard_monomials(basis)
    assert std == [(0, 0)]
    assert normal_form((x - 1) * (y + 5), basis).is_zero()


def test_standard_monomials_of_fat_point():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    basis = groebner_basis([x * x, y])
    std = standard_monomials(basis)
    assert std == [(0, 0), (1, 0)]


def test_standard_monomials_positive_dimensional():
    x = Polynomial.variable(2, 0)
    basis = groebner_basis([x])
    assert standard_monomials(basis) is None


def test_leading_monomials_are_monic_markers():
    x = Polynomial.variable(1, 0)
    basis = groebner_basis([x * x * 3 - x.scaled(3)])
    lms = leading_monomials(basis)
    assert (2,) in lms


def test_eliminate_projects_variety():
    # x = y and y^2 = 1 project to x^2 = 1 on the first coordinate
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    found = eliminate(groebner_basis([x - y, y * y - 1]), 0)
    assert all(m[1] == 0 for m in found.terms)
    target = x * x - 1
    basis = groebner_basis([found])
    assert normal_form(target, basis).is_zero()


def test_eliminate_unit_ideal_gives_one():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    basis = groebner_basis([x - 1, x - 2, y])
    for keep in (0, 1):
        assert eliminate(basis, keep) == Polynomial.constant(2, 1)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_eliminate_fat_point_gives_its_power(k):
    z = Polynomial.variable(1, 0)
    basis = groebner_basis([(z - 1) ** k])
    assert eliminate(basis, 0) == (z - 1) ** k
    # the other coordinate of a 2-D fat point does not leak in
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    basis = groebner_basis([(x - 1) ** k, (y + 2) ** 2, (x - 1) * (y + 2)])
    assert eliminate(basis, 0) == (x - 1) ** k
    assert eliminate(basis, 1) == (y + 2) ** 2


def test_eliminate_without_a_basis_element_in_one_variable(monkeypatch):
    # the basis is [x - y, y^2 - 1]: no element lies in K[x], so x's
    # eliminant comes from the normal forms of 1, x, x^2; y^2 - 1 is y's
    adds = count_row_space_adds(monkeypatch)
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    basis = groebner_basis([x - y, y * y - 1])
    assert basis == [x - y, y * y - 1]
    assert eliminate(basis, 0) == x * x - 1
    assert adds[:3] == [2, 2, 2]  # the columns, over the 2 standard monomials
    looped = len(adds)
    assert eliminate(basis, 1) == y * y - 1
    assert len(adds) == looped


def _random_zero_dimensional(rng, dim):
    """Pure powers lead under grevlex, so the ideal is zero dimensional."""
    monos = [
        m for m in itertools.product(range(3), repeat=dim) if sum(m) <= 2
    ]
    gens = []
    for i in range(dim):
        k = rng.randint(2 if dim == 2 else 1, 3)
        lead = tuple(k if j == i else 0 for j in range(dim))
        terms = {lead: 1}
        lower = [m for m in monos if sum(m) < k]
        for m in rng.sample(lower, min(3, len(lower))):
            terms[m] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        gens.append(Polynomial(dim, terms))
    return gens


@pytest.mark.parametrize("seed", range(20))
def test_eliminate_matches_sympy_lex_basis(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    dim = 2 if seed % 2 else 3
    gens = _random_zero_dimensional(rng, dim)
    basis = groebner_basis(gens)
    zs = sympy.symbols(f"z0:{dim}")
    exprs = [
        sum(
            sympy.Rational(v.re.numerator, v.re.denominator)
            * sympy.prod(z**a for z, a in zip(zs, m))
            for m, v in g.terms.items()
        )
        for g in gens
    ]
    for keep in range(dim):
        gens_order = [z for j, z in enumerate(zs) if j != keep] + [zs[keep]]
        lex = sympy.groebner(exprs, *gens_order, order="lex")
        univariate = sympy.Poly(lex.exprs[-1], zs[keep]).monic()
        expected = {
            tuple(e if j == keep else 0 for j in range(dim)): Fraction(int(c.p), int(c.q))
            for (e,), c in univariate.terms()
        }
        assert eliminate(basis, keep) == Polynomial(dim, expected)


def test_buchberger_agrees_on_generator_presentation():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    a = groebner_basis([x - 1, y - 1])
    b = groebner_basis([x - y, y - 1])
    probe = (x - 1) * (y - 1)
    assert normal_form(probe, a).is_zero()
    assert normal_form(probe, b).is_zero()
    assert standard_monomials(a) == standard_monomials(b)
