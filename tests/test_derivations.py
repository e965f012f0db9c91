"""Derivations through generating polynomials: application, composition,
order, Leibniz defect, and the order-lowering recursion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthkit import (
    Derivation,
    Exponential,
    Measure,
    Polynomial,
    compose,
    delta,
    identity_derivation,
    moment,
    transform,
    trivial_exponential,
)
from synthkit.measures import neg_point
from synthkit.scalars import GaussianRational

from conftest import dims, exponentials, measures, points, polynomials

SQUARE_MU = Measure(1, {(-2,): 1, (-1,): -2, (0,): 1})  # transform (z-1)^2


def x_var(dim=1, index=0):
    return Polynomial.variable(dim, index)


def substitute_sum(p, var_map, new_dim):
    """p with variable i replaced by the sum of new-ring variables var_map[i]."""
    zero = Polynomial.zero(new_dim)
    sums = [
        sum((Polynomial.variable(new_dim, j) for j in targets), zero)
        for targets in var_map
    ]
    total = zero
    for alpha, v in p.terms.items():
        term = Polynomial.constant(new_dim, v)
        for s, a in zip(sums, alpha):
            term = term * s**a
        total = total + term
    return total


def symbolic_difference(p, blocks):
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
        var_map = [
            [i] + [d * (j + 1) + i for j in range(blocks) if mask >> j & 1]
            for i in range(d)
        ]
        sign = 1 if (blocks - bin(mask).count("1")) % 2 == 0 else -1
        total = total + substitute_sum(p, var_map, new_dim).scaled(sign)
    return total


def test_identity_derivation_is_evaluation():
    D = identity_derivation(1)
    mu = Measure(1, {(-2,): 1, (-1,): -3, (0,): 2})
    for base in (1, 2, 3):
        c = Exponential((GaussianRational(base),))
        assert D.apply(mu, c) == transform(mu).evaluate(c)


def test_apply_moment_examples():
    one = trivial_exponential(1)
    assert Derivation(x_var()).apply(SQUARE_MU, one).is_zero()
    assert Derivation(x_var() * x_var()).apply(SQUARE_MU, one) == 2


def test_apply_simple_root_weight():
    D = Derivation(x_var())
    c = Exponential((2,))
    assert D.apply(delta((1,)), c) == Fraction(1, 2)


def test_order_and_normalization():
    assert identity_derivation(2).order == 0
    assert Derivation(x_var() * x_var() + x_var()).order == 2
    # constant part is dropped for positive order
    D = Derivation(x_var() + 3)
    assert D.poly == x_var()
    # order-0 keeps its constant
    assert Derivation(Polynomial.constant(1, 7)).poly == Polynomial.constant(1, 7)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_order_bound_matches_symbolic_difference(dim):
    # p has order at most n exactly when every n+1 fold difference kills it.
    x = [x_var(dim, i) for i in range(dim)]
    polys = [Polynomial.zero(dim), Polynomial.constant(dim, 5)]
    for degree in (1, 2, 3):
        top = Polynomial.constant(dim, 1)
        for k in range(degree):
            top = top * x[k % dim]
        polys.append(top.scaled(2) + x[-1] - 3)
    for p in polys:
        D = Derivation(p)
        for n in range(D.order + 2):
            expected = symbolic_difference(D.poly, n + 1).is_zero()
            assert D.is_order_at_most(n) is expected
            assert expected is (n >= D.order)
    with pytest.raises(ValueError):
        Derivation(x[0]).is_order_at_most(-1)


def test_positive_order_vanishes_on_unit():
    one = trivial_exponential(2)
    D = Derivation(Polynomial(2, {(1, 1): 1}))
    assert D.apply(delta((0, 0)), one).is_zero()


def test_compose_multiplies_polynomials():
    Dx = Derivation(x_var())
    assert compose(Dx, Dx).poly == x_var() * x_var()
    D = Derivation(x_var() * x_var())
    assert compose(identity_derivation(1), D) == D
    assert compose(Dx, D) == compose(D, Dx)


def test_leibniz_defect_examples():
    one = trivial_exponential(1)
    mu = delta((1,))
    # additive generating function: defect vanishes identically
    assert Derivation(x_var()).leibniz_defect(SQUARE_MU, mu, one).is_zero()
    # order zero: defect = -mu-hat * nu-hat
    D0 = identity_derivation(1)
    got = D0.leibniz_defect(mu, mu, one)
    assert got == -(transform(mu).evaluate(one) * transform(mu).evaluate(one))
    # quadratic example
    D2 = Derivation(x_var() * x_var())
    assert D2.leibniz_defect(mu, mu, one) == 2


@given(dim=dims, data=st.data())
@settings(max_examples=40, deadline=None)
def test_generating_polynomial_faithful(dim, data):
    p = data.draw(polynomials(dim, max_degree=2, max_terms=3))
    D = Derivation(p)
    c = data.draw(exponentials(dim))
    x = data.draw(points(dim, span=2))
    recovered = D.apply(delta(x), c) * c.value_at(x)
    assert recovered == D.poly.evaluate(x)


@given(dim=dims, data=st.data())
@settings(max_examples=30, deadline=None)
def test_compose_matches_reweighting(dim, data):
    p1 = data.draw(polynomials(dim, max_degree=2, max_terms=3))
    p2 = data.draw(polynomials(dim, max_degree=2, max_terms=3))
    mu = data.draw(measures(dim, max_support=3))
    c = data.draw(exponentials(dim))
    D1, D2 = Derivation(p1), Derivation(p2)
    reweighted = Measure(
        dim, {x: v * D2.poly.evaluate(x) for x, v in mu.terms.items()}
    )
    assert compose(D1, D2).apply(mu, c) == D1.apply(reweighted, c)
    assert compose(D1, D2).order == D1.order + D2.order or (
        D1.poly.is_zero() or D2.poly.is_zero()
    )


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_defect_recursion_lowers_order(data):
    # The defect against a fixed point mass is itself a derivation whose
    # generating function is [p(x+y) - p(x) - p(y)] * c^{-y}, one degree
    # lower than p.
    dim = data.draw(dims)
    p = data.draw(
        polynomials(dim, max_degree=3, max_terms=3).filter(
            lambda q: (q.degree() or 0) >= 1
        )
    )
    D = Derivation(p)
    p = D.poly  # after constant normalization
    c = data.draw(exponentials(dim))
    y = data.draw(points(dim, span=2))
    mu = data.draw(measures(dim, max_support=3))

    g = (p.shift(y) - p - Polynomial.constant(dim, p.evaluate(y))).scaled(
        c.value_at(neg_point(y))
    )
    assert (g.degree() or 0) <= max(D.order - 1, 0)

    dy = delta(y)
    defect = D.leibniz_defect(mu, dy, c)
    assert defect == moment(mu, g, c)
