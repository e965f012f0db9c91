"""Transform round trips and the homomorphism property."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthkit import (
    Exponential,
    LaurentPoly,
    Measure,
    convolve,
    delta,
    inverse_transform,
    transform,
)
from synthkit.scalars import GaussianRational

from conftest import dims, exponentials, laurents, measures

FIB_LIKE = Measure(1, {(-2,): 1, (-1,): -3, (0,): 2})


def test_transform_point_mass():
    assert transform(delta((3,))) == LaurentPoly(1, {(-3,): 1})
    assert transform(delta((2, -1))) == LaurentPoly(2, {(-2, 1): 1})


def test_transform_reads_off_exponents():
    L = transform(FIB_LIKE)
    assert L == LaurentPoly(1, {(2,): 1, (1,): -3, (0,): 2})


def test_transform_in_two_dims():
    mu = Measure(2, {(-1, 0): 1, (0, 0): -2})
    assert transform(mu) == LaurentPoly(2, {(1, 0): 1, (0, 0): -2})


def test_inverse_transform_examples():
    L = LaurentPoly(1, {(2,): 1, (1,): -3, (0,): 2})
    assert inverse_transform(L) == FIB_LIKE
    assert inverse_transform(LaurentPoly.constant(1, 1)) == delta((0,))
    assert inverse_transform(LaurentPoly.zero(2)).is_zero()


def test_evaluate_at_exponentials():
    L = transform(FIB_LIKE)
    assert L.evaluate(Exponential((1,))).is_zero()
    assert L.evaluate(Exponential((2,))).is_zero()
    assert L.evaluate(Exponential((3,))) == 2


def test_negative_power_of_monomial():
    z = LaurentPoly.variable(1, 0)
    assert z ** -1 == LaurentPoly(1, {(-1,): 1})
    two_z = z.scaled(2)
    assert two_z ** -2 == LaurentPoly(1, {(-2,): GaussianRational(1) / 4})
    with pytest.raises(ValueError):
        (z + 1) ** -1


def test_variable_index_validation():
    with pytest.raises(ValueError):
        LaurentPoly.variable(1, 1)
    with pytest.raises(ValueError):
        LaurentPoly.variable(2, -1)


@given(dim=dims, data=st.data())
@settings(max_examples=100)
def test_transform_is_ring_homomorphism(dim, data):
    mu = data.draw(measures(dim))
    nu = data.draw(measures(dim))
    assert transform(convolve(mu, nu)) == transform(mu) * transform(nu)
    assert transform(mu + nu) == transform(mu) + transform(nu)


@given(dim=dims, data=st.data())
@settings(max_examples=60)
def test_round_trip_both_ways(dim, data):
    mu = data.draw(measures(dim))
    L = data.draw(laurents(dim))
    assert inverse_transform(transform(mu)) == mu
    assert transform(inverse_transform(L)) == L


@given(dim=dims, data=st.data())
@settings(max_examples=60)
def test_evaluate_is_multiplicative(dim, data):
    a = data.draw(laurents(dim, max_terms=3))
    b = data.draw(laurents(dim, max_terms=3))
    c = data.draw(exponentials(dim))
    assert (a * b).evaluate(c) == a.evaluate(c) * b.evaluate(c)


@given(dim=dims, data=st.data())
@settings(max_examples=60)
def test_evaluate_matches_moment_sum(dim, data):
    mu = data.draw(measures(dim))
    c = data.draw(exponentials(dim))
    total = GaussianRational(0)
    for x, v in mu.terms.items():
        total = total + v * c.value_at(tuple(-a for a in x))
    assert transform(mu).evaluate(c) == total
