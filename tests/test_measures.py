"""Convolution algebra and difference measures, checked against hand
expansions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthkit import (
    Exponential,
    Measure,
    convolve,
    delta,
    difference_measure,
    difference_product,
    trivial_exponential,
)
from synthkit.errors import DimensionMismatch, EmptyShiftList, ZeroCoordinate

from conftest import dims, exponentials, measures


def test_delta_point_masses():
    assert delta((0,)) == Measure(1, {(0,): 1})
    assert delta((2, -1)) == Measure(2, {(2, -1): 1})
    assert convolve(delta((1,)), delta((3,))) == delta((4,))


def test_convolve_square():
    mu = Measure(1, {(-1,): 1, (0,): -1})
    assert convolve(mu, mu) == Measure(1, {(-2,): 1, (-1,): -2, (0,): 1})


def test_convolve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        convolve(delta((0,)), delta((0, 0)))


def test_difference_measure_trivial_base():
    m = trivial_exponential(1)
    assert difference_measure(m, (1,)) == Measure(1, {(-1,): 1, (0,): -1})


def test_difference_measure_base_two():
    m = Exponential((2,))
    assert difference_measure(m, (1,)) == Measure(1, {(-1,): 1, (0,): -2})
    # y = 0 collapses to the zero measure
    assert difference_measure(m, (0,)).is_zero()


def test_difference_product_squares_and_mixed():
    one = trivial_exponential(1)
    assert difference_product(one, [(1,), (1,)]) == Measure(
        1, {(-2,): 1, (-1,): -2, (0,): 1}
    )
    assert difference_product(one, [(1,), (2,)]) == Measure(
        1, {(-3,): 1, (-2,): -1, (-1,): -1, (0,): 1}
    )


def test_difference_product_zero_shift_kills():
    m = Exponential((2,))
    assert difference_product(m, [(1,), (0,)]).is_zero()


def test_difference_product_empty_list():
    with pytest.raises(EmptyShiftList):
        difference_product(trivial_exponential(1), [])


def test_exponential_rejects_zero_coordinate():
    with pytest.raises(ZeroCoordinate):
        Exponential((1, 0))


@given(dim=dims, data=st.data())
@settings(max_examples=60)
def test_convolution_ring(dim, data):
    mu = data.draw(measures(dim))
    nu = data.draw(measures(dim))
    rho = data.draw(measures(dim))
    unit = delta((0,) * dim)
    assert convolve(mu, unit) == mu
    assert convolve(mu, nu) == convolve(nu, mu)
    assert convolve(convolve(mu, nu), rho) == convolve(mu, convolve(nu, rho))
    assert convolve(mu + nu, rho) == convolve(mu, rho) + convolve(nu, rho)


@given(dim=dims, data=st.data())
@settings(max_examples=40)
def test_difference_product_permutation_invariant(dim, data):
    m = data.draw(exponentials(dim))
    ys = data.draw(
        st.lists(
            st.tuples(*[st.integers(-2, 2)] * dim), min_size=1, max_size=3
        )
    )
    rev = list(reversed(ys))
    assert difference_product(m, ys) == difference_product(m, rev)


@given(dim=dims, data=st.data())
@settings(max_examples=60)
def test_no_zero_coefficients_stored(dim, data):
    mu = data.draw(measures(dim))
    nu = data.draw(measures(dim))
    for result in (mu + nu, mu - nu, convolve(mu, nu)):
        assert all(v for v in result.terms.values())


@given(dim=dims, data=st.data())
@settings(max_examples=40)
def test_exponential_is_multiplicative(dim, data):
    m = data.draw(exponentials(dim))
    x = data.draw(st.tuples(*[st.integers(-3, 3)] * dim))
    y = data.draw(st.tuples(*[st.integers(-3, 3)] * dim))
    xy = tuple(a + b for a, b in zip(x, y))
    assert m.value_at(xy) == m.value_at(x) * m.value_at(y)
