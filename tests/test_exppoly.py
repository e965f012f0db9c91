"""Module action on exponential polynomials and the difference calculus."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthkit import (
    ExpPolynomial,
    Exponential,
    Measure,
    Polynomial,
    act,
    convolve,
    delta,
    difference_product,
    evaluate,
    frechet_order,
    transform,
    translate_span_dim,
    trivial_exponential,
)
from synthkit.errors import MultiTermInput
from synthkit.scalars import GaussianRational
from synthkit.suites import frechet_order_error

from conftest import dims, exponentials, measures, points, polynomials


def _mono(c, p):
    return ExpPolynomial.single(c, p)


def x_poly(dim=1, index=0):
    return Polynomial.variable(dim, index)


def test_evaluate_examples():
    two_x = _mono(Exponential((2,)), Polynomial.constant(1, 1))
    assert evaluate(two_x, (3,)) == 8
    ident = _mono(trivial_exponential(1), x_poly())
    assert evaluate(ident, (-5,)) == -5
    shifted = _mono(Exponential((2,)), x_poly() + 1)
    assert evaluate(shifted, (2,)) == 12


def test_act_difference_on_coordinate():
    mu = Measure(1, {(-1,): 1, (0,): -1})
    f = _mono(trivial_exponential(1), x_poly())
    out = act(mu, f)
    assert out == _mono(trivial_exponential(1), Polynomial.constant(1, 1))


def test_act_delta_translates():
    f = _mono(Exponential((2,)), x_poly())
    moved = act(delta((-3,)), f)
    for x in range(-4, 5):
        assert evaluate(moved, (x,)) == evaluate(f, (x + 3,))


def test_act_kills_matching_exponential():
    mu = Measure(1, {(-2,): 1, (-1,): -3, (0,): 2})
    f = _mono(Exponential((2,)), Polynomial.constant(1, 1))
    assert act(mu, f).is_zero()


def test_frechet_order_examples():
    one = trivial_exponential(1)
    assert frechet_order(_mono(one, x_poly() * x_poly())) == 2
    assert frechet_order(_mono(Exponential((3,)), Polynomial.constant(1, 5))) == 0
    assert frechet_order(_mono(Exponential((2,)), x_poly())) == 1


def _products_of_degree_five_and_six():
    half, i = GaussianRational(1, 2), GaussianRational(0, 1)
    x, y = x_poly(2, 0), x_poly(2, 1)
    f2 = x * x * y + x.scaled(2) - 1
    g2 = x * y * y - y + half
    u, v, w = x_poly(3, 0), x_poly(3, 1), x_poly(3, 2)
    f3 = u * v * w + w * w - 2
    g3 = v * v * v + u.scaled(i) + 1
    return [
        (Exponential((2, half)), f2 * g2, 6),
        (Exponential((-1, i)), f2 * (x * y - 1), 5),
        (Exponential((i, -1, GaussianRational(1, 1))), f3 * g3, 6),
        (trivial_exponential(3), f3 * (u * w + v), 5),
    ]


@pytest.mark.parametrize("c, p, degree", _products_of_degree_five_and_six())
def test_frechet_order_of_high_degree_products(c, p, degree):
    # The difference-product characterization on products of the degrees
    # the product-rule suite reaches.
    f = _mono(c, p)
    assert frechet_order(f) == degree
    assert frechet_order_error(f, degree) is None
    too_low = frechet_order_error(f, degree - 1)
    assert too_low == "difference product failed to annihilate"
    too_high = frechet_order_error(f, degree + 1)
    assert too_high == f"top-degree witness has length {degree}, not {degree + 1}"


def test_frechet_order_rejects_multi_term():
    f = _mono(trivial_exponential(1), x_poly()) + _mono(
        Exponential((2,)), Polynomial.constant(1, 1)
    )
    with pytest.raises(MultiTermInput):
        frechet_order(f)


def test_translate_span_dims():
    assert translate_span_dim(_mono(Exponential((2,)), Polynomial.constant(1, 1))) == 1
    assert translate_span_dim(_mono(trivial_exponential(1), x_poly())) == 2
    sq = Polynomial(2, {(2, 0): 1, (0, 2): 1})
    assert translate_span_dim(_mono(trivial_exponential(2), sq)) == 4


@given(dim=dims, data=st.data())
@settings(max_examples=30, deadline=None)
def test_act_composes_over_convolution(dim, data):
    mu = data.draw(measures(dim, max_support=3))
    nu = data.draw(measures(dim, max_support=3))
    c = data.draw(exponentials(dim))
    p = data.draw(polynomials(dim, max_degree=2, max_terms=3))
    f = _mono(c, p)
    assert act(convolve(mu, nu), f) == act(mu, act(nu, f))


@given(dim=dims, data=st.data())
@settings(max_examples=30, deadline=None)
def test_act_linear(dim, data):
    mu = data.draw(measures(dim, max_support=3))
    nu = data.draw(measures(dim, max_support=3))
    c = data.draw(exponentials(dim))
    p = data.draw(polynomials(dim, max_degree=2, max_terms=3))
    q = data.draw(polynomials(dim, max_degree=2, max_terms=3))
    f, g = _mono(c, p), _mono(c, q)
    assert act(mu + nu, f) == act(mu, f) + act(nu, f)
    assert act(mu, f + g) == act(mu, f) + act(mu, g)


@given(dim=dims, data=st.data())
@settings(max_examples=30, deadline=None)
def test_constant_term_action_is_transform_eval(dim, data):
    # acting on a pure exponential scales it by the transform value
    mu = data.draw(measures(dim, max_support=3))
    c = data.draw(exponentials(dim))
    f = _mono(c, Polynomial.constant(dim, 1))
    out = act(mu, f)
    scale = transform(mu).evaluate(c)
    assert out == _mono(c, Polynomial.constant(dim, scale))


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_difference_reweighting_identity(data):
    # act(diff product, p*m) = m(sum ys) * (plain differences of p) * m
    dim = data.draw(dims)
    m = data.draw(exponentials(dim))
    p = data.draw(polynomials(dim, max_degree=2, max_terms=3))
    ys = data.draw(
        st.lists(points(dim, span=2), min_size=1, max_size=2)
    )
    left = act(difference_product(m, ys), _mono(m, p))
    q = p
    for y in ys:
        q = q.difference(y)
    total = tuple(sum(col) for col in zip(*ys))
    weight = m.value_at(total)
    right = _mono(m, q.scaled(weight))
    assert left == right


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_degree_additivity_of_products(data):
    one = trivial_exponential(1)
    p = data.draw(polynomials(1, max_degree=2, max_terms=3).filter(
        lambda q: not q.is_zero()
    ))
    q = data.draw(polynomials(1, max_degree=2, max_terms=3).filter(
        lambda r: not r.is_zero()
    ))
    k = frechet_order(_mono(one, p))
    n = frechet_order(_mono(one, q))
    assert frechet_order(_mono(one, p * q)) == k + n
    killer = difference_product(one, [(1,)] * (k + n + 1))
    assert act(killer, _mono(one, p * q)).is_zero()
