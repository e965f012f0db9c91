"""The sparse-term ring kernel shared by Polynomial, LaurentPoly and Measure:
ring axioms, canonical storage, dimension and key checks, and powers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthkit import LaurentPoly, Measure, Polynomial, convolve
from synthkit.errors import DimensionMismatch

from conftest import dims, laurents, measures, nonzero_scalars, polynomials, scalars

KINDS = {Polynomial: polynomials, LaurentPoly: laurents, Measure: measures}
PARAMS = pytest.mark.parametrize("cls", list(KINDS), ids=lambda c: c.__name__)


def _draw(data, cls, count):
    dim = data.draw(dims)
    return dim, [data.draw(KINDS[cls](dim)) for _ in range(count)]


def _canonical(x) -> bool:
    return all(x.terms.values())


@PARAMS
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ring_axioms(cls, data):
    dim, (a, b, c) = _draw(data, cls, 3)
    zero, one = cls.zero(dim), cls.constant(dim, 1)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + zero == a
    assert a - a == zero
    assert -(-a) == a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * one == a
    assert a * zero == zero


@PARAMS
@settings(max_examples=40, deadline=None)
@given(data=st.data(), s=scalars)
def test_scalar_operand_is_that_scalar_times_the_unit(cls, data, s):
    dim, (a,) = _draw(data, cls, 1)
    unit = cls.constant(dim, s)
    assert a + s == a + unit == s + a
    assert a - s == a - unit
    assert s - a == unit - a
    assert a * s == a * unit == s * a == a.scaled(s)


@PARAMS
@settings(max_examples=40, deadline=None)
@given(data=st.data(), s=nonzero_scalars)
def test_no_stored_zero_after_cancelling(cls, data, s):
    dim, (a, b) = _draw(data, cls, 2)
    assert (a - a).terms == {}
    assert (a + a.scaled(-1)).terms == {}
    assert a.scaled(0).terms == {}
    assert (a * cls.zero(dim)).terms == {}
    for result in (a + b, a - b, a * b, a.scaled(s), (a - b) * (a + b)):
        assert _canonical(result)


@PARAMS
def test_cancelling_product_drops_the_key(cls):
    # (1 + k)(1 - k) = 1 - k^2: the cross terms cancel at the key k.
    k = (1,) if cls is Polynomial else (-1,)
    a = cls(1, {(0,): 1, k: 1})
    b = cls(1, {(0,): 1, k: -1})
    assert (a * b).terms == {(0,): 1, (2 * k[0],): -1}


@PARAMS
def test_mixed_dimensions_raise(cls):
    a = cls.constant(1, 2)
    b = cls.constant(2, 3)
    for op in (
        lambda: a + b,
        lambda: a - b,
        lambda: b - a,
        lambda: a * b,
        lambda: b * a,
    ):
        with pytest.raises(DimensionMismatch):
            op()


@PARAMS
def test_key_length_is_checked(cls):
    with pytest.raises(DimensionMismatch):
        cls(2, {(1,): 1})
    with pytest.raises(DimensionMismatch):
        cls(1, {(1.0,): 1})
    with pytest.raises(TypeError):
        cls(1, {(1,): "one"})


def test_only_polynomials_reject_negative_exponents():
    with pytest.raises(DimensionMismatch):
        Polynomial(2, {(1, -1): 1})
    assert LaurentPoly(2, {(1, -1): 1}).terms == {(1, -1): 1}
    assert Measure(2, {(1, -1): 1}).terms == {(1, -1): 1}


def test_equal_terms_of_different_kinds_are_not_equal():
    terms = {(0, 1): 2, (1, 0): -1}
    kinds = [cls(2, terms) for cls in KINDS]
    for i, x in enumerate(kinds):
        for j, y in enumerate(kinds):
            assert (x == y) is (i == j)


@PARAMS
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_equal_elements_hash_equal(cls, data):
    dim, (a, b) = _draw(data, cls, 2)
    assert hash(a + b) == hash(b + a)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.integers(0, 4))
def test_measure_power_is_repeated_convolution(data, n):
    dim = data.draw(dims)
    mu = data.draw(measures(dim, max_support=3))
    expected = Measure.constant(dim, 1)
    for _ in range(n):
        expected = convolve(expected, mu)
    assert mu**n == expected


@PARAMS
def test_negative_and_non_integer_powers_are_refused(cls):
    a = cls(1, {(1,): 1, (0,): 1})
    with pytest.raises(TypeError):
        a**0.5
    if cls is not LaurentPoly:
        with pytest.raises(TypeError):
            a**-1


def test_laurent_negative_powers_only_for_monomials():
    z = LaurentPoly.variable(2, 1)
    mono = z.scaled(2)
    assert mono**-2 * mono**2 == LaurentPoly.constant(2, 1)
    assert (mono**-1).terms == {(0, -1): mono.terms[(0, 1)].inverse()}
    with pytest.raises(ValueError):
        (z + 1) ** -1
    with pytest.raises(ValueError):
        LaurentPoly.zero(2) ** -1


@PARAMS
@pytest.mark.parametrize("value", [2.5, "2", None], ids=repr)
def test_non_scalars_are_refused(cls, value):
    # a non-scalar is never read as zero
    with pytest.raises(TypeError):
        cls(1, {(0,): value})
    with pytest.raises(TypeError):
        cls.constant(1, value)
    with pytest.raises(TypeError):
        cls(1, {(1,): 1}).scaled(value)
