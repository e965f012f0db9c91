"""Shared strategies for exact-arithmetic objects.

Coefficients stay tiny (numerators within 3, denominators 1 or 2) so
symbolic identities run fast while still hitting sign and imaginary
cases.
"""

from fractions import Fraction

from hypothesis import strategies as st

from synthkit import (
    Exponential,
    GaussianRational,
    LaurentPoly,
    Measure,
    Polynomial,
)
from synthkit import groebner, ideals, linalg

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=2)

scalars = st.builds(GaussianRational, small_fractions, small_fractions)

nonzero_scalars = scalars.filter(bool)

dims = st.integers(min_value=1, max_value=3)

EXPONENTIAL_POOL = (
    GaussianRational(1),
    GaussianRational(-1),
    GaussianRational(2),
    GaussianRational(Fraction(1, 2)),
    GaussianRational(0, 1),
    GaussianRational(1, 1),
)


def points(dim: int, span: int = 3):
    return st.tuples(*[st.integers(-span, span)] * dim)


def measures(dim: int, max_support: int = 4):
    return st.dictionaries(points(dim), scalars, max_size=max_support).map(
        lambda coeffs: Measure(dim, coeffs)
    )


def laurents(dim: int, max_terms: int = 4):
    return st.dictionaries(points(dim, span=2), scalars, max_size=max_terms).map(
        lambda terms: LaurentPoly(dim, terms)
    )


def monomials(dim: int, max_degree: int = 3):
    return st.tuples(*[st.integers(0, max_degree)] * dim).filter(
        lambda alpha: sum(alpha) <= max_degree
    )


def polynomials(dim: int, max_degree: int = 3, max_terms: int = 4):
    return st.dictionaries(
        monomials(dim, max_degree), scalars, max_size=max_terms
    ).map(lambda terms: Polynomial(dim, terms))


def exponentials(dim: int):
    return st.tuples(*[st.sampled_from(EXPONENTIAL_POOL)] * dim).map(Exponential)


def count_groebner_builds(monkeypatch) -> list:
    """Spy on both bindings of groebner_basis; the list grows per build."""
    original = groebner.groebner_basis
    builds = []

    def spy(polys):
        polys = list(polys)
        builds.append(polys[0].dim)
        return original(polys)

    monkeypatch.setattr(groebner, "groebner_basis", spy)
    monkeypatch.setattr(ideals, "groebner_basis", spy)
    return builds


def count_s_polys(monkeypatch) -> list:
    """Spy on groebner._s_poly; the list grows by one leading-monomial pair
    per S-polynomial that Buchberger forms."""
    original = groebner._s_poly
    made = []

    def spy(f, lmf, g, lmg):
        made.append((lmf, lmg))
        return original(f, lmf, g, lmg)

    monkeypatch.setattr(groebner, "_s_poly", spy)
    return made


def count_row_space_adds(monkeypatch) -> list:
    """Spy on linalg.RowSpace.add; the list grows by the space's width per
    vector offered to any row space."""
    original = linalg.RowSpace.add
    widths = []

    def spy(self, vec):
        widths.append(self.width)
        return original(self, vec)

    monkeypatch.setattr(linalg.RowSpace, "add", spy)
    return widths
