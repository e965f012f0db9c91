"""Ideal membership, roots, local duals, and annihilation conditions."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from synthkit import (
    Exponential,
    ExpPolynomial,
    IdealHandle,
    LaurentPoly,
    Polynomial,
)
from synthkit.errors import (
    DegreeBoundRequired,
    DimensionMismatch,
    InfiniteOrder,
    PositiveDimensional,
)
from synthkit.fourier import inverse_transform
from synthkit.ideals import (
    ApproxExponential,
    annihilates_translates,
    derivation_ideal_member,
    difference_closure,
    max_ideal_power_member,
    member,
    vanishing_order,
)
from synthkit.scalars import ZERO, GaussianRational
from synthkit.synthesis import solve_at_root
from synthkit.univariate import find_roots
from synthkit.univariate import gcd as dense_gcd

from conftest import (
    count_groebner_builds,
    count_row_space_adds,
    count_s_polys,
    dims,
    laurents,
    points,
)

Z = LaurentPoly.variable(1, 0)
ONE_L = LaurentPoly.constant(1, 1)


def gr(n, d=1):
    return GaussianRational(Fraction(n, d))


def exp1(value):
    return Exponential((gr(value),))


# membership


def test_membership_in_principal_ideal():
    I = IdealHandle([Z - 1])
    assert member(I, Z * Z - 1)
    assert not member(I, Z - 2)


def test_membership_ignores_unit_monomial_factors():
    I = IdealHandle([Z - 1])
    shifted = (Z - 1) * Z**-3
    assert member(I, shifted)
    assert member(IdealHandle([shifted]), Z - 1)


def test_membership_two_variables():
    z1, z2 = LaurentPoly.variable(2, 0), LaurentPoly.variable(2, 1)
    I = IdealHandle([z1 - 1, z2 - 1])
    assert member(I, (z1 - 1) * (z2 - 1))
    assert not member(I, z1 + z2)


def test_zero_transform_is_everywhere():
    I = IdealHandle([Z - 1])
    assert member(I, LaurentPoly.constant(1, 0))


def test_zero_ideal_contains_only_zero():
    I = IdealHandle([LaurentPoly.constant(1, 0)])
    assert I.is_zero()
    assert member(I, LaurentPoly.constant(1, 0))
    assert not member(I, Z - 1)


def test_generator_validation():
    with pytest.raises(ValueError):
        IdealHandle([])
    with pytest.raises(TypeError):
        IdealHandle([Polynomial.variable(1, 0)])
    with pytest.raises(DimensionMismatch):
        IdealHandle([Z, LaurentPoly.variable(2, 0)])


@settings(deadline=None)
@given(dims.flatmap(lambda d: laurents(d).flatmap(lambda g: laurents(d).map(lambda h: (g, h)))))
def test_products_with_generators_stay_inside(pair):
    g, h = pair
    if g.is_zero():
        return
    I = IdealHandle([g])
    assert I.contains(g * h)


# vanishing order and maximal ideal powers


def test_vanishing_order_counts_root_multiplicity():
    c = exp1(1)
    assert vanishing_order((Z - 1) ** 2, c) == 2
    assert vanishing_order((Z - 1) * (Z - 2), c) == 1
    assert vanishing_order(Z - 2, c) == 0


def test_vanishing_order_zero_input():
    with pytest.raises(InfiniteOrder):
        vanishing_order(LaurentPoly.constant(1, 0), exp1(1))


def test_max_ideal_power_single_variable():
    L = (Z - 1) ** 2
    c = exp1(1)
    assert max_ideal_power_member(L, c, 0)
    assert max_ideal_power_member(L, c, 1)
    assert not max_ideal_power_member(L, c, 2)


def test_max_ideal_power_nonvanishing():
    assert not max_ideal_power_member(ONE_L, exp1(1), 0)


def test_max_ideal_power_two_variables():
    z1, z2 = LaurentPoly.variable(2, 0), LaurentPoly.variable(2, 1)
    L = (z1 - 1) * (z2 - 1)
    c = Exponential((gr(1), gr(1)))
    assert max_ideal_power_member(L, c, 1)
    assert not max_ideal_power_member(L, c, 2)


def test_max_ideal_power_rejects_negative_index():
    with pytest.raises(ValueError):
        max_ideal_power_member(Z - 1, exp1(1), -1)


# root order and zero sets


def test_root_order_minimizes_over_generators():
    I = IdealHandle([(Z - 1) ** 2 * (Z - 2)])
    assert I.root_order(exp1(1)) == 2
    assert I.root_order(exp1(2)) == 1
    assert I.root_order(exp1(3)) == 0


def test_root_order_of_unit_ideal():
    assert IdealHandle([ONE_L]).root_order(exp1(1)) == 0


def test_root_order_zero_ideal():
    with pytest.raises(InfiniteOrder):
        IdealHandle([LaurentPoly.constant(1, 0)]).root_order(exp1(1))


def test_zero_set_exact_points():
    I = IdealHandle([(Z - 1) * (Z - 2)])
    exact, approx = I.zero_set()
    assert approx == []
    assert [e.base for e in exact] == [(gr(1),), (gr(2),)]


def test_zero_set_certified_enclosures():
    I = IdealHandle([Z * Z - Z - 1])
    exact, approx = I.zero_set()
    assert exact == []
    assert len(approx) == 2
    for report in approx:
        assert report.certified
        assert report.radius == Fraction(1, 2**40)


def test_zero_set_two_variables():
    z1, z2 = LaurentPoly.variable(2, 0), LaurentPoly.variable(2, 1)
    I = IdealHandle([z1 - 1, z2 - 2])
    exact, approx = I.zero_set()
    assert approx == []
    assert [e.base for e in exact] == [(gr(1), gr(2))]


def test_zero_set_builds_one_groebner_basis(monkeypatch):
    # the cached grevlex basis serves quotient_dimension and every
    # coordinate's elimination; a block order per coordinate made it 4, and
    # the basis is built in the ideal's own 3 variables, without t
    builds = count_groebner_builds(monkeypatch)
    zs = [LaurentPoly.variable(3, i) for i in range(3)]
    exact, approx = IdealHandle([(z - 1) ** 2 for z in zs]).zero_set()
    assert approx == []
    assert [e.base for e in exact] == [(gr(1), gr(1), gr(1))]
    assert builds == [3]


def test_fat_point_eliminants_are_basis_elements(monkeypatch):
    # each (z_i - 1)^3 is the basis element in z_i alone, so it is z_i's
    # eliminant: saturation and roots offer no vector to a row space
    adds = count_row_space_adds(monkeypatch)
    zs = [LaurentPoly.variable(3, i) for i in range(3)]
    I = IdealHandle([(z - 1) ** 3 for z in zs])
    exact, approx = I.zero_set()
    assert I.quotient_dimension() == 27
    assert approx == []
    assert [e.base for e in exact] == [(gr(1), gr(1), gr(1))]
    assert adds == []


def _zero_set_by_gcd(generators):
    """Reference for 1-D ideals: the roots of the gcd of the generators'
    polynomial forms, the route zero_set took in one variable before it
    read every dimension off the coordinates' eliminants."""
    dense = []
    for g in generators:
        if g.is_zero():
            continue
        _, poly = g.to_polynomial()
        coeffs = [ZERO] * (max(a[0] for a in poly.terms) + 1)
        for alpha, v in poly.terms.items():
            coeffs[alpha[0]] = v
        dense = coeffs if not dense else dense_gcd(dense, coeffs)
    exact, approx = find_roots(dense)
    return [Exponential((c,)) for c, _ in exact], [ApproxExponential((a,)) for a in approx]


_UNIVARIATE_FACTORS = (
    Z - 1,
    Z - 2,
    Z + 1,
    Z - gr(1, 2),
    Z - GaussianRational(0, 1),
    Z - GaussianRational(1, 1),
    Z * Z - 2,  # irrational roots
    Z * Z - Z - 1,
    Z * Z + Z + 1,  # complex roots of unity
    Z * Z - gr(1, 10**60),  # roots far below the centres' rounding
)


def _univariate_ideal(seed):
    """Generators z^k c h f_j sharing the factor h, each with its own
    cofactor f_j, unit monomial z^k (a root at 0 in K[z] for k > 0) and
    scalar c, from 1 up to 10^30."""
    rng = random.Random(seed)
    common = LaurentPoly.constant(1, 1)
    for _ in range(rng.randint(0, 3)):
        common = common * rng.choice(_UNIVARIATE_FACTORS)
    gens = []
    for _ in range(rng.randint(2, 3)):
        cofactor = rng.choice(_UNIVARIATE_FACTORS) * rng.choice(_UNIVARIATE_FACTORS)
        scale = gr(rng.choice([1, -3, 7, 10**30])) * GaussianRational(1, rng.randint(-1, 1))
        gens.append(Z ** rng.randint(-2, 2) * common * cofactor * scale)
    return gens


@pytest.mark.parametrize("seed", range(60))
def test_univariate_zero_set_matches_the_gcd_route(seed):
    gens = _univariate_ideal(seed)
    assert IdealHandle(gens).zero_set() == _zero_set_by_gcd(gens)


def test_zero_set_positive_dimensional():
    z1 = LaurentPoly.variable(2, 0)
    with pytest.raises(PositiveDimensional):
        IdealHandle([z1 - 1]).zero_set()


def test_quotient_dimension():
    assert IdealHandle([(Z - 1) ** 2 * (Z - 2)]).quotient_dimension() == 3
    assert IdealHandle([ONE_L]).quotient_dimension() == 0
    z1 = LaurentPoly.variable(2, 0)
    assert IdealHandle([z1 - 1]).quotient_dimension() is None


# saturation: the polynomial part of a Laurent ideal


def test_fat_point_build_forms_no_s_polynomial(monkeypatch):
    # (z_i - 1)^3 have coprime leading monomials, so in K[z1, z2, z3] they
    # are already a basis and the product criterion skips every pair
    made = count_s_polys(monkeypatch)
    builds = count_groebner_builds(monkeypatch)
    zs = [LaurentPoly.variable(3, i) for i in range(3)]
    I = IdealHandle([(z - 1) ** 3 for z in zs])
    assert I.quotient_dimension() == 27
    assert made == []
    assert builds == [3]


def test_saturation_drops_a_root_off_the_torus(monkeypatch):
    # in K[z] the roots are (0, 1) and (2, 1); z1 z2 is nilpotent at the
    # first, so the basis carries the relation t z1 z2 - 1, which removes it
    builds = count_groebner_builds(monkeypatch)
    z1, z2 = LaurentPoly.variable(2, 0), LaurentPoly.variable(2, 1)
    I = IdealHandle([z1 * (z1 - 2), z2 - 1])
    assert I.quotient_dimension() == 1
    assert I.contains(z1 - 2)
    assert I.contains((z1 - 2) * z2**-3)
    assert not I.contains(z1)
    exact, approx = I.zero_set()
    assert approx == []
    assert [e.base for e in exact] == [(gr(2), gr(1))]
    assert builds == [2, 3]


def test_saturation_of_roots_only_off_the_torus_is_the_unit_ideal(monkeypatch):
    builds = count_groebner_builds(monkeypatch)
    z1, z2 = LaurentPoly.variable(2, 0), LaurentPoly.variable(2, 1)
    I = IdealHandle([z1**2, z2 - 1])
    assert I.quotient_dimension() == 0
    assert I.contains(LaurentPoly.constant(2, 1))
    assert builds == [2, 3]


def test_saturation_falls_back_to_the_relation_in_one_more_variable(monkeypatch):
    # the one Laurent root is (2, 1), but the variety in K[z] contains the
    # line z1 = 0, so m = z1 z2 has no minimal polynomial on K[z]/I
    builds = count_groebner_builds(monkeypatch)
    z1, z2 = LaurentPoly.variable(2, 0), LaurentPoly.variable(2, 1)
    I = IdealHandle([z1 * (z2 - 1), z1 * (z1 - 2)])
    assert I.quotient_dimension() == 1
    assert I.contains(z1 - 2)
    assert I.contains(z2 - 1)
    assert not I.contains(z1 - 1)
    exact, approx = I.zero_set()
    assert approx == []
    assert [e.base for e in exact] == [(gr(2), gr(1))]
    assert builds == [2, 3]


def _oracle_coefficient(rng):
    re = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    im = rng.choice([0, 0, 0, rng.randint(-2, 2)])
    return GaussianRational(re, im)


def _oracle_ideal(seed):
    """Seeded Laurent ideals in 2-3 variables, and membership candidates.

    Each generator is z^a_j p_j, where p_j is led by a pure power of z_j,
    so the Laurent ideal is (p_j) and is zero-dimensional. The monomial
    factors, and lower terms without a constant, put roots on coordinate
    hyperplanes in K[z]. Every fourth seed drops a generator, which makes
    the ideal positive-dimensional. The candidates are the p_j shifted by
    a Laurent monomial, a combination of them (all members) and a few
    near misses.
    """
    rng = random.Random(seed)
    dim = 2 + seed % 2
    low = [m for m in itertools.product(range(2), repeat=dim) if sum(m) <= 1]
    ps = []
    for j in range(dim):
        k = rng.choice([1, 2, 2])
        terms = {tuple(k if i == j else 0 for i in range(dim)): GaussianRational(1)}
        if k == 2:
            for m in rng.sample(low[1:], 2):
                terms[m] = _oracle_coefficient(rng)
        if k == 1 or rng.random() < 0.6:
            terms[low[0]] = rng.choice([-2, -1, 1, 2, Fraction(1, 2)])
        ps.append(LaurentPoly(dim, terms))
    if seed % 4 == 3:
        ps.pop()
    units = [
        LaurentPoly(dim, {tuple(rng.randint(0, 1) for _ in range(dim)): 1})
        if rng.random() < 0.6
        else LaurentPoly.constant(dim, 1)
        for _ in ps
    ]
    shift = LaurentPoly(dim, {tuple(-rng.randint(0, 2) for _ in range(dim)): 1})
    combo = sum(
        (p * LaurentPoly(dim, {m: _oracle_coefficient(rng) for m in low}) for p in ps),
        LaurentPoly.zero(dim),
    )
    candidates = [p * shift for p in ps] + [
        combo,
        ps[0] + 1,
        ps[0] * LaurentPoly.variable(dim, 0) + LaurentPoly.variable(dim, dim - 1),
        LaurentPoly(dim, {m: _oracle_coefficient(rng) for m in low}),
    ]
    return [u * p for u, p in zip(units, ps)], candidates


def _sympy_form(sympy, L, zs):
    """The polynomial form of L: its terms shifted to the least exponents."""
    low = [min(a[i] for a in L.terms) for i in range(L.dim)]
    total = 0
    for alpha, v in L.terms.items():
        coeff = sympy.Rational(v.re.numerator, v.re.denominator) + sympy.I * sympy.Rational(
            v.im.numerator, v.im.denominator
        )
        total += coeff * sympy.prod(z ** (a - l) for z, a, l in zip(zs, alpha, low))
    return sympy.expand(total)


def _sympy_quotient_dimension(sympy, basis, gens):
    lms = [sympy.Poly(g, *gens).monoms(order="grevlex")[0] for g in basis.exprs]
    bounds = [
        min((lm[i] for lm in lms if sum(lm) == lm[i]), default=None)
        for i in range(len(gens))
    ]
    if None in bounds:
        return None
    box = itertools.product(*(range(b) for b in bounds))
    return sum(
        1
        for mono in box
        if not any(all(a <= b for a, b in zip(lm, mono)) for lm in lms)
    )


@pytest.mark.parametrize("seed", range(24))
def test_saturation_matches_sympy_rabinowitsch_basis(seed):
    sympy = pytest.importorskip("sympy")
    gens, candidates = _oracle_ideal(seed)
    dim = gens[0].dim
    zs = sympy.symbols(f"z0:{dim}")
    t = sympy.Symbol("t")
    forms = [_sympy_form(sympy, g, zs) for g in gens]
    relation = t * sympy.prod(zs) - 1
    basis = sympy.groebner(
        forms + [relation], *zs, t, order="grevlex", domain=sympy.QQ_I
    )
    I = IdealHandle(gens)
    assert I.quotient_dimension() == _sympy_quotient_dimension(sympy, basis, (*zs, t))
    for L in candidates:
        assert I.contains(L) == basis.contains(_sympy_form(sympy, L, zs)), L


def test_saturation_oracle_reaches_every_branch(monkeypatch):
    # one build in d variables when m is a unit, or a second one, the
    # fallback in d + 1 variables
    builds = count_groebner_builds(monkeypatch)
    shapes = set()
    for seed in range(24):
        gens, _ = _oracle_ideal(seed)
        dim = gens[0].dim
        IdealHandle(gens).groebner()
        shapes.add(tuple(b - dim for b in builds))
        builds.clear()
    assert shapes == {(0,), (0, 1)}


# local dual spaces


def test_dual_space_of_double_point():
    I = IdealHandle([(Z - 1) ** 2])
    basis = I.local_dual_space(exp1(1))
    assert basis.stabilized
    assert basis.root_in_zero_set
    x = Polynomial.variable(1, 0)
    assert set(basis.polys) == {Polynomial.constant(1, gr(1)), x}


def test_dual_space_of_simple_point():
    I = IdealHandle([Z - 2])
    basis = I.local_dual_space(exp1(2))
    assert basis.stabilized
    assert basis.polys == (Polynomial.constant(1, gr(1)),)


def test_dual_space_away_from_roots_is_trivial():
    I = IdealHandle([Z - 2])
    basis = I.local_dual_space(exp1(3))
    assert not basis.root_in_zero_set
    assert basis.dimension == 0


def test_dual_space_two_variable_fat_point():
    z1, z2 = LaurentPoly.variable(2, 0), LaurentPoly.variable(2, 1)
    I = IdealHandle([(z1 - 1) ** 2, z2 - 1, (z1 - 1) * (z2 - 1)])
    c = Exponential((gr(1), gr(1)))
    basis = I.local_dual_space(c)
    assert basis.stabilized
    x1 = Polynomial.variable(2, 0)
    assert set(basis.polys) == {Polynomial.constant(2, gr(1)), x1}
    assert I.quotient_dimension() == 2


def test_dual_space_explicit_cutoff_not_stabilized():
    I = IdealHandle([(Z - 1) ** 2])
    basis = I.local_dual_space(exp1(1), cutoff=0)
    assert not basis.stabilized
    assert basis.dimension == 1


def test_dual_space_needs_cutoff_when_not_zero_dimensional():
    z1 = LaurentPoly.variable(2, 0)
    I = IdealHandle([z1 - 1])
    with pytest.raises(DegreeBoundRequired):
        I.local_dual_space(Exponential((gr(1), gr(1))))
    basis = I.local_dual_space(Exponential((gr(1), gr(1))), cutoff=1)
    assert basis.dimension > 0


def test_dual_dimension_sums_to_quotient_dimension():
    I = IdealHandle([(Z - 1) ** 2 * (Z - 2)])
    total = sum(
        I.local_dual_space(e).dimension for e in I.zero_set()[0]
    )
    assert total == I.quotient_dimension() == 3


def test_dual_space_is_the_reflected_solution_space():
    # Near (1, 1), z1 - 1 = (z2 - 1)^2 and (z2 - 1)^3 = 0: the local
    # solutions are 1, x2 and x2^2 + 2 x1, and the dual space holds their
    # reflections, rescaled to grevlex-leading coefficient one.
    z1, z2 = LaurentPoly.variable(2, 0), LaurentPoly.variable(2, 1)
    I = IdealHandle([(z1 - 1) - (z2 - 1) ** 2, (z2 - 1) ** 3])
    c = Exponential((gr(1), gr(1)))
    one = Polynomial.constant(2, gr(1))
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    dual = (one, x2, x2 * x2 - x1.scaled(gr(2)))
    basis = I.local_dual_space(c)
    assert basis.polys == dual
    assert basis.cutoff == 3 and basis.stabilized
    assert I.local_dual_space(c, cutoff=2).polys == dual
    assert I.local_dual_space(c, cutoff=5).polys == dual
    measures = [inverse_transform(g) for g in I.generators]
    solved = solve_at_root(measures, c)
    assert solved.polys == (one, x2, x2 * x2 + x1.scaled(gr(2)))


def test_dual_space_cutoff_zero():
    I = IdealHandle([(Z - 1) ** 2])
    away = I.local_dual_space(exp1(2), cutoff=0)
    assert away.stabilized
    assert away.polys == ()
    assert not I.local_dual_space(exp1(1), cutoff=0).stabilized


def test_dual_space_of_unit_ideal_stalls_at_degree_one():
    basis = IdealHandle([ONE_L]).local_dual_space(exp1(1))
    assert basis.cutoff == 1
    assert basis.stabilized
    assert basis.polys == ()


# difference closure and the derivation ideal


def test_difference_closure_of_linear_is_constants():
    x = Polynomial.variable(1, 0)
    closure = difference_closure(x)
    assert len(closure) == 1
    assert closure[0].degree() == 0


def test_difference_closure_of_square_spans_affine():
    x = Polynomial.variable(1, 0)
    closure = difference_closure(x * x)
    assert len(closure) == 2
    assert all(q.degree() == 1 for q in closure)
    # the two elements differ by a nonzero constant, so the span is affine
    assert (closure[0] - closure[1]).degree() in (0, 1)


def test_difference_closure_of_zero():
    assert difference_closure(Polynomial.constant(1, gr(0))) == []


def test_derivation_ideal_membership():
    x = Polynomial.variable(1, 0)
    c = exp1(1)
    assert derivation_ideal_member(x, c, (Z - 1) ** 2)
    assert not derivation_ideal_member(x, c, Z - 1)


def test_derivation_ideal_requires_vanishing():
    x = Polynomial.variable(1, 0)
    assert not derivation_ideal_member(x, exp1(1), Z - 2)


def test_derivation_ideal_order_zero():
    # constant generating polynomial: the ideal is everything vanishing at c
    p = Polynomial.constant(1, gr(1))
    assert derivation_ideal_member(p, exp1(1), Z - 1)
    assert not derivation_ideal_member(p, exp1(1), Z - 2)


# annihilation of translate spans


def test_annihilates_affine_span():
    mu = inverse_transform((Z - 1) ** 2)
    x = Polynomial.variable(1, 0)
    f = ExpPolynomial.single(exp1(1), x)
    assert annihilates_translates(mu, f)


def test_does_not_annihilate_quadratic_span():
    mu = inverse_transform((Z - 1) ** 2)
    x = Polynomial.variable(1, 0)
    f = ExpPolynomial.single(exp1(1), x * x)
    assert not annihilates_translates(mu, f)


def test_annihilation_respects_base_point():
    mu = inverse_transform(Z - 2)
    one = Polynomial.constant(1, gr(1))
    assert annihilates_translates(mu, ExpPolynomial.single(exp1(2), one))
    assert not annihilates_translates(mu, ExpPolynomial.single(exp1(3), one))


@settings(deadline=None, max_examples=30)
@given(dims.flatmap(lambda d: laurents(d).flatmap(lambda g: points(d).map(lambda y: (g, y)))))
def test_ideal_members_annihilate_dual_pairs(pair):
    """Shifting a transform by a unit never changes any membership verdict."""
    g, y = pair
    if g.is_zero():
        return
    I = IdealHandle([g])
    unit = LaurentPoly(g.dim, {y: gr(1)})
    assert I.contains(g * unit)
    assert IdealHandle([g * unit]).contains(g)
