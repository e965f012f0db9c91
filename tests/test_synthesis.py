"""System solving, window cross-checks, and localizability reports."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from synthkit import (
    Exponential,
    IdealHandle,
    LaurentPoly,
    Measure,
    Polynomial,
)
from synthkit import ideals, linalg
from synthkit.errors import (
    DegreeBoundRequired,
    SpuriousRoot,
    WindowTooSmall,
)
from synthkit.fourier import inverse_transform, transform
from synthkit.scalars import GaussianRational
from synthkit.synthesis import (
    biadditive_demo,
    default_window,
    localizability_witness,
    solve_at_root,
    solve_system,
    window_oracle,
)

from conftest import count_groebner_builds
from conftest import measures as measures_strategy

Z = LaurentPoly.variable(1, 0)
Z1, Z2 = LaurentPoly.variable(2, 0), LaurentPoly.variable(2, 1)


def gr(n, d=1):
    return GaussianRational(Fraction(n, d))


def exp1(value):
    return Exponential((gr(value),))


FIB_MU = Measure(1, {(-2,): gr(1), (-1,): gr(-3), (0,): gr(2)})
# transform 2 - 3 z^-1... scaled by z^2: roots of z^2 - 3z + 2 are 1 and 2


def test_solve_simple_recurrence():
    solution = solve_system([FIB_MU])
    assert solution.approximate == ()
    assert [b.root.base for b in solution.bases] == [(gr(1),), (gr(2),)]
    for basis in solution.bases:
        assert basis.multiplicity == 1
        assert not basis.truncated
        (q,) = basis.polys
        assert q.degree() == 0
    assert solution.total_dimension == 2


def test_solve_double_root_gives_polynomial_weight():
    mu = inverse_transform((Z - 1) ** 2)
    solution = solve_system([mu])
    (basis,) = solution.bases
    assert basis.root == exp1(1)
    assert basis.multiplicity == 2
    degrees = sorted(q.degree() for q in basis.polys)
    assert degrees == [0, 1]


def test_solve_at_root_rejects_spurious_root():
    with pytest.raises(SpuriousRoot):
        solve_system([FIB_MU], roots=[exp1(3)])


def test_solve_positive_dimensional_needs_degbound():
    z1 = LaurentPoly.variable(2, 0)
    mu = inverse_transform(z1 - 1)
    point = Exponential((gr(1), gr(1)))
    with pytest.raises(DegreeBoundRequired):
        solve_system([mu], roots=[point])
    bounded = solve_system([mu], roots=[point], degbound=1)
    (basis,) = bounded.bases
    assert basis.truncated
    assert basis.multiplicity > 0


def test_solve_at_root_explicit_bound_truncation_flag():
    mu = inverse_transform((Z - 1) ** 3)
    c = exp1(1)
    low = solve_at_root([mu], c, degbound=1)
    assert low.truncated
    assert low.multiplicity == 2
    full = solve_at_root([mu], c)
    assert not full.truncated
    assert full.multiplicity == 3


def test_solve_at_root_matrices_are_sized_by_the_root(monkeypatch):
    # At (1, 1) the solutions of (z1 - 1)^4, (z2 - 1)^4 have degree at
    # most 6, so the dimension stalls at degree 7: no matrix is wider than
    # C(7 + 2, 2) = 36 columns, however large the bound.
    widths = []

    def spy(matrix, width):
        widths.append(width)
        return linalg.nullspace(matrix, width)

    monkeypatch.setattr(ideals, "nullspace", spy)
    z1, z2 = LaurentPoly.variable(2, 0), LaurentPoly.variable(2, 1)
    mus = [inverse_transform((z1 - 1) ** 4), inverse_transform((z2 - 1) ** 4)]
    basis = solve_at_root(mus, Exponential((gr(1), gr(1))), degbound=16)
    assert basis.multiplicity == 16
    assert not basis.truncated
    assert max(widths) == 36

def test_two_variable_plane_system():
    z1, z2 = LaurentPoly.variable(2, 0), LaurentPoly.variable(2, 1)
    mus = [inverse_transform(z1 - 1), inverse_transform(z2 - 2)]
    solution = solve_system(mus)
    (basis,) = solution.bases
    assert basis.root.base == (gr(1), gr(2))
    assert basis.multiplicity == 1


def test_solve_system_builds_one_groebner_basis(monkeypatch):
    # zero_set and the quotient bound share the handle's one basis, built
    # in the 2 variables of the ideal; a block order per coordinate made it 3
    builds = count_groebner_builds(monkeypatch)
    mus = [
        inverse_transform((Z1 - 1) * (Z1 - 2)),
        inverse_transform((Z2 + 1) * (Z2 - 3) ** 2),
    ]
    solution = solve_system(mus)
    assert solution.approximate == ()
    assert len(solution.bases) == 4
    assert solution.total_dimension == 6
    assert builds == [2]


@pytest.mark.parametrize(
    "gens",
    [
        # fat points
        [(Z - 1) ** 4],
        [(Z1 - 1) ** 3, (Z2 - 1) ** 2],
        # a staircase that is not a complete intersection
        [(Z1 - 1) ** 3, (Z1 - 1) * (Z2 - 2), (Z2 - 2) ** 2],
        # multi-root systems, with multiplicities
        [(Z1 - 1) ** 2 * (Z1 - 2), (Z2 + 1) * (Z2 - Z1)],
        [(Z1 - gr(2, 3)) ** 2 * (Z1 - 1), (Z2 + 3) * (Z2 - GaussianRational(1, -1))],
    ],
)
def test_multiplicities_add_up_to_quotient_dimension(gens):
    solution = solve_system([inverse_transform(g) for g in gens])
    assert solution.approximate == ()
    qdim = IdealHandle(gens).quotient_dimension()
    assert sum(b.multiplicity for b in solution.bases) == qdim
    assert solution.total_dimension == qdim


def test_solve_reports_approximate_roots():
    mu = inverse_transform(Z * Z - Z - 1)
    solution = solve_system([mu])
    assert solution.bases == ()
    assert len(solution.approximate) == 2
    assert all(a.certified for a in solution.approximate)


# window oracle


def test_window_matches_exact_dimension():
    box = [(0, 7)]
    window = window_oracle([FIB_MU], box)
    assert window.dimension == 2
    assert len(window.points) == 8


def test_window_dimension_for_double_root():
    mu = inverse_transform((Z - 1) ** 2)
    window = window_oracle([mu], [(0, 5)])
    assert window.dimension == 2


def test_window_of_zero_measures_is_everything():
    window = window_oracle([Measure(1, {})], [(0, 3)])
    assert window.dimension == 4


def test_window_too_small_for_support():
    with pytest.raises(WindowTooSmall):
        window_oracle([FIB_MU], [(0, 0)])
    with pytest.raises(WindowTooSmall):
        window_oracle([FIB_MU], [(3, 1)])


def test_default_window_holds_all_solutions():
    mu = inverse_transform((Z - 1) ** 2)
    box = default_window([mu], degbound=2)
    window = window_oracle([mu], box)
    assert window.dimension == solve_system([mu]).total_dimension


def test_window_kernel_vectors_satisfy_recurrence():
    window = window_oracle([FIB_MU], [(0, 7)])
    for vec in window.basis:
        # 2 f(x) - 3 f(x+1) + f(x+2) = 0 inside the box
        for k in range(6):
            combo = vec[k] * gr(2) - vec[k + 1] * gr(3) + vec[k + 2]
            assert combo.is_zero()


# localizability


def test_localizability_member():
    I = IdealHandle([Z - 1])
    report = localizability_witness(I, (Z - 1) * (Z + 5))
    assert report.member
    assert report.witness is None
    assert not report.inconclusive


def test_localizability_witness_at_double_point():
    I = IdealHandle([(Z - 1) ** 2])
    report = localizability_witness(I, Z - 1)
    assert not report.member
    assert not report.inconclusive
    c, q = report.witness
    assert c == exp1(1)
    assert q == Polynomial.variable(1, 0)


def test_localizability_witness_constant():
    I = IdealHandle([(Z - 1) * (Z - 2)])
    report = localizability_witness(I, Z - 1)
    assert not report.member
    c, q = report.witness
    assert c == exp1(2)
    assert q.degree() == 0


def test_localizability_spurious_root_rejected():
    I = IdealHandle([Z - 1])
    with pytest.raises(SpuriousRoot):
        localizability_witness(I, Z - 2, roots=[exp1(5)])


def test_localizability_inconclusive_at_tight_cutoff():
    I = IdealHandle([(Z - 1) ** 2])
    report = localizability_witness(I, Z - 1, roots=[exp1(1)], cutoff=0)
    assert not report.member
    assert report.witness is None
    assert report.inconclusive


# bi-additive demonstration


@pytest.mark.parametrize("k,expected", [(1, 3), (2, 4), (6, 8)])
def test_biadditive_span_dimension(k, expected):
    assert biadditive_demo(k) == expected


def test_biadditive_rejects_nonpositive():
    with pytest.raises(ValueError):
        biadditive_demo(0)


# cross-checking the two solution routes on random one-variable systems


@settings(deadline=None, max_examples=25)
@given(measures_strategy(1))
def test_solver_agrees_with_window(mu):
    L = transform(mu)
    if L.is_zero():
        return
    exact, approx = IdealHandle([L]).zero_set()
    if approx or not exact:
        return
    solution = solve_system([mu], roots=exact)
    box = default_window([mu], degbound=max(1, solution.total_dimension))
    window = window_oracle([mu], box)
    assert window.dimension == solution.total_dimension
