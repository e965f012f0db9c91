"""Solvers for systems of convolution equations on Z^d.

solve_at_root builds the space of polynomial weights p with p(x) c^x
annihilated by every given measure; solve_system runs it across the
certified exact roots of the transform ideal. Each has one route, the
local conditions of ideals._local_kernel; the lefranc suite checks its
answers by the module action and by the multiplicities. The window
oracle solves the same equations brute-force on a finite box, giving an
independent route that spans must match.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .derivations import moment
from .errors import DimensionMismatch, SpuriousRoot, WindowTooSmall
from .exppoly import ExpPolynomial, translate_span_dim
from .fourier import inverse_transform, transform
from .ideals import IdealHandle, _local_kernel, _quotient_bound
from .measures import Exponential, Measure, sub_points, trivial_exponential
from .polynomials import Polynomial
from .scalars import ONE, ZERO
from .linalg import nullspace


@dataclass(frozen=True)
class SolutionBasis:
    root: Exponential
    polys: tuple
    multiplicity: int
    truncated: bool


@dataclass(frozen=True)
class SystemSolution:
    bases: tuple
    approximate: tuple

    @property
    def total_dimension(self) -> int:
        return sum(len(b.polys) for b in self.bases)


@dataclass(frozen=True)
class WindowSolution:
    points: tuple
    dimension: int
    basis: tuple


@dataclass(frozen=True)
class LocalizabilityReport:
    member: bool
    witness: tuple | None
    inconclusive: bool


def _check_measures(measures: list, dim: int | None = None) -> int:
    if not measures:
        raise ValueError("at least one measure is required")
    for mu in measures:
        if not isinstance(mu, Measure):
            raise TypeError("expected a Measure")
        if dim is None:
            dim = mu.dim
        elif mu.dim != dim:
            raise DimensionMismatch("measure dimension mismatch")
    return dim


_UNBOUNDED = "system is not zero dimensional; pass an explicit degree bound"


def solve_at_root(
    measures: Iterable, c: Exponential, degbound: int | None = None
) -> SolutionBasis:
    """Basis of {p : deg p <= degbound, every measure annihilates p c^x}.

    The degree grows from 0 and stops where the dimension first stalls,
    which already gives the whole bounded space (ideals._local_kernel), so
    the matrices are sized by the root and not by the bound. An omitted
    degbound stands for the quotient dimension of the transform ideal,
    which bounds every local multiplicity, so then nothing truncates.
    The answer is not rechecked here: the lefranc suite applies every
    measure to every basis polynomial.
    """
    measures = list(measures)
    _check_measures(measures, c.dim)
    if degbound is None:
        degbound = _quotient_bound(
            IdealHandle([transform(mu) for mu in measures]), _UNBOUNDED
        )
    elif degbound < 0:
        raise ValueError("degree bound must be a natural number")
    polys, _ = _local_kernel(measures, c, degbound)
    return SolutionBasis(
        root=c,
        polys=tuple(polys),
        multiplicity=len(polys),
        truncated=any((q.degree() or 0) == degbound for q in polys),
    )


def solve_system(
    measures: Iterable,
    roots: Iterable | None = None,
    degbound: int | None = None,
) -> SystemSolution:
    """One solution basis per certified exact root.

    Roots come from the zero set of the transform ideal when omitted;
    approximate roots are carried through as reports only. An omitted
    degbound stands for the quotient dimension, as in solve_at_root.
    """
    measures = list(measures)
    dim = _check_measures(measures)
    approx: tuple = ()
    handle = None
    if roots is None:
        handle = IdealHandle([transform(mu) for mu in measures])
        exact, approx_list = handle.zero_set()
        roots = exact
        approx = tuple(approx_list)
    else:
        roots = list(roots)
        for c in roots:
            if not all(
                transform(mu).evaluate(c).is_zero() for mu in measures
            ):
                raise SpuriousRoot(f"{c!r} is not a common root of the system")
    if degbound is None:
        # One quotient-dimension bound serves every root: each local
        # multiplicity is at most the quotient dimension, so nothing
        # truncates, and each root's solve stops where its own dimension
        # stalls, so its matrices stay sized by that root.
        if handle is None:
            handle = IdealHandle([transform(mu) for mu in measures])
        degbound = _quotient_bound(handle, _UNBOUNDED)
    roots = sorted(roots, key=lambda e: e.sort_key())
    bases = tuple(solve_at_root(measures, c, degbound) for c in roots)
    return SystemSolution(bases=bases, approximate=approx)


def window_oracle(measures: Iterable, box: Iterable) -> WindowSolution:
    """Exact nullspace of the convolution equations restricted to a box.

    box is one inclusive (lo, hi) pair per coordinate. Every equation
    whose stencil fits inside the box is imposed; a generator whose
    support cannot fit at all makes the window unusable.
    """
    measures = list(measures)
    box = [tuple(b) for b in box]
    dim = _check_measures(measures, len(box)) if measures else len(box)
    if len(box) != dim:
        raise DimensionMismatch("window dimension mismatch")
    for lo, hi in box:
        if lo > hi:
            raise WindowTooSmall("empty window side")
    points = list(itertools.product(*(range(lo, hi + 1) for lo, hi in box)))
    point_index = {p: i for i, p in enumerate(points)}
    rows = []
    for mu in measures:
        if mu.is_zero():
            continue
        support = mu.support()
        position_sides = []
        for i, (lo, hi) in enumerate(box):
            ys = [y[i] for y in support]
            side = (lo + max(ys), hi + min(ys))
            position_sides.append(side)
        if any(lo > hi for lo, hi in position_sides):
            raise WindowTooSmall(
                "window cannot hold the support of every generator"
            )
        sides = (range(lo, hi + 1) for lo, hi in position_sides)
        for x in itertools.product(*sides):
            row = [ZERO] * len(points)
            for y, v in mu.terms.items():
                u = sub_points(x, y)
                row[point_index[u]] = row[point_index[u]] + v
            rows.append(row)
    kernel = nullspace(rows, len(points))
    return WindowSolution(
        points=tuple(points),
        dimension=len(kernel),
        basis=tuple(tuple(vec) for vec in kernel),
    )


def default_window(measures: Iterable, degbound: int) -> list:
    """Cube sized by degree bound plus the largest support diameter."""
    measures = list(measures)
    dim = _check_measures(measures)
    diameter = 0
    for mu in measures:
        support = mu.support()
        if not support:
            continue
        for i in range(dim):
            ys = [y[i] for y in support]
            diameter = max(diameter, max(ys) - min(ys))
    side = degbound + diameter + 2
    return [(0, side - 1)] * dim


def localizability_witness(
    I: IdealHandle,
    L,
    roots: Iterable | None = None,
    cutoff: int | None = None,
) -> LocalizabilityReport:
    """Membership decision with a moment-functional witness on failure.

    A witness is a pair (root c, dual polynomial q) whose moment against
    the inverse transform of L is nonzero, certifying non-membership
    locally at c. No witness at any supplied root means the check was
    inconclusive at the cutoffs used.
    """
    if I.contains(L):
        return LocalizabilityReport(member=True, witness=None, inconclusive=False)
    if roots is None:
        exact, _ = I.zero_set()
        roots = exact
    else:
        roots = list(roots)
        for c in roots:
            if I.root_order(c) < 1:
                raise SpuriousRoot(f"{c!r} is not a root of the ideal")
    mu = inverse_transform(L)
    for c in sorted(roots, key=lambda e: e.sort_key()):
        dual = I.local_dual_space(c, cutoff)
        for q in dual.polys:
            if not moment(mu, q, c).is_zero():
                return LocalizabilityReport(
                    member=False, witness=(c, q), inconclusive=False
                )
    return LocalizabilityReport(member=False, witness=None, inconclusive=True)


def biadditive_demo(k: int) -> int:
    """Translate span dimension of sum of squares on Z^k (equals k + 2).

    The function is the diagonal of the rank-k symmetric bi-additive form
    sum p_i(x) p_i(y) with p_i the coordinate projections.
    """
    if k < 1:
        raise ValueError("k must be positive")
    terms = {}
    for i in range(k):
        alpha = tuple(2 if j == i else 0 for j in range(k))
        terms[alpha] = ONE
    f = ExpPolynomial.single(trivial_exponential(k), Polynomial(k, terms))
    return translate_span_dim(f)
