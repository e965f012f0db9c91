"""Buchberger engine over Gaussian rationals.

One order, graded reverse lexicographic with coordinates in index order.
Ties in pair selection are broken by exponent-vector lexicographic
comparison, and all basis lists are kept in sorted order, so results are
deterministic. Elimination needs no second order: for a zero-dimensional
ideal, `minimal_polynomial` reads the minimal polynomial of a monomial's
multiplication map off normal forms against the grevlex basis, and
`eliminate` is its case z_i, the generator of I ∩ K[z_i].
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterable

from .linalg import RowSpace, nullspace
from .polynomials import Polynomial, grevlex_key
from .scalars import ONE, ZERO


class GrevlexOrder:
    def __init__(self, dim: int):
        self.dim = dim

    def key(self, alpha: tuple):
        return grevlex_key(alpha)

    def heap_key(self, alpha: tuple):
        """Ascending in this key is descending in the order."""
        return (-sum(alpha), alpha[::-1])


def _divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _monic(terms: dict, order) -> dict:
    lm = max(terms, key=order.key)
    lc = terms[lm]
    if lc.is_one():
        return dict(terms)
    inv = lc.inverse()
    return {m: v * inv for m, v in terms.items()}


def _prep(basis: list, order) -> list:
    out = []
    for terms in basis:
        lm = max(terms, key=order.key)
        out.append((lm, terms[lm].inverse(), terms))
    return out


def _normal_form_dict(terms: dict, prepped: list, order) -> dict:
    result: dict = {}
    work = dict(terms)
    # Leading terms come off a heap; an entry whose term cancelled after it
    # was queued is skipped, and a term queued twice is processed once.
    heap = [(order.heap_key(m), m) for m in work]
    heapq.heapify(heap)
    while heap:
        lm = heapq.heappop(heap)[1]
        lc = work.pop(lm, None)
        if lc is None:
            continue
        hit = None
        for g_lm, g_lcinv, g_terms in prepped:
            if _divides(g_lm, lm):
                hit = (g_lm, g_lcinv, g_terms)
                break
        if hit is None:
            result[lm] = lc
            continue
        g_lm, g_lcinv, g_terms = hit
        shift = tuple(x - y for x, y in zip(lm, g_lm))
        factor = lc * g_lcinv
        for m, v in g_terms.items():
            if m == g_lm:
                continue
            key = tuple(x + y for x, y in zip(m, shift))
            c = factor * v
            prev = work.get(key)
            if prev is None:
                work[key] = -c
                heapq.heappush(heap, (order.heap_key(key), key))
                continue
            nv = prev - c
            if nv:
                work[key] = nv
            else:
                del work[key]
    return result


def _s_poly(f: dict, lmf: tuple, g: dict, lmg: tuple) -> dict:
    """S-polynomial of two monic polynomials with leading monomials lmf, lmg."""
    lcm = tuple(max(a, b) for a, b in zip(lmf, lmg))
    shift_f = tuple(l - a for l, a in zip(lcm, lmf))
    out = {tuple(x + y for x, y in zip(m, shift_f)): v for m, v in f.items()}
    shift_g = tuple(l - a for l, a in zip(lcm, lmg))
    for m, v in g.items():
        key = tuple(x + y for x, y in zip(m, shift_g))
        prev = out.get(key)
        nv = -v if prev is None else prev - v
        if nv:
            out[key] = nv
        elif prev is not None:
            del out[key]
    return out


def _interreduce(current: list, order) -> list:
    """Reduce each element by the others until nothing changes.

    The elements are monic and kept as (leading monomial, ONE, terms)
    entries, the form _normal_form_dict reads, so no round re-derives them.
    """
    changed = True
    while changed:
        changed = False
        reduced: list = []
        for i, entry in enumerate(current):
            g = entry[2]
            others = reduced + current[i + 1 :]
            nf = _normal_form_dict(g, others, order) if others else g
            if nf == g:
                reduced.append(entry)
                continue
            changed = True
            if nf:
                nf = _monic(nf, order)
                reduced.append((max(nf, key=order.key), ONE, nf))
        current = reduced
    current.sort(key=lambda entry: order.key(entry[0]))
    return [terms for _, _, terms in current]


def groebner_basis(polys: Iterable, order) -> list:
    """Reduced, monic, deterministically sorted basis."""
    basis = [dict(p.terms) for p in polys if not p.is_zero()]
    basis = [_monic(t, order) for t in basis]
    basis.sort(key=lambda t: order.key(max(t, key=order.key)))
    lms = [max(t, key=order.key) for t in basis]
    prepped = _prep(basis, order)  # grows with the basis, one entry each

    def lcm_of(i, j):
        return tuple(max(a, b) for a, b in zip(lms[i], lms[j]))

    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    while pairs:
        best = min(
            pairs, key=lambda p: (sum(lcm_of(*p)), lcm_of(*p), p)
        )
        pairs.discard(best)
        i, j = best
        lcm = lcm_of(i, j)
        # product criterion: coprime leading monomials reduce to zero
        if all(a + b == l for a, b, l in zip(lms[i], lms[j], lcm)):
            continue
        s = _s_poly(basis[i], lms[i], basis[j], lms[j])
        if not s:
            continue
        nf = _normal_form_dict(s, prepped, order)
        if not nf:
            continue
        nf = _monic(nf, order)
        lm = max(nf, key=order.key)
        basis.append(nf)
        lms.append(lm)
        prepped.append((lm, ONE, nf))
        new = len(basis) - 1
        for k in range(new):
            pairs.add((k, new))
    reduced = _interreduce(prepped, order)
    dim = order.dim
    return [Polynomial(dim, t) for t in reduced]


def normal_form(f: Polynomial, basis: list, order) -> Polynomial:
    if f.is_zero() or not basis:
        return f
    prepped = _prep([g.terms for g in basis], order)
    return Polynomial(f.dim, _normal_form_dict(f.terms, prepped, order))


def leading_monomials(basis: list, order) -> list:
    return [max(g.terms, key=order.key) for g in basis]


def standard_monomials(basis: list, order):
    """Monomials outside the leading ideal; None when infinitely many.

    Finiteness criterion: every variable shows up as a pure power among
    the leading monomials.
    """
    if not basis:
        return None
    dim = order.dim
    lms = leading_monomials(basis, order)
    if any(sum(lm) == 0 for lm in lms):
        return []
    bounds = [None] * dim
    for lm in lms:
        support = [i for i, a in enumerate(lm) if a]
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or lm[i] < bounds[i]:
                bounds[i] = lm[i]
    if any(b is None for b in bounds):
        return None
    out = []
    for mono in itertools.product(*(range(b) for b in bounds)):
        if not any(_divides(lm, mono) for lm in lms):
            out.append(mono)
    return sorted(out, key=grevlex_key)


def minimal_polynomial(basis: list, order, step: tuple) -> Polynomial:
    """The minimal polynomial of multiplication by z^step on K[z]/I.

    `basis` is the reduced basis, in `order`, of a zero-dimensional ideal
    I. The result is monic, with s^k written as the monomial z^(k*step)
    (Cox, Little & O'Shea, Using Algebraic Geometry, ch. 2 §4). The normal
    forms of 1, z^step, z^(2*step), ..., each the previous one times
    z^step reduced again, are columns over the standard monomials, up to
    the first that depends on those before. The one free column of their
    kernel is the last, so the kernel vector is that polynomial, monic.
    The unit ideal has no standard monomials, so 1 reduces to zero and the
    result is 1.
    """
    std = standard_monomials(basis, order)
    if std is None:
        raise ValueError("a minimal polynomial needs a zero-dimensional ideal")
    dim = order.dim
    index = {m: i for i, m in enumerate(std)}
    prepped = _prep([g.terms for g in basis], order)
    space = RowSpace(len(std))
    columns: list = []
    nf = _normal_form_dict({(0,) * dim: ONE}, prepped, order)
    while True:
        column = [ZERO] * len(std)
        for m, v in nf.items():
            column[index[m]] = v
        columns.append(column)
        if not space.add(column):
            break
        shifted = {tuple(a + b for a, b in zip(m, step)): v for m, v in nf.items()}
        nf = _normal_form_dict(shifted, prepped, order)
    rows = [[column[r] for column in columns] for r in range(len(std))]
    (coeffs,) = nullspace(rows, len(columns))
    terms = {tuple(k * e for e in step): c for k, c in enumerate(coeffs) if c}
    return Polynomial(dim, terms)


def eliminate(basis: list, order, keep: int) -> list:
    """The monic generator of I ∩ K[z_keep], as a one-element list.

    It is the minimal polynomial of multiplication by z_keep on K[z]/I
    (Faugère, Gianni, Lazard & Mora, JSC 16, 1993). A block order
    eliminating the other variables gives the same polynomial: its reduced
    basis meets K[z_keep] in exactly one monic generator of I ∩ K[z_keep].
    """
    step = tuple(int(j == keep) for j in range(order.dim))
    return [minimal_polynomial(basis, order, step)]
