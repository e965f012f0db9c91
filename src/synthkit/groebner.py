"""Buchberger engine over Gaussian rationals.

One monomial order, graded reverse lexicographic with coordinates in
index order (`polynomials.grevlex_key`); every function here uses it, so
none takes an order. Ties in pair selection are broken by exponent-vector
lexicographic comparison, and all basis lists are kept in sorted order,
so results are deterministic. Elimination needs no second order:
`eliminate` returns the generator of I ∩ K[z_i], the minimal polynomial
of multiplication by z_i on K[z]/I, read off the grevlex basis.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterable

from .linalg import RowSpace, nullspace
from .polynomials import Polynomial, grevlex_key
from .scalars import ONE, ZERO


def heap_key(alpha: tuple):
    """Ascending in this key is descending in grevlex."""
    return (-sum(alpha), alpha[::-1])


def _lm(terms: dict) -> tuple:
    return max(terms, key=grevlex_key)


def _divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _monic(terms: dict) -> dict:
    lm = _lm(terms)
    lc = terms[lm]
    if lc.is_one():
        return dict(terms)
    inv = lc.inverse()
    return {m: v * inv for m, v in terms.items()}


def _prep(basis: list) -> list:
    out = []
    for terms in basis:
        lm = _lm(terms)
        out.append((lm, terms[lm].inverse(), terms))
    return out


def _normal_form_dict(terms: dict, prepped: list) -> dict:
    result: dict = {}
    work = dict(terms)
    # Leading terms come off a heap; an entry whose term cancelled after it
    # was queued is skipped, and a term queued twice is processed once.
    heap = [(heap_key(m), m) for m in work]
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
                heapq.heappush(heap, (heap_key(key), key))
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


def _interreduce(current: list) -> list:
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
            nf = _normal_form_dict(g, others) if others else g
            if nf == g:
                reduced.append(entry)
                continue
            changed = True
            if nf:
                nf = _monic(nf)
                reduced.append((_lm(nf), ONE, nf))
        current = reduced
    current.sort(key=lambda entry: grevlex_key(entry[0]))
    return [terms for _, _, terms in current]


def groebner_basis(polys: Iterable) -> list:
    """Reduced, monic, deterministically sorted basis."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return []
    basis = [_monic(p.terms) for p in polys]
    basis.sort(key=lambda t: grevlex_key(_lm(t)))
    lms = [_lm(t) for t in basis]
    prepped = _prep(basis)  # grows with the basis, one entry each

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
        nf = _normal_form_dict(s, prepped)
        if not nf:
            continue
        nf = _monic(nf)
        lm = _lm(nf)
        basis.append(nf)
        lms.append(lm)
        prepped.append((lm, ONE, nf))
        new = len(basis) - 1
        for k in range(new):
            pairs.add((k, new))
    dim = polys[0].dim
    return [Polynomial(dim, t) for t in _interreduce(prepped)]


def normal_form(f: Polynomial, basis: list) -> Polynomial:
    if f.is_zero() or not basis:
        return f
    prepped = _prep([g.terms for g in basis])
    return Polynomial(f.dim, _normal_form_dict(f.terms, prepped))


def leading_monomials(basis: list) -> list:
    return [_lm(g.terms) for g in basis]


def standard_monomials(basis: list):
    """Monomials outside the leading ideal; None when infinitely many.

    Finiteness criterion: every variable shows up as a pure power among
    the leading monomials.
    """
    if not basis:
        return None
    dim = basis[0].dim
    lms = leading_monomials(basis)
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


def eliminate(basis: list, keep: int) -> Polynomial:
    """The monic generator of I ∩ K[z_keep], where `basis` is the reduced
    basis of a zero-dimensional ideal I.

    It is the minimal polynomial of multiplication by z_keep on K[z]/I
    (Faugère, Gianni, Lazard & Mora, JSC 16, 1993; Cox, Little & O'Shea,
    Using Algebraic Geometry, ch. 2 §4).

    When a basis element g lies in K[z_keep] alone, g is that generator.
    Its leading monomial is z_keep^n, n its degree. No other leading
    monomial divides z_keep^n, because the basis is reduced, so none
    divides z_keep^j for j < n either: 1, z_keep, ..., z_keep^(n-1) are
    standard, hence independent modulo I, and no nonzero polynomial in
    z_keep of degree below n lies in I. The unit ideal's basis is [1].

    Otherwise the normal forms of 1, z_keep, z_keep^2, ..., each the
    previous one times z_keep reduced again, are columns over the standard
    monomials, up to the first that depends on those before. The one free
    column of their kernel is the last, so the kernel vector is the
    generator, monic.
    """
    for g in basis:
        if all(sum(m) == m[keep] for m in g.terms):
            return g
    std = standard_monomials(basis)
    if std is None:
        raise ValueError("elimination needs a zero-dimensional ideal")
    dim = basis[0].dim
    step = tuple(int(j == keep) for j in range(dim))
    index = {m: i for i, m in enumerate(std)}
    prepped = _prep([g.terms for g in basis])
    space = RowSpace(len(std))
    columns: list = []
    nf = _normal_form_dict({(0,) * dim: ONE}, prepped)
    while True:
        column = [ZERO] * len(std)
        for m, v in nf.items():
            column[index[m]] = v
        columns.append(column)
        if not space.add(column):
            break
        shifted = {tuple(a + b for a, b in zip(m, step)): v for m, v in nf.items()}
        nf = _normal_form_dict(shifted, prepped)
    rows = [[column[r] for column in columns] for r in range(len(std))]
    (coeffs,) = nullspace(rows, len(columns))
    terms = {tuple(k * e for e in step): c for k, c in enumerate(coeffs) if c}
    return Polynomial(dim, terms)
