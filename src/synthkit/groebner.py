"""Buchberger engine over Gaussian rationals.

Orders: graded reverse lexicographic (coordinates in index order) and a
block order that eliminates a chosen set of variables. Ties in pair
selection are broken by exponent-vector lexicographic comparison, and all
basis lists are kept in sorted order, so results are deterministic.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .polynomials import Polynomial, grevlex_key


class GrevlexOrder:
    def __init__(self, dim: int):
        self.dim = dim

    def key(self, alpha: tuple):
        return grevlex_key(alpha)


class BlockOrder:
    """Eliminates `elim` variables: any monomial touching them dominates."""

    def __init__(self, dim: int, elim: Iterable):
        self.dim = dim
        self.elim = tuple(sorted(elim))
        self.keep = tuple(i for i in range(dim) if i not in self.elim)

    def key(self, alpha: tuple):
        e = tuple(alpha[i] for i in self.elim)
        k = tuple(alpha[i] for i in self.keep)
        return (grevlex_key(e), grevlex_key(k))


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
    while work:
        lm = max(work, key=order.key)
        lc = work.pop(lm)
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
            nv = -c if prev is None else prev - c
            if nv:
                work[key] = nv
            elif prev is not None:
                del work[key]
    return result


def _s_poly(f: dict, g: dict, order) -> dict:
    lmf = max(f, key=order.key)
    lmg = max(g, key=order.key)
    lcm = tuple(max(a, b) for a, b in zip(lmf, lmg))
    out: dict = {}
    shift_f = tuple(l - a for l, a in zip(lcm, lmf))
    inv_f = f[lmf].inverse()
    for m, v in f.items():
        key = tuple(x + y for x, y in zip(m, shift_f))
        out[key] = v * inv_f
    shift_g = tuple(l - a for l, a in zip(lcm, lmg))
    inv_g = g[lmg].inverse()
    for m, v in g.items():
        key = tuple(x + y for x, y in zip(m, shift_g))
        c = v * inv_g
        prev = out.get(key)
        nv = -c if prev is None else prev - c
        if nv:
            out[key] = nv
        elif prev is not None:
            del out[key]
    return out


def _interreduce(basis: list, order) -> list:
    current = [dict(b) for b in basis]
    changed = True
    while changed:
        changed = False
        reduced: list = []
        for i, g in enumerate(current):
            others = reduced + current[i + 1 :]
            nf = _normal_form_dict(g, _prep(others, order), order) if others else g
            if nf != g:
                changed = True
            if nf:
                reduced.append(_monic(nf, order))
        current = reduced
    current.sort(key=lambda t: order.key(max(t, key=order.key)))
    return current


def groebner_basis(polys: Iterable, order) -> list:
    """Reduced, monic, deterministically sorted basis."""
    basis = [dict(p.terms) for p in polys if not p.is_zero()]
    basis = [_monic(t, order) for t in basis]
    basis.sort(key=lambda t: order.key(max(t, key=order.key)))
    lms = [max(t, key=order.key) for t in basis]

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
        s = _s_poly(basis[i], basis[j], order)
        if not s:
            continue
        nf = _normal_form_dict(s, _prep(basis, order), order)
        if not nf:
            continue
        basis.append(_monic(nf, order))
        lms.append(max(nf, key=order.key))
        new = len(basis) - 1
        for k in range(new):
            pairs.add((k, new))
    reduced = _interreduce(basis, order)
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


def eliminate(polys: Iterable, dim: int, keep: int) -> list:
    """Generators of the ideal intersected with the ring of variable `keep`."""
    order = BlockOrder(dim, [i for i in range(dim) if i != keep])
    basis = groebner_basis(polys, order)
    found = []
    for g in basis:
        if all(all(a == 0 for i, a in enumerate(m) if i != keep) for m in g.terms):
            found.append(g)
    return found
