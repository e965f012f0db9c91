"""Univariate root extraction over Gaussian rationals.

Pipeline: exact square-free decomposition (Yun), numeric seeding of each
square-free factor (mpmath), reconstruction of Gaussian-rational
candidates verified by exact evaluation, and for the rest an exact
rational Krawczyk contraction that certifies a unique root in a radius
2^-40 box. Approximate roots are report-only; nothing downstream consumes
them in exact computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .scalars import ONE, ZERO, GaussianRational

DEFAULT_RADIUS = Fraction(1, 2**40)

# dense polynomials: list of GaussianRational, index = exponent, no
# trailing zeros, [] is the zero polynomial


def trim(coeffs: list) -> list:
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def degree(coeffs: list) -> int:
    return len(coeffs) - 1


def is_zero(coeffs: list) -> bool:
    return not coeffs


def evaluate(coeffs: list, x: GaussianRational) -> GaussianRational:
    total = ZERO
    for c in reversed(coeffs):
        total = total * x + c
    return total


def derivative(coeffs: list) -> list:
    return trim([c * k for k, c in enumerate(coeffs)][1:])


def monic(coeffs: list) -> list:
    if not coeffs:
        return []
    inv = coeffs[-1].inverse()
    return [c * inv for c in coeffs]


def divmod_exact(f: list, g: list):
    """Long division; remainder returned as well."""
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    rem = list(f)
    q = [ZERO] * max(0, len(f) - len(g) + 1)
    inv = g[-1].inverse()
    while len(rem) >= len(g) and rem:
        factor = rem[-1] * inv
        shift = len(rem) - len(g)
        q[shift] = factor
        for i, c in enumerate(g):
            rem[shift + i] = rem[shift + i] - factor * c
        trim(rem)
    return trim(q), rem


def div_exact(f: list, g: list) -> list:
    q, r = divmod_exact(f, g)
    if r:
        raise ArithmeticError("division was not exact")
    return q


def gcd(f: list, g: list) -> list:
    a, b = list(f), list(g)
    while b:
        _, r = divmod_exact(a, b)
        a, b = b, r
    return monic(a)


def square_free_decomposition(f: list) -> list:
    """Yun: returns [(k, factor)] with f = unit * prod factor^k, factors
    square-free, pairwise coprime, monic."""
    f = monic(list(f))
    if degree(f) < 1:
        return []
    df = derivative(f)
    g = gcd(f, df)
    out = []
    c = div_exact(f, g)
    d = trim([a - b for a, b in _pad(div_exact(df, g), derivative(c))])
    k = 1
    while degree(c) >= 1:
        a = gcd(c, d)
        if degree(a) >= 1:
            out.append((k, monic(a)))
        c_next = div_exact(c, a)
        d = trim([x - y for x, y in _pad(div_exact(d, a), derivative(c_next))])
        c = c_next
        k += 1
    return out


def _pad(a: list, b: list):
    n = max(len(a), len(b))
    a = a + [ZERO] * (n - len(a))
    b = b + [ZERO] * (n - len(b))
    return zip(a, b)


@dataclass
class ApproxRoot:
    re: Fraction
    im: Fraction
    radius: Fraction
    multiplicity: int
    certified: bool


def _to_mpc(c: GaussianRational) -> mpmath.mpc:
    re = mpmath.mpf(c.re.numerator) / c.re.denominator
    im = mpmath.mpf(c.im.numerator) / c.im.denominator
    return mpmath.mpc(re, im)


def _numeric_roots(coeffs: list) -> list:
    with mpmath.workdps(60):
        poly = [_to_mpc(c) for c in reversed(coeffs)]
        try:
            roots = mpmath.polyroots(poly, maxsteps=200, extraprec=200)
        except mpmath.libmp.NoConvergence:
            roots = mpmath.polyroots(poly, maxsteps=2000, extraprec=2000)
        return [mpmath.mpc(r) for r in roots]


_DENOM_LADDER = (1, 12, 720, 10**4, 10**8, 10**12)


def _reconstruct(value: mpmath.mpc) -> list:
    """Candidate Gaussian rationals near a numeric value, small first."""
    re = Fraction(mpmath.nstr(value.real, 40, strip_zeros=False))
    im = Fraction(mpmath.nstr(value.imag, 40, strip_zeros=False))
    seen = []
    for bound in _DENOM_LADDER:
        cand = GaussianRational(re.limit_denominator(bound), im.limit_denominator(bound))
        if cand not in seen:
            seen.append(cand)
    return seen


# exact interval arithmetic on complex rectangles, used by certification


def _imul(a, b):
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(products), max(products))


class Rect:
    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    @classmethod
    def point(cls, c: GaussianRational) -> "Rect":
        return cls((c.re, c.re), (c.im, c.im))

    def __add__(self, other):
        return Rect(
            (self.re[0] + other.re[0], self.re[1] + other.re[1]),
            (self.im[0] + other.im[0], self.im[1] + other.im[1]),
        )

    def __sub__(self, other):
        return Rect(
            (self.re[0] - other.re[1], self.re[1] - other.re[0]),
            (self.im[0] - other.im[1], self.im[1] - other.im[0]),
        )

    def __mul__(self, other):
        ac = _imul(self.re, other.re)
        bd = _imul(self.im, other.im)
        ad = _imul(self.re, other.im)
        bc = _imul(self.im, other.re)
        return Rect(
            (ac[0] - bd[1], ac[1] - bd[0]),
            (ad[0] + bc[0], ad[1] + bc[1]),
        )

    def inside(self, other) -> bool:
        return (
            other.re[0] < self.re[0]
            and self.re[1] < other.re[1]
            and other.im[0] < self.im[0]
            and self.im[1] < other.im[1]
        )


def _rect_eval(coeffs: list, box: Rect) -> Rect:
    total = Rect.point(ZERO)
    for c in reversed(coeffs):
        total = total * box + Rect.point(c)
    return total


def _krawczyk_certifies(h: list, mid: GaussianRational, radius: Fraction) -> bool:
    """True when the box mid +- radius provably holds a unique root of h."""
    dh = derivative(h)
    dm = evaluate(dh, mid)
    if dm.is_zero():
        return False
    y = dm.inverse()
    box = Rect(
        (mid.re - radius, mid.re + radius),
        (mid.im - radius, mid.im + radius),
    )
    center = Rect.point(mid)
    residual = Rect.point(y * evaluate(h, mid))
    spread = Rect.point(ONE) - Rect.point(y) * _rect_eval(dh, box)
    k = center - residual + spread * (box - center)
    return k.inside(box)


def find_roots(coeffs: list):
    """All torus-relevant roots of a dense univariate polynomial.

    Returns (exact, approximate): exact is a list of
    (GaussianRational, multiplicity); approximate is a list of ApproxRoot.
    Zero roots are dropped (they never correspond to an exponential).
    """
    coeffs = trim(list(coeffs))
    exact: list = []
    approx: list = []
    if degree(coeffs) < 1:
        return exact, approx
    for mult, factor in square_free_decomposition(coeffs):
        work = list(factor)
        while work and work[0].is_zero():  # strip a root at the origin
            work = work[1:]
        if degree(work) < 1:
            continue
        remaining = list(work)
        values = _numeric_roots(work)
        # A coarse candidate of one value can be another root, which then
        # claims that value and leaves its own root unmatched. So passes
        # repeat on the deflated polynomial until one finds no new root;
        # the last pass's values seed the enclosures.
        while True:
            start = degree(remaining)
            for value in values:
                if degree(remaining) < 1:
                    break
                hit = None
                for cand in _reconstruct(value):
                    if cand and evaluate(remaining, cand).is_zero():
                        hit = cand
                        break
                if hit is not None:
                    exact.append((hit, mult))
                    remaining = div_exact(remaining, [-hit, ONE])
            if not 1 <= degree(remaining) < start:
                break
            values = _numeric_roots(remaining)
        if degree(remaining) >= 1:
            for value in values:
                mid = GaussianRational(
                    Fraction(mpmath.nstr(value.real, 40, strip_zeros=False)).limit_denominator(2**64),
                    Fraction(mpmath.nstr(value.imag, 40, strip_zeros=False)).limit_denominator(2**64),
                )
                certified = _krawczyk_certifies(remaining, mid, DEFAULT_RADIUS)
                approx.append(
                    ApproxRoot(
                        re=mid.re,
                        im=mid.im,
                        radius=DEFAULT_RADIUS,
                        multiplicity=mult,
                        certified=certified,
                    )
                )
    exact.sort(key=lambda t: t[0].sort_key())
    approx.sort(key=lambda a: (a.re, a.im))
    return exact, approx
