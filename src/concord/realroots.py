"""Exact real root isolation for rational polynomials via Sturm sequences.

Polynomials are dense coefficient lists of Fractions, index = degree.
Intended for the small compact-form polynomials arising from signature
jump loci; isolating intervals use dyadic endpoints so later refinement
stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from concord.laurent import _dense_divmod

Poly = List[Fraction]


def trim(p: Sequence) -> Poly:
    out = [Fraction(c) for c in p]
    while out and not out[-1]:
        out.pop()
    return out


def evaluate(p: Sequence[Fraction], x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(p):
        total = total * x + c
    return total


def derivative(p: Sequence[Fraction]) -> Poly:
    return [c * i for i, c in enumerate(p)][1:]


def _primitive(p: Poly) -> Poly:
    """Scale by a positive rational so coefficients are coprime integers
    (sign preserved; keeps Sturm chains small)."""
    from math import gcd, lcm

    den = 1
    for c in p:
        den = lcm(den, c.denominator)
    num = 0
    for c in p:
        num = gcd(num, c.numerator * (den // c.denominator))
    scale = Fraction(den, num)
    return [c * scale for c in p]


def squarefree(p: Sequence[Fraction]) -> Poly:
    p = trim(p)
    if len(p) <= 1:
        return p
    g = _poly_gcd(p, derivative(p))
    if len(g) == 1:
        return p
    q, r = _dense_divmod(p, g)
    assert not r, "squarefree division must be exact"
    return q


def _poly_gcd(a: Poly, b: Poly) -> Poly:
    a, b = trim(a), trim(b)
    while b:
        a, b = b, _dense_divmod(a, b)[1]
        b = trim(b)
    if a:
        a = _primitive(a)
        if a[-1] < 0:
            a = [-c for c in a]
    return a


def sturm_chain(p: Poly) -> List[Poly]:
    """Sturm chain of a squarefree polynomial."""
    chain = [_primitive(trim(p)), _primitive(derivative(p))]
    while chain[-1]:
        r = _dense_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(_primitive([-c for c in r]))
    return [c for c in chain if c]


def sign_variations(chain: List[Poly], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = evaluate(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_half_open(chain: List[Poly], a: Fraction, b: Fraction) -> int:
    """Number of roots in (a, b] of the squarefree polynomial behind `chain`."""
    return sign_variations(chain, a) - sign_variations(chain, b)


@dataclass(frozen=True)
class IsolatedRoot:
    """One real root of a squarefree polynomial.

    Either exact (lo == hi == the root) or isolated in the open interval
    (lo, hi) whose endpoints are not roots.
    """

    poly: tuple
    lo: Fraction
    hi: Fraction

    def is_exact(self) -> bool:
        return self.lo == self.hi

    def width(self) -> Fraction:
        return self.hi - self.lo

    def refine(self, width: Fraction) -> "IsolatedRoot":
        if self.is_exact():
            return self
        p = list(self.poly)
        lo, hi = self.lo, self.hi
        flo = evaluate(p, lo)
        while hi - lo > width:
            mid = (lo + hi) / 2
            fmid = evaluate(p, mid)
            if not fmid:
                return IsolatedRoot(self.poly, mid, mid)
            if (flo > 0) != (fmid > 0):
                hi = mid
            else:
                lo, flo = mid, fmid
        return IsolatedRoot(self.poly, lo, hi)

    def interval(self) -> Tuple[Fraction, Fraction]:
        return self.lo, self.hi


def isolate_roots(p: Sequence[Fraction], lo: Fraction, hi: Fraction) -> List[IsolatedRoot]:
    """Isolate all real roots of squarefree p inside the open interval
    (lo, hi); the endpoints must not be roots.  Roots are returned in
    increasing order."""
    p = trim(p)
    if len(p) <= 1:
        return []
    lo, hi = Fraction(lo), Fraction(hi)
    if not evaluate(p, lo) or not evaluate(p, hi):
        raise ValueError("isolation endpoints must not be roots")
    chain = sturm_chain(p)
    key = tuple(p)
    out: List[IsolatedRoot] = []

    def recurse(a: Fraction, b: Fraction):
        # invariant: neither endpoint is a root
        n = count_roots_half_open(chain, a, b)
        if n == 0:
            return
        if n == 1:
            out.append(IsolatedRoot(key, a, b))
            return
        mid = (a + b) / 2
        if not evaluate(p, mid):
            # exact rational root at the midpoint; shrink a hole around it
            eps = (b - a) / 4
            while (
                not evaluate(p, mid - eps)
                or not evaluate(p, mid + eps)
                or count_roots_half_open(chain, mid - eps, mid + eps) > 1
            ):
                eps /= 2
            out.append(IsolatedRoot(key, mid, mid))
            recurse(a, mid - eps)
            recurse(mid + eps, b)
        else:
            recurse(a, mid)
            recurse(mid, b)

    recurse(lo, hi)
    out.sort(key=lambda r: (r.lo, r.hi))
    return out
