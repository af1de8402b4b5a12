"""Exact real root isolation for rational polynomials via Sturm sequences.

Polynomials are dense tuples of coprime integers, index = degree: the
integer kernel of `concord.laurent`, whose pseudo-division builds the
Sturm chains and the squarefree part.  Entry points take any sequence of
rationals and first scale it by a positive rational, which keeps the roots
and the signs.  Signs at x = n/d are read off the integer d^deg * p(x).
Intended for the small compact-form polynomials arising from signature
jump loci; isolating intervals use dyadic endpoints so later refinement
stays cheap.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, NamedTuple, Sequence, Tuple

from concord.laurent import dense_derivative, dense_gcd, primitive, pseudo_divmod

Poly = Tuple[int, ...]


def _scaled_value(p: Sequence, x: Fraction) -> int:
    """d^deg(p) * p(x) for x = n/d in lowest terms: the sign of p(x)."""
    n, d = x.numerator, x.denominator
    acc, dk = 0, 1
    for c in reversed(p):
        acc = acc * n + c * dk
        dk *= d
    return acc


def evaluate(p: Sequence, x) -> Fraction:
    x = Fraction(x)
    return Fraction(_scaled_value(p, x), x.denominator ** max(len(p) - 1, 0))


def squarefree(p: Sequence) -> Poly:
    """The primitive squarefree part: the same real roots, each simple."""
    p = primitive(p)
    if len(p) <= 1:
        return p
    g = dense_gcd(p, dense_derivative(p))
    if len(g) == 1:
        return p
    _, q, r = pseudo_divmod(p, g)
    assert not r, "squarefree division must be exact"
    return tuple(q)


def sturm_chain(p: Sequence) -> List[Poly]:
    """Sturm chain of a squarefree polynomial, each member primitive."""
    chain = [primitive(p), primitive(dense_derivative(p))]
    while chain[-1]:
        r = pseudo_divmod(chain[-2], chain[-1])[2]
        if not r:
            break
        chain.append(primitive([-c for c in r]))
    return [c for c in chain if c]


def sign_variations(chain: List[Poly], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = _scaled_value(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_half_open(chain: List[Poly], a: Fraction, b: Fraction) -> int:
    """Number of roots in (a, b] of the squarefree polynomial behind `chain`."""
    return sign_variations(chain, a) - sign_variations(chain, b)


class IsolatedRoot(NamedTuple):
    """One real root of a squarefree polynomial.

    Either exact (lo == hi == the root) or isolated in the open interval
    (lo, hi) whose endpoints are not roots.
    """

    poly: Poly
    lo: Fraction
    hi: Fraction

    def is_exact(self) -> bool:
        return self.lo == self.hi

    def width(self) -> Fraction:
        return self.hi - self.lo

    def refine(self, width: Fraction) -> "IsolatedRoot":
        """The root bisected down to width <= `width`, or exact once a
        midpoint is the root: the same endpoints as bisecting on Fractions.

        The bisection runs on integer numerators over one denominator:
        lo and hi become l/den and h/den with den times the least 2^k that
        takes h - l to `width` in k halvings, so every midpoint is an
        integer over den.  A midpoint m/den is signed by the integer
        den^deg p(m/den), as in `_scaled_value`, by Horner on the
        coefficients scaled by powers of den once.  The sign at lo never
        changes, since lo only moves to points of its sign."""
        if self.is_exact():
            return self
        lo, hi = self.lo, self.hi
        den = lcm(lo.denominator, hi.denominator)
        l, h = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
        steps = -(-(h - l) * width.denominator // (den * width.numerator))
        k = (steps - 1).bit_length()  # least k with 2^k >= steps
        if not k:
            return self
        den, l, h = den << k, l << k, h << k
        scaled, dk = [], 1
        for c in reversed(self.poly):
            scaled.append(c * dk)
            dk *= den

        def value(m: int) -> int:
            acc = 0
            for c in scaled:
                acc = acc * m + c
            return acc

        lo_negative = value(l) < 0
        for _ in range(k):
            m = (l + h) >> 1
            v = value(m)
            if not v:
                return IsolatedRoot(self.poly, Fraction(m, den), Fraction(m, den))
            if (v < 0) == lo_negative:
                l = m
            else:
                h = m
        return IsolatedRoot(self.poly, Fraction(l, den), Fraction(h, den))


def isolate_roots(p: Sequence, lo: Fraction, hi: Fraction) -> List[IsolatedRoot]:
    """Isolate all real roots of squarefree p inside the open interval
    (lo, hi); the endpoints must not be roots.  Roots are returned in
    increasing order."""
    p = primitive(p)
    if len(p) <= 1:
        return []
    lo, hi = Fraction(lo), Fraction(hi)
    if not _scaled_value(p, lo) or not _scaled_value(p, hi):
        raise ValueError("isolation endpoints must not be roots")
    chain = sturm_chain(p)
    out: List[IsolatedRoot] = []

    def recurse(a: Fraction, b: Fraction):
        # invariant: neither endpoint is a root
        n = count_roots_half_open(chain, a, b)
        if n == 0:
            return
        if n == 1:
            out.append(IsolatedRoot(p, a, b))
            return
        mid = (a + b) / 2
        if not _scaled_value(p, mid):
            # exact rational root at the midpoint; shrink a hole around it
            eps = (b - a) / 4
            while (
                not _scaled_value(p, mid - eps)
                or not _scaled_value(p, mid + eps)
                or count_roots_half_open(chain, mid - eps, mid + eps) > 1
            ):
                eps /= 2
            out.append(IsolatedRoot(p, mid, mid))
            recurse(a, mid - eps)
            recurse(mid + eps, b)
        else:
            recurse(a, mid)
            recurse(mid, b)

    recurse(lo, hi)
    out.sort(key=lambda r: (r.lo, r.hi))
    return out
