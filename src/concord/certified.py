"""Certified real enclosures with rational endpoints.

Everything here is exact.  The one enclosure type is `Interval`: a pair of
Fractions [lo, hi] guaranteed to contain the value it describes, read as
a midpoint and a radius where a result is reported.  The transcendental
enclosures (pi, arccos, square roots) come from series with explicit
remainder bounds or from integer square roots.  Floating point is never
consulted.

The arcsin series under every arccos sums on integers scaled by 2^P
rather than on Fractions: one sum rounds every step down, one rounds
every step up, and the tail bound is rounded up, so the two sums over
2^P enclose the value.  P is the bit length of 1/err plus 64 guard bits,
which keeps the rounding far below err; the loop stops on an integer test
that the width is at most err.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from concord.laurent import memo

_ZERO = Fraction(0)


class Interval:
    """A real number known to lie in the closed interval [lo, hi]."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if type(lo) is not Fraction:
            lo = Fraction(lo)
        if type(hi) is not Fraction:
            hi = Fraction(hi)
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo, self.hi = lo, hi

    @classmethod
    def point(cls, x) -> "Interval":
        x = Fraction(x)
        return cls(x, x)

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def radius(self) -> Fraction:
        return (self.hi - self.lo) / 2

    def width(self) -> Fraction:
        return self.hi - self.lo

    def is_exact(self) -> bool:
        return self.lo == self.hi

    def contains(self, x) -> bool:
        return self.lo <= Fraction(x) <= self.hi

    def excludes_zero(self) -> bool:
        return self.lo > 0 or self.hi < 0

    def __add__(self, o: "Interval") -> "Interval":
        return Interval(self.lo + o.lo, self.hi + o.hi)

    def __sub__(self, o: "Interval") -> "Interval":
        return Interval(self.lo - o.hi, self.hi - o.lo)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def scale(self, c) -> "Interval":
        c = Fraction(c)
        if c >= 0:
            return Interval(self.lo * c, self.hi * c)
        return Interval(self.hi * c, self.lo * c)

    def __truediv__(self, o: "Interval") -> "Interval":
        if o.lo <= 0 <= o.hi:
            raise ZeroDivisionError("division by an interval containing zero")
        cands = [self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi]
        return Interval(min(cands), max(cands))

    def decimal_str(self, digits: int = 12) -> str:
        """Fixed-point decimal rendering of the midpoint (round-half-even)."""
        q = Fraction(10) ** digits
        n = round(self.midpoint * q)
        sign = "-" if n < 0 else ""
        n = abs(n)
        whole, frac = divmod(n, q.numerator)
        if digits == 0:
            return f"{sign}{whole}"
        return f"{sign}{whole}.{str(frac).zfill(digits)}"

    def __repr__(self) -> str:
        return f"Interval({self.lo}, {self.hi})"


# -- pi -----------------------------------------------------------------------

# No pi enclosure is wider: a looser request gets the one of this width, so
# every caller at the command line's tolerances reads one and the same pi.
_PI_WIDTH = Fraction(1, 10**40)


def _atan_recip_interval(n: int, err: Fraction) -> Interval:
    """Enclosure of arctan(1/n) via the alternating Leibniz series."""
    x = Fraction(1, n)
    total = _ZERO
    k = 0
    term = x
    while term > err / 2:
        total += term if k % 2 == 0 else -term
        k += 1
        term = x ** (2 * k + 1) / (2 * k + 1)
    # alternating with decreasing terms: remainder bounded by next term
    if k % 2 == 0:
        return Interval(total, total + term)
    return Interval(total - term, total)


def pi_interval(err: Fraction = _PI_WIDTH) -> Interval:
    """An enclosure of pi of width at most min(err, 1e-40)."""
    return _machin(min(Fraction(err), _PI_WIDTH))


@memo
def _machin(width: Fraction) -> Interval:
    """Machin's formula: pi = 16 atan(1/5) - 4 atan(1/239)."""
    sub = width / 64
    iv = _atan_recip_interval(5, sub).scale(16) - _atan_recip_interval(239, sub).scale(4)
    if iv.width() > width:
        raise AssertionError("pi enclosure wider than requested")
    return iv


# -- square roots ---------------------------------------------------------------


def sqrt_interval(q: Fraction, err: Fraction) -> Interval:
    """Enclosure of sqrt(q) for rational q >= 0: the dyadic grid cell of
    width 1/(den 2^k) <= err that holds it, k >= 0 least, den = q's
    denominator; the point itself when q is a rational square."""
    q, err = Fraction(q), Fraction(err)
    if q < 0:
        raise ValueError("square root of a negative rational")
    den = q.denominator
    r2 = q.numerator * den  # sqrt(q) = sqrt(r2)/den
    root = isqrt(r2)
    if root * root == r2:
        return Interval.point(Fraction(root, den))
    # least k >= 0 with 2^k >= c = ceil(1/(err den))
    c = -(-err.denominator // (den * err.numerator))
    k = (c - 1).bit_length()
    m = isqrt(r2 << 2 * k)
    return Interval(Fraction(m, den << k), Fraction(m + 1, den << k))


# -- arcsin / arccos -------------------------------------------------------------


# Bits carried below err by the scaled arcsin sums: the rounding costs a
# few units of 2^-P per term, so with 64 guard bits it stays some 2^-55 of
# err and the sums stop at the term where exact partial sums would.
_GUARD_BITS = 64


def _asin_point_bounds(x: Fraction, err: Fraction) -> Interval:
    """Enclosure of arcsin(x) for 0 <= x <= 3/4, of width <= err, from the
    Taylor series sum_k C(2k,k)/4^k x^(2k+1)/(2k+1).

    The series is summed on integers scaled by S = 2^P, twice: the lower
    sum rounds every step down (x, x^2, each power, each coefficient
    C(2k,k)/4^k and each division by 2k+1 are floor divisions), the upper
    sum rounds every step up (ceiling divisions), so lo/S <= the partial
    sum <= hi/S.  After term n the upper end adds the tail bound
    sum_{k>n} x^(2k+1) = x^(2n+3)/(1-x^2), which holds because every
    coefficient times 1/(2k+1) is at most 1; it too is rounded up.  The
    loop stops once hi + tail - lo <= floor(err S), a test on integers, so
    the width is at most err.  P is the bit length of 1/err plus
    `_GUARD_BITS`."""
    if not (0 <= x <= Fraction(3, 4)):
        raise ValueError("series domain restricted to [0, 3/4]")
    if x == 0:
        return Interval.point(0)
    p = (err.denominator // err.numerator).bit_length() + _GUARD_BITS
    one = 1 << p
    budget = (err.numerator << p) // err.denominator  # floor(err S)
    a, b = x.numerator, x.denominator
    xp_lo, xp_hi = (a << p) // b, -((-a << p) // b)      # S x^(2n+1)
    xx_lo, xx_hi = xp_lo * xp_lo >> p, -(-xp_hi * xp_hi >> p)
    c_lo = c_hi = one                                     # S C(2n,n)/4^n
    lo = hi = n = 0
    while True:
        # floor(floor(y)/d) = floor(y/d), and the same for ceilings
        d = (2 * n + 1) << p
        lo += c_lo * xp_lo // d
        hi -= -c_hi * xp_hi // d
        xp_lo = xp_lo * xx_lo >> p
        xp_hi = -(-xp_hi * xx_hi >> p)
        tail = -((-xp_hi << p) // (one - xx_hi))
        if hi + tail - lo <= budget:
            return Interval(Fraction(lo, one), Fraction(hi + tail, one))
        n += 1
        c_lo = c_lo * (2 * n - 1) // (2 * n)
        c_hi = -(-c_hi * (2 * n - 1) // (2 * n))


def _asin_interval(x: Interval, err: Fraction) -> Interval:
    """arcsin on an interval within [0, 3/4], by monotonicity."""
    lo = _asin_point_bounds(x.lo, err)
    hi = _asin_point_bounds(x.hi, err)
    return Interval(lo.lo, hi.hi)


def acos_interval(y: Fraction, err: Fraction) -> Interval:
    """Enclosure of arccos(y) for rational y in [-1, 1], width <= err."""
    y = Fraction(y)
    err = Fraction(err)
    if not (-1 <= y <= 1):
        raise ValueError("arccos argument outside [-1, 1]")
    if y == 1:
        return Interval.point(0)
    pi = pi_interval(err / 8)
    if y == -1:
        return pi
    if y < 0:
        return pi - acos_interval(-y, err / 2)
    if y <= Fraction(1, 2):
        return pi.scale(Fraction(1, 2)) - _asin_point_bounds(y, err / 2)
    # y in (1/2, 1): arccos(y) = 2 arcsin(sqrt((1-y)/2)), argument < 1/2
    s = sqrt_interval((1 - y) / 2, err / 16)
    return _asin_interval(s, err / 8).scale(2)


def acos_of_enclosure(x: Interval, err: Fraction) -> Interval:
    """arccos applied to an enclosure [a, b] in [-1, 1] (decreasing)."""
    lo_end = acos_interval(x.hi, err)
    hi_end = acos_interval(x.lo, err)
    return Interval(lo_end.lo, hi_end.hi)
