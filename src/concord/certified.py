"""Certified real enclosures with rational endpoints.

Everything here is exact: an Interval is a pair of Fractions guaranteed to
contain the value it describes, and the transcendental enclosures (pi,
arccos, square roots) come from series with explicit remainder bounds.
Floating point is never consulted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

_ZERO = Fraction(0)


class Interval:
    """A closed interval [lo, hi] with rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo, self.hi = lo, hi

    @classmethod
    def point(cls, x) -> "Interval":
        x = Fraction(x)
        return cls(x, x)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def radius(self) -> Fraction:
        return (self.hi - self.lo) / 2

    def contains(self, x) -> bool:
        return self.lo <= Fraction(x) <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

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

    def __mul__(self, o: "Interval") -> "Interval":
        cands = [self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi]
        return Interval(min(cands), max(cands))

    def __truediv__(self, o: "Interval") -> "Interval":
        if o.lo <= 0 <= o.hi:
            raise ZeroDivisionError("division by an interval containing zero")
        cands = [self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi]
        return Interval(min(cands), max(cands))

    def __repr__(self) -> str:
        return f"Interval({self.lo}, {self.hi})"


@dataclass(frozen=True)
class CertifiedReal:
    """A real number known to lie within `radius` of `midpoint`."""

    midpoint: Fraction
    radius: Fraction

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("negative radius")

    @classmethod
    def exact(cls, x) -> "CertifiedReal":
        return cls(Fraction(x), _ZERO)

    @classmethod
    def from_interval(cls, iv: Interval) -> "CertifiedReal":
        return cls(iv.midpoint(), iv.radius())

    def interval(self) -> Interval:
        return Interval(self.midpoint - self.radius, self.midpoint + self.radius)

    def contains(self, x) -> bool:
        return abs(Fraction(x) - self.midpoint) <= self.radius

    def __add__(self, o: "CertifiedReal") -> "CertifiedReal":
        return CertifiedReal(self.midpoint + o.midpoint, self.radius + o.radius)

    def __sub__(self, o: "CertifiedReal") -> "CertifiedReal":
        return CertifiedReal(self.midpoint - o.midpoint, self.radius + o.radius)

    def __neg__(self) -> "CertifiedReal":
        return CertifiedReal(-self.midpoint, self.radius)

    def scale(self, c) -> "CertifiedReal":
        c = Fraction(c)
        return CertifiedReal(self.midpoint * c, self.radius * abs(c))

    def is_exact(self) -> bool:
        return self.radius == 0

    def excludes_zero(self) -> bool:
        return abs(self.midpoint) > self.radius

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

    def __str__(self) -> str:
        if self.radius == 0:
            return f"{self.midpoint} (exact)"
        return f"{self.decimal_str()} +/- {float(self.radius):.3g}"


# -- pi -----------------------------------------------------------------------

# The tightest enclosure computed so far; every looser request is answered
# with it.  Not a `laurent.memo` keyed by err: callers read its lo/hi (the
# CSV sampling of `concord sig`), and a fresh enclosure per err could change
# their output.
_PI_CACHE: Tuple[int, Interval] = (0, Interval(3, 4))


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


def pi_interval(err: Fraction = Fraction(1, 10**40)) -> Interval:
    """Machin's formula: pi = 16 atan(1/5) - 4 atan(1/239)."""
    global _PI_CACHE
    err = Fraction(err)
    cached_err, cached = _PI_CACHE
    if cached_err and cached.width() <= err:
        return cached
    sub = err / 64
    iv = _atan_recip_interval(5, sub).scale(16) - _atan_recip_interval(239, sub).scale(4)
    if iv.width() > err:
        raise AssertionError("pi enclosure wider than requested")
    _PI_CACHE = (1, iv)
    return iv


# -- square roots ---------------------------------------------------------------


def sqrt_interval(q: Fraction, err: Fraction) -> Interval:
    """Enclosure of sqrt(q) for rational q >= 0 by dyadic bisection."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("square root of a negative rational")
    if q == 0:
        return Interval.point(0)
    r2 = q.numerator * q.denominator  # sqrt(q) = sqrt(r2)/den
    den = q.denominator
    lo_i = _isqrt(r2)
    lo, hi = Fraction(lo_i, den), Fraction(lo_i + 1, den)
    if lo * lo == q:
        return Interval.point(lo)
    while hi - lo > err:
        mid = (lo + hi) / 2
        if mid * mid <= q:
            lo = mid
        else:
            hi = mid
    return Interval(lo, hi)


def _isqrt(n: int) -> int:
    from math import isqrt

    return isqrt(n)


# -- arcsin / arccos -------------------------------------------------------------


def _asin_point_bounds(x: Fraction, err: Fraction) -> Interval:
    """Enclosure of arcsin(x) for 0 <= x <= 3/4 via the Taylor series;
    partial sums underestimate, tail bounded by a geometric series."""
    if not (0 <= x <= Fraction(3, 4)):
        raise ValueError("series domain restricted to [0, 3/4]")
    if x == 0:
        return Interval.point(0)
    total = _ZERO
    term_coeff = Fraction(1)  # C(2n, n) / 4^n
    xx = x * x
    xpow = x
    n = 0
    while True:
        term = term_coeff * xpow / (2 * n + 1)
        total += term
        # tail after n: sum_{k>n} C(2k,k)/4^k x^{2k+1}/(2k+1) <= sum x^{2k+1}
        tail = (xpow * xx) / (1 - xx)
        if tail <= err:
            return Interval(total, total + tail)
        n += 1
        term_coeff = term_coeff * (2 * n - 1) / (2 * n)
        xpow *= xx


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
    pi = pi_interval(min(err / 8, Fraction(1, 10**40)))
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
