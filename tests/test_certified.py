import fractions
import random
import sys
from fractions import Fraction
from math import isqrt

import mpmath
import pytest

from concord.certified import (
    Interval,
    _asin_point_bounds,
    acos_interval,
    acos_of_enclosure,
    pi_interval,
    sqrt_interval,
)

mpmath.mp.dps = 60


def frac_of_mp(x):
    # exact rational from mpmath via its integer scaled representation
    return Fraction(int(mpmath.floor(x * mpmath.mpf(2) ** 200)), 2**200)


class TestInterval:
    def test_basic_ops(self):
        a = Interval(1, 2)
        b = Interval(-1, 3)
        assert (a + b).lo == 0 and (a + b).hi == 5
        assert (a - b).lo == -2 and (a - b).hi == 3
        assert (a / Interval(2, 4)).lo == Fraction(1, 4)

    def test_endpoints_made_fractions_once(self):
        lo, hi = Fraction(1, 3), Fraction(1, 2)
        iv = Interval(lo, hi)
        assert iv.lo is lo and iv.hi is hi
        iv = Interval(1, Fraction(3, 2))
        assert type(iv.lo) is Fraction and iv.lo == 1 and iv.hi == Fraction(3, 2)
        with pytest.raises(ValueError):
            Interval(hi, lo)

    def test_div_by_zero_interval(self):
        with pytest.raises(ZeroDivisionError):
            Interval(1, 2) / Interval(-1, 1)

    def test_arith(self):
        a = Interval(Fraction(1, 3) - Fraction(1, 100), Fraction(1, 3) + Fraction(1, 100))
        b = Interval(Fraction(2, 3) - Fraction(1, 200), Fraction(2, 3) + Fraction(1, 200))
        c = a + b
        assert c.midpoint == 1 and c.radius == Fraction(3, 200)
        assert (a - a).contains(0)
        assert a.scale(-2).midpoint == Fraction(-2, 3)

    def test_decimal_str(self):
        x = Interval(Fraction(-4, 3) - Fraction(1, 10**9), Fraction(-4, 3) + Fraction(1, 10**9))
        assert x.decimal_str(9) == "-1.333333333"
        assert Interval.point(0).decimal_str(3) == "0.000"
        assert Interval.point(0).is_exact() and not x.is_exact()

    def test_excludes_zero(self):
        assert Interval(Fraction(9, 100), Fraction(11, 100)).excludes_zero()
        assert not Interval(Fraction(-9, 100), Fraction(11, 100)).excludes_zero()


class TestPi:
    def test_enclosure_against_mpmath(self):
        iv = pi_interval(Fraction(1, 10**30))
        approx = frac_of_mp(mpmath.pi)  # within 1e-59 of the true value
        slack = Fraction(1, 10**55)
        assert iv.lo <= approx + slack and approx - slack <= iv.hi
        assert iv.width() <= Fraction(1, 10**30)

    def test_one_enclosure_per_width(self):
        """A looser request gets the 1e-40 enclosure, and no call changes
        what a later one returns."""
        wide = pi_interval(Fraction(1, 10**12))
        tight = pi_interval(Fraction(1, 10**45))
        assert tight.width() <= Fraction(1, 10**45)
        again = pi_interval(Fraction(1, 10**12))
        assert (again.lo, again.hi) == (wide.lo, wide.hi)
        assert again is pi_interval() is pi_interval(Fraction(1, 10**40))


def bisection_sqrt(q: Fraction, err: Fraction) -> Interval:
    """Oracle: halve [floor(sqrt(num den))/den, that + 1/den] until its
    width is at most err."""
    den = q.denominator
    r = isqrt(q.numerator * den)
    lo, hi = Fraction(r, den), Fraction(r + 1, den)
    if lo * lo == q:
        return Interval.point(lo)
    while hi - lo > err:
        mid = (lo + hi) / 2
        if mid * mid <= q:
            lo = mid
        else:
            hi = mid
    return Interval(lo, hi)


class TestSqrt:
    def test_exact_squares(self):
        assert sqrt_interval(Fraction(9, 4), Fraction(1, 1000)).width() == 0
        assert sqrt_interval(Fraction(0), Fraction(1, 1000)).width() == 0

    def test_equals_bisection(self):
        rng = random.Random(23)
        for _ in range(400):
            q = Fraction(rng.randrange(0, 10**6), rng.randrange(1, 10**4))
            if rng.random() < 0.1:
                q = q * q
            err = Fraction(rng.randrange(1, 1000), 10 ** rng.randrange(0, 30))
            got, want = sqrt_interval(q, err), bisection_sqrt(q, err)
            assert (got.lo, got.hi) == (want.lo, want.hi), (q, err)

    def test_random_against_mpmath(self):
        rng = random.Random(5)
        for _ in range(30):
            q = Fraction(rng.randrange(1, 500), rng.randrange(1, 500))
            iv = sqrt_interval(q, Fraction(1, 10**12))
            true = frac_of_mp(mpmath.sqrt(mpmath.mpf(q.numerator) / q.denominator))
            assert iv.lo - Fraction(1, 10**11) <= true <= iv.hi + Fraction(1, 10**11)
            assert iv.width() <= Fraction(1, 10**12)
            assert iv.lo * iv.lo <= q <= iv.hi * iv.hi


class TestAcos:
    def test_endpoints(self):
        assert acos_interval(Fraction(1), Fraction(1, 1000)).width() == 0
        piv = pi_interval()
        iv = acos_interval(Fraction(-1), Fraction(1, 10**10))
        assert iv.contains(piv.midpoint)

    def test_special_value(self):
        # arccos(1/2) = pi/3
        iv = acos_interval(Fraction(1, 2), Fraction(1, 10**15))
        pi3 = pi_interval(Fraction(1, 10**20)).scale(Fraction(1, 3))
        assert iv.lo <= pi3.hi and pi3.lo <= iv.hi

    def test_random_against_mpmath(self):
        rng = random.Random(9)
        for _ in range(40):
            y = Fraction(rng.randrange(-999, 1000), 1000)
            iv = acos_interval(y, Fraction(1, 10**12))
            assert iv.width() <= Fraction(1, 10**12)
            true = frac_of_mp(mpmath.acos(mpmath.mpf(y.numerator) / y.denominator))
            assert iv.lo - Fraction(1, 10**11) <= true <= iv.hi + Fraction(1, 10**11)

    def test_enclosure_monotone(self):
        x = Interval(Fraction(1, 4), Fraction(1, 2))
        iv = acos_of_enclosure(x, Fraction(1, 10**9))
        a = acos_interval(Fraction(1, 2), Fraction(1, 10**9))
        b = acos_interval(Fraction(1, 4), Fraction(1, 10**9))
        assert iv.lo <= a.lo and b.hi <= iv.hi


def fraction_asin(x: Fraction, err: Fraction) -> Interval:
    """Oracle: the arcsin series summed on Fractions, from partial sum
    to partial sum plus the tail bound x^(2n+3)/(1-x^2) <= err."""
    if x == 0:
        return Interval.point(0)
    total, coeff, xx, xpow, n = Fraction(0), Fraction(1), x * x, x, 0
    while True:
        total += coeff * xpow / (2 * n + 1)
        tail = xpow * xx / (1 - xx)
        if tail <= err:
            return Interval(total, total + tail)
        n += 1
        coeff = coeff * (2 * n - 1) / (2 * n)
        xpow *= xx


def fraction_calls(fn, *args) -> int:
    """Calls into the `fractions` module while fn(*args) runs: Fraction
    constructions, arithmetic and comparisons."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            count += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return count


class TestAsinSeries:
    def test_against_fraction_series_and_mpmath(self):
        """2000 seeded (x, err): dyadic x and x of other denominators in
        [0, 3/4], err from 1e-3 to 1e-45.  The enclosure is at most err
        wide, holds the Fraction series' enclosure (the integer sums stop
        at the same term and round outward) and holds arcsin(x) computed
        to 80 digits."""
        rng = random.Random(31)
        slack = Fraction(1, 10**75)
        with mpmath.workdps(80):
            for i in range(2000):
                if i % 2:
                    k = rng.randrange(2, 48)
                    x = Fraction(rng.randrange(0, 3 * 2**k // 4 + 1), 2**k)
                else:
                    den = rng.randrange(2, 10**rng.randrange(1, 9))
                    x = Fraction(rng.randrange(0, 3 * den // 4 + 1), den)
                err = Fraction(rng.randrange(1, 10), 10 ** rng.randrange(3, 46))
                got, want = _asin_point_bounds(x, err), fraction_asin(x, err)
                assert got.width() <= err, (x, err)
                assert got.lo <= want.lo and want.hi <= got.hi, (x, err)
                true = mpmath.asin(mpmath.mpf(x.numerator) / x.denominator)
                man, exp = true.man_exp
                approx = Fraction(man) * Fraction(2) ** exp
                assert got.lo <= approx + slack and approx - slack <= got.hi, (x, err)

    def test_work_is_independent_of_err(self):
        """No Fraction is made or combined per term: one call does the
        same Fraction work at err = 1e-9 and at 1e-45."""
        x = Fraction(5, 8) - Fraction(1, 3**20)
        loose = fraction_calls(_asin_point_bounds, x, Fraction(1, 10**9))
        tight = fraction_calls(_asin_point_bounds, x, Fraction(1, 10**45))
        assert loose == tight
