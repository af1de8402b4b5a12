"""Exact arithmetic in Q[t, t^-1] and its fraction constructions.

A Laurent polynomial over Q is stored densely as integer numerators over
one denominator: fields (lo, nums, den) stand for
sum_i nums[i] t^(lo+i) / den, with nums[0] and nums[-1] nonzero, den > 0
and gcd(nums, den) = 1, so equal polynomials have equal fields.  The
arithmetic runs on the integer kernel below (dense tuples of ints, index =
degree), which `realroots` shares; division is one integer pseudo-division
s*a = q*b + r, with the rational scale carried in den.

Units of the ring are c*t^k (c a nonzero rational); `normalize` picks the
canonical associate (lowest exponent 0, integer-primitive coefficients,
positive leading coefficient), so equality up to units is bit-exact
equality of normal forms.

`factor` factors a normal form over Z (Zassenhaus; von zur Gathen-Gerhard,
Modern Computer Algebra, ch. 14-15).  Yun's algorithm splits it into
squarefree parts.  For each part, odd primes p not dividing the leading
coefficient and keeping the part squarefree mod p are tried, up to
PRIME_TRIES of them; distinct-degree factorization counts the factors mod
each, a single factor proves the part irreducible, and otherwise the prime
with the fewest factors is kept.  Cantor-Zassenhaus equal-degree splitting
(with a fixed-seed random source, so runs repeat) gives the factors mod p,
which are Hensel-lifted to p^(2^j) above twice the Mignotte bound
lc * 2^n * ||f||_2.  Subsets of the lifted factors, by increasing size, are
then multiplied out and tried as divisors, and each true factor found is
divided out at once; what remains at the end is irreducible.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from fractions import Fraction
from math import gcd as igcd, isqrt, lcm as ilcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Rational = Fraction
Dense = Tuple[int, ...]

# Exponent spread accepted from JSON: storage is dense, so a far-apart pair
# of exponents in an input document must not allocate without bound.
MAX_JSON_SPAN = 1 << 16

# The one memo policy of the program: every cached computation (modules,
# Blanchfield forms, supports, derived depths, generator images, the
# doubling operator, Arf invariants, pi enclosures, rho0 values) is a pure
# function of hashable values, memoized by this bounded LRU.  Hit and miss
# counts are in `f.cache_info()`.  The LRU
# keys a call by its spelling, so a function with a default parameter is a
# public function that calls a memoized inner one with every argument
# positional: f(w), f(w, 5) and f(w, n_max=5) then share one entry.
memo = functools.lru_cache(maxsize=256)

# Good primes tried by `factor` before it settles on the one giving the
# fewest modular factors.
PRIME_TRIES = 5


class DegreeCapExceeded(Exception):
    """Factorization refused because the input degree exceeds the cap."""


# -- the integer kernel: dense polynomials as tuples of ints, index = degree --


def _integers(values: Iterable) -> Tuple[List[int], int]:
    """Rational values as (integer numerators, common denominator > 0)."""
    values = list(values)
    den = 1
    for v in values:
        if isinstance(v, Fraction):
            den = ilcm(den, v.denominator)
        elif not isinstance(v, int):
            raise TypeError(f"rational coefficient expected, got {type(v).__name__}")
    if den == 1:
        return [int(v) for v in values], 1
    return [int(v * den) for v in values], den


def primitive(coeffs: Iterable) -> Dense:
    """The coefficients scaled by a positive rational to coprime integers,
    trailing zeros dropped; the zero polynomial is ()."""
    nums, _ = _integers(coeffs)
    while nums and not nums[-1]:
        nums.pop()
    g = igcd(*nums)
    return tuple(x // g for x in nums) if g > 1 else tuple(nums)


def pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> Tuple[int, List[int], List[int]]:
    """Integer pseudo-division: (s, q, r) with s*a = q*b + r, s > 0 and
    len(r) < len(b); a and b have no trailing zeros, nor have q and r.

    A step scales by |lc(b)|/gcd(top, lc(b)) only when its quotient
    coefficient is not an integer, so s = 1 whenever a/b is in Z[t]."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    lb, lc = len(b), b[-1]
    s = 1
    q = [0] * max(0, len(r) - lb + 1)
    while len(r) >= lb:
        top = r[-1]
        if top % lc:
            f = abs(lc) // igcd(top, lc)
            s *= f
            r = [x * f for x in r]
            q = [x * f for x in q]
            top *= f
        c = top // lc
        d = len(r) - lb
        q[d] = c
        r[d:] = [x - c * y for x, y in zip(r[d:], b)]
        while r and not r[-1]:
            r.pop()
    return s, q, r


def dense_gcd(a: Sequence[int], b: Sequence[int]) -> Dense:
    """gcd in Z[t] by the primitive remainder sequence: primitive, with
    positive leading coefficient; () when both are zero."""
    a, b = primitive(a), primitive(b)
    while b:
        a, b = b, primitive(pseudo_divmod(a, b)[2])
    return a if not a or a[-1] > 0 else tuple(-x for x in a)


def dense_derivative(a: Sequence[int]) -> Dense:
    return tuple(i * c for i, c in enumerate(a))[1:]


def _lp(lo: int, nums: Dense, den: int = 1) -> "LaurentPoly":
    """A LaurentPoly from fields already in canonical form."""
    p = object.__new__(LaurentPoly)
    p._lo, p._nums, p._den, p._hash = lo, nums, den, None
    return p


def _canon(lo: int, nums: List[int], den: int = 1) -> "LaurentPoly":
    """sum nums[i] t^(lo+i) / den (den > 0) with its fields made canonical."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return _ZERO
    i = 0
    while not nums[i]:
        i += 1
    if den != 1:
        g = igcd(den, *nums)
        if g != 1:
            den //= g
            nums = [x // g for x in nums]
    return _lp(lo + i, tuple(nums[i:]), den)


class LaurentPoly:
    """A Laurent polynomial over Q.

    Immutable; the zero polynomial has no numerators.

    >>> f = LaurentPoly({2: 2, 1: -5, 0: 2})
    >>> str(f)
    '2*t^2 - 5*t + 2'
    """

    __slots__ = ("_lo", "_nums", "_den", "_hash")

    def __init__(self, coeffs: Optional[Dict[int, Rational]] = None):
        p = _ZERO
        if coeffs:
            c = {int(e): v for e, v in coeffs.items()}
            lo = min(c)
            dense = [0] * (max(c) - lo + 1)
            for e, v in c.items():
                dense[e - lo] = v
            p = LaurentPoly.from_coeffs(dense, lo)
        self._lo, self._nums, self._den, self._hash = p._lo, p._nums, p._den, None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _ONE

    @classmethod
    def t(cls, k: int = 1) -> "LaurentPoly":
        return _lp(k, (1,))

    @classmethod
    def constant(cls, c) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def from_coeffs(cls, coeffs: Iterable, low: int = 0) -> "LaurentPoly":
        """Dense constructor: coeffs[i] is the coefficient of t^(low+i)."""
        nums, den = _integers(coeffs)
        return _canon(low, nums, den)

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def coeff(self, e: int) -> Fraction:
        i = e - self._lo
        if 0 <= i < len(self._nums):
            return Fraction(self._nums[i], self._den)
        return Fraction(0)

    def items(self) -> List[Tuple[int, Fraction]]:
        lo, den = self._lo, self._den
        return [(lo + i, Fraction(x, den)) for i, x in enumerate(self._nums) if x]

    def low(self) -> int:
        if not self._nums:
            raise ValueError("zero polynomial has no lowest exponent")
        return self._lo

    def degree(self) -> int:
        if not self._nums:
            raise ValueError("zero polynomial has no degree")
        return self._lo + len(self._nums) - 1

    def span(self) -> int:
        """Degree spread; the Euclidean size function on Q[t,t^-1]."""
        if not self._nums:
            raise ValueError("zero polynomial has no span")
        return len(self._nums) - 1

    # -- arithmetic ---------------------------------------------------------

    def _combine(self, other: "LaurentPoly", op) -> "LaurentPoly":
        """op (add or sub) coefficientwise, over a common denominator."""
        if not other._nums:
            return self
        a, b, den = self._nums, other._nums, self._den
        if den != other._den:
            g = igcd(den, other._den)
            a = [x * (other._den // g) for x in a]
            b = [x * (den // g) for x in b]
            den = den // g * other._den
        lo = min(self._lo, other._lo)
        hi = max(self._lo + len(a), other._lo + len(b))
        a = [0] * (self._lo - lo) + list(a) + [0] * (hi - self._lo - len(a))
        b = [0] * (other._lo - lo) + list(b) + [0] * (hi - other._lo - len(b))
        return _canon(lo, list(map(op, a, b)), den)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._combine(other, operator.add) if self._nums else other

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "LaurentPoly":
        return _lp(self._lo, tuple(-x for x in self._nums), self._den)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        a, b = self._nums, other._nums
        if not a or not b:
            return _ZERO
        if len(a) < len(b):
            a, b = b, a
        la = len(a)
        out = [0] * (la + len(b) - 1)
        for j, y in enumerate(b):
            if y:
                out[j:j + la] = [o + y * x for o, x in zip(out[j:j + la], a)]
        den = self._den * other._den
        if den == 1:
            return _lp(self._lo + other._lo, tuple(out))
        return _canon(self._lo + other._lo, out, den)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, c) -> "LaurentPoly":
        (n,), d = _integers((c,))
        return _canon(self._lo, [x * n for x in self._nums], self._den * d)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return _lp(self._lo + k, self._nums, self._den) if self._nums else self

    def conjugate(self) -> "LaurentPoly":
        """The involution t -> t^-1."""
        n = self._nums
        return _lp(1 - self._lo - len(n), n[::-1], self._den) if n else self

    def derivative(self) -> "LaurentPoly":
        lo = self._lo
        return _canon(lo - 1, [x * (lo + i) for i, x in enumerate(self._nums)], self._den)

    def evaluate(self, x) -> Fraction:
        (n,), d = _integers((x,))
        x = Fraction(n, d)
        if x == 0 and self._nums and self._lo < 0:
            raise ZeroDivisionError("evaluation at 0 with negative exponents")
        total = Fraction(0)
        for c in reversed(self._nums):
            total = total * x + c
        return total * x**self._lo / self._den

    # -- normal form ---------------------------------------------------------

    def normalize(self) -> "LaurentPoly":
        """Canonical associate: lowest exponent 0, integer-primitive,
        positive leading coefficient.  Zero maps to zero."""
        n = self._nums
        if not n:
            return _ZERO
        g = igcd(*n)
        if n[-1] < 0:
            g = -g
        if g == 1 and self._lo == 0 and self._den == 1:
            return self
        return _lp(0, tuple(x // g for x in n))

    def unit_quotient_over(self, other: "LaurentPoly") -> Tuple[Fraction, int]:
        """For self = c * t^k * other (an associate), return (c, k)."""
        if self.is_zero() or other.is_zero():
            raise ValueError("unit quotient of zero")
        a, b = self._nums, other._nums
        la, lb = a[-1], b[-1]
        if len(a) != len(b) or any(x * lb != y * la for x, y in zip(a, b)):
            raise ValueError("polynomials are not associates")
        return Fraction(la * other._den, self._den * lb), self._lo - other._lo

    # -- comparisons / hashing ------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self._nums == other._nums and self._lo == other._lo
                and self._den == other._den)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._lo, self._nums, self._den))
        return self._hash

    def eq_up_to_units(self, other: "LaurentPoly") -> bool:
        return self.normalize() == other.normalize()

    # -- presentation -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._nums:
            return "0"
        parts = []
        for e, v in reversed(self.items()):
            if e == 0:
                mon = ""
            elif e == 1:
                mon = "t"
            else:
                mon = f"t^{e}"
            av = abs(v)
            if mon and av == 1:
                body = mon
            elif mon:
                body = f"{av}*{mon}"
            else:
                body = str(av)
            if not parts:
                parts.append(body if v > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if v > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    def to_json(self) -> list:
        """Sparse [exponent, [num, den]] pairs, exponents descending, each
        fraction in lowest terms."""
        lo, den, out = self._lo, self._den, []
        for i in range(len(self._nums) - 1, -1, -1):
            x = self._nums[i]
            if x:
                g = igcd(x, den)
                out.append([lo + i, [x // g, den // g]])
        return out

    @classmethod
    def from_json(cls, data: list) -> "LaurentPoly":
        c = {}
        for pair in data:
            e, (num, den) = pair
            c[int(e)] = Fraction(int(num), int(den))
        if c and max(c) - min(c) > MAX_JSON_SPAN:
            raise ValueError(f"exponents more than {MAX_JSON_SPAN} apart")
        return cls(c)


_ZERO = _lp(0, ())
_ONE = _lp(0, (1,))


# -- ring operations ----------------------------------------------------------


def _divide(a: LaurentPoly, b: LaurentPoly, an: Sequence[int], bn: Sequence[int],
            qlo: int, rlo: int) -> Tuple[LaurentPoly, LaurentPoly]:
    """a = q*b + r from the pseudo-division of the numerators an by bn,
    whose first entries stand for t^qlo in q and t^rlo in r; the scale s
    and the denominators of a and b go into the denominators of q and r."""
    if not bn:
        raise ZeroDivisionError("division by the zero polynomial")
    if not an:
        return _ZERO, _ZERO
    s, q, r = pseudo_divmod(an, bn)
    den = s * a._den
    if b._den != 1:
        q = [x * b._den for x in q]
    return _canon(qlo, q, den), _canon(rlo, r, den)


def divmod_laurent(a: LaurentPoly, b: LaurentPoly) -> Tuple[LaurentPoly, LaurentPoly]:
    """Division with remainder in Q[t,t^-1]: a = q*b + r, span(r) < span(b)."""
    return _divide(a, b, a._nums, b._nums, a._lo - b._lo, a._lo)


def divides(d: LaurentPoly, f: LaurentPoly) -> bool:
    if d.is_zero():
        return f.is_zero()
    _, r = divmod_laurent(f, d)
    return r.is_zero()


def exact_div(f: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    q, r = divmod_laurent(f, d)
    if not r.is_zero():
        raise ValueError(f"{d} does not divide {f}")
    return q


def gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Normalized gcd in the PID Q[t,t^-1]; gcd(0, f) = normalize(f).

    Normal forms have a nonzero constant term, so their gcd in Z[t] has
    one too and is already the normalized gcd."""
    a, b = a.normalize(), b.normalize()
    return _lp(0, dense_gcd(a._nums, b._nums))


def normalize(f: LaurentPoly) -> LaurentPoly:
    return f.normalize()


def conjugate_normalized(f: LaurentPoly) -> LaurentPoly:
    """Canonical form of f(1/t); fixed points are the symmetric polynomials."""
    return f.conjugate().normalize()


def poly_divmod(a: LaurentPoly, b: LaurentPoly) -> Tuple[LaurentPoly, LaurentPoly]:
    """Division with remainder in Q[t] (inputs must have low >= 0):
    a = q*b + r with deg(r) < deg(b).  Unlike `divmod_laurent`, the
    remainder window is pinned to [0, deg b)."""
    if a._lo < 0 or b._lo < 0:
        raise ValueError("poly_divmod expects genuine polynomials")
    return _divide(a, b, (0,) * a._lo + a._nums, (0,) * b._lo + b._nums, 0, 0)


def ext_gcd_poly(a: LaurentPoly, b: LaurentPoly) -> Tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
    """Extended gcd in Q[t] for genuine polynomials (low >= 0):
    returns (g, s, u) with g = s*a + u*b and g normalized."""
    r0, r1 = a, b
    s0, s1 = LaurentPoly.one(), LaurentPoly.zero()
    u0, u1 = LaurentPoly.zero(), LaurentPoly.one()
    while not r1.is_zero():
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        u0, u1 = u1, u0 - q * u1
    if r0.is_zero():
        return LaurentPoly(), s0, u0
    g = r0.normalize()
    c, k = r0.unit_quotient_over(g)
    inv = LaurentPoly({-k: 1 / c})
    return g, inv * s0, inv * u0


def invert_mod(x: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """Inverse of x modulo d, as a canonical residue in [0, deg d).

    Requires d normalized with d(0) != 0 (so t is invertible mod d) and
    gcd(x, d) = 1.
    """
    if x.is_zero():
        raise ZeroDivisionError("zero is not invertible")
    # Bezout on the residue: s has degree < deg d, so it is the residue of 1/x
    g, inv, _ = ext_gcd_poly(reduce_mod(x, d), d)
    if g != LaurentPoly.one():
        raise ValueError("element is not invertible modulo the given polynomial")
    if reduce_mod(x * inv, d) != LaurentPoly.one():
        raise AssertionError("modular inverse verification failed")
    return inv


def reduce_mod(f: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """Canonical representative of f in Q[t,t^-1]/(d): the polynomial with
    low >= 0 and degree < deg(d).  Requires d normalized with d(0) != 0."""
    if d.is_zero():
        return f
    if d.low() != 0 or not d.coeff(0):
        raise ValueError("modulus must be normalized with nonzero constant term")
    if d.degree() == 0:
        return LaurentPoly()
    if f.is_zero():
        return f
    m = f.low()
    p = f
    if m < 0:
        # t^-1 = (d(0) - d) / (t d(0)) modulo d
        d0 = d.coeff(0)
        t_inverse = (LaurentPoly.constant(d0) - d).shift(-1).scale(1 / d0)
        p = f.shift(-m) * t_inverse ** (-m)
    _, r = poly_divmod(p, d)
    return r


# -- factorization over Z[t] -----------------------------------------------------
#
# Dense lists of ints, index = degree, trimmed.  The modular helpers (prefix
# _p) keep residues in [0, m); they serve both the prime p of the modular
# factorization and the modulus p^(2^j) of the Hensel lift.


def _trim(a: List[int]) -> List[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _zsub(a: Sequence[int], b: Sequence[int]) -> List[int]:
    return _trim([x - y for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _zquo(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """a / b for b primitive dividing a: the quotient lies in Z[t]."""
    return pseudo_divmod(a, b)[1]


def _pmul(a: Sequence[int], b: Sequence[int], m: int) -> List[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    lb = len(b)
    for i, x in enumerate(a):
        if x:
            out[i:i + lb] = [o + x * y for o, y in zip(out[i:i + lb], b)]
    return _trim([c % m for c in out])


def _padd(a: Sequence[int], b: Sequence[int], m: int) -> List[int]:
    return _trim([(x + y) % m for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _psub(a: Sequence[int], b: Sequence[int], m: int) -> List[int]:
    return _trim([(x - y) % m for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _pdivmod(a: Sequence[int], b: Sequence[int], m: int) -> Tuple[List[int], List[int]]:
    """Division with remainder mod m by b, whose leading coefficient is a
    unit mod m."""
    r = _trim([c % m for c in a])
    lb = len(b)
    inv = pow(b[-1], -1, m)
    q = [0] * max(0, len(r) - lb + 1)
    while len(r) >= lb:
        c = r[-1] * inv % m
        d = len(r) - lb
        q[d] = c
        r[d:] = [(x - c * y) % m for x, y in zip(r[d:], b)]
        _trim(r)
    return q, r


def _pmonic(a: Sequence[int], m: int) -> List[int]:
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]


def _pgcd(a: Sequence[int], b: Sequence[int], p: int) -> List[int]:
    """Monic gcd mod the prime p."""
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    return _pmonic(a, p) if a else []


def _ppow(a: Sequence[int], e: int, f: Sequence[int], p: int) -> List[int]:
    """a^e mod (f, p)."""
    out, a = [1], _pdivmod(a, f, p)[1]
    while e:
        if e & 1:
            out = _pdivmod(_pmul(out, a, p), f, p)[1]
        e >>= 1
        if e:
            a = _pdivmod(_pmul(a, a, p), f, p)[1]
    return out


def _squarefree_decomposition(f: Sequence[int]) -> List[Tuple[List[int], int]]:
    """Yun over Z: (a_i, i) with f = prod a_i^i, the a_i squarefree,
    pairwise coprime, primitive with positive leading coefficient, for f
    primitive with positive leading coefficient.  Each division is by a
    primitive divisor, so it stays in Z[t]; b and c are divided by the same
    gcd at each step, so d = c - b' keeps its meaning."""
    df = dense_derivative(f)
    a = dense_gcd(f, df)
    b, c = _zquo(f, a), _zquo(df, a)
    out, i = [], 1
    while len(b) > 1:
        d = _zsub(c, dense_derivative(b))
        a = dense_gcd(b, d)
        if len(a) > 1:
            out.append((list(a), i))
        b, c = _zquo(b, a), _zquo(d, a)
        i += 1
    return out


def _odd_primes():
    n = 3
    while True:
        if all(n % q for q in range(3, isqrt(n) + 1, 2)):
            yield n
        n += 2


def _distinct_degree(f: List[int], p: int) -> List[Tuple[List[int], int]]:
    """(g, d) pairs, g the product of the degree-d irreducible factors of f
    (monic and squarefree mod p)."""
    out, h, d = [], [0, 1], 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _ppow(h, p, f, p)
        g = _pgcd(f, _psub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _pdivmod(f, g, p)[0]
            h = _pdivmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(f: List[int], d: int, p: int, rng: random.Random) -> List[List[int]]:
    """Cantor-Zassenhaus: the monic irreducible factors, each of degree d,
    of f (monic, squarefree mod the odd prime p)."""
    if len(f) - 1 == d:
        return [f]
    e = (p**d - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(f) - 1)])
        if len(a) < 2:
            continue
        g = _pgcd(f, _psub(_ppow(a, e, f, p), [1], p), p)
        if 1 < len(g) < len(f):
            return (_equal_degree(g, d, p, rng)
                    + _equal_degree(_pdivmod(f, g, p)[0], d, p, rng))


def _lift_pair(f: List[int], g: List[int], h: List[int], p: int, M: int):
    """Quadratic Hensel lifting: for f monic mod M = p^(2^j) and f = g*h
    mod p, g and h monic and coprime mod p, the monic lifts of g and h
    mod M, carrying Bezout s*g + t*h = 1 along."""
    r0, r1, s, s1, t, t1 = g, h, [1], [], [], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s, s1 = s1, _psub(s, _pmul(q, s1, p), p)
        t, t1 = t1, _psub(t, _pmul(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    s, t = [c * inv % p for c in s], [c * inv % p for c in t]
    m = p
    while m < M:
        m *= m
        e = _psub(f, _pmul(g, h, m), m)
        g, h = (_padd(g, _pdivmod(_pmul(t, e, m), g, m)[1], m),
                _padd(h, _pdivmod(_pmul(s, e, m), h, m)[1], m))
        if m < M:
            b = _psub(_padd(_pmul(s, g, m), _pmul(t, h, m), m), [1], m)
            c, d = _pdivmod(_pmul(s, b, m), h, m)
            s = _psub(s, d, m)
            t = _psub(_psub(t, _pmul(t, b, m), m), _pmul(c, g, m), m)
    return g, h


def _recombine(f: List[int], lifted: List[List[int]], M: int) -> List[List[int]]:
    """Zassenhaus recombination: subsets of the lifted factors by increasing
    size; a subset whose product times lc(f), read symmetrically mod M,
    has a primitive part dividing f gives an irreducible factor, which is
    divided out of f."""
    def sym(c: int) -> int:
        c %= M
        return c - M if 2 * c > M else c

    out = []
    k = 1
    while 2 * k <= len(lifted):
        for subset in itertools.combinations(range(len(lifted)), k):
            lc = f[-1]
            c0 = lc
            for i in subset:
                c0 = c0 * lifted[i][0] % M
            c0 = sym(c0)
            if not c0 or lc * f[0] % c0:  # the constant terms rule it out
                continue
            g = [lc]
            for i in subset:
                g = _pmul(g, lifted[i], M)
            h = primitive([sym(c) for c in g])
            _, q, r = pseudo_divmod(f, h)
            if not r:
                out.append(list(h))
                f = q
                lifted = [x for i, x in enumerate(lifted) if i not in subset]
                break
        else:
            k += 1
    out.append(f)
    return out


def _factor_squarefree(f: List[int], rng: random.Random) -> List[List[int]]:
    """The irreducible factors over Z of f, primitive and squarefree with
    positive leading coefficient and f(0) != 0 (Zassenhaus)."""
    n, lc = len(f) - 1, f[-1]
    if n == 1:
        return [f]
    best = None
    tries = 0
    for p in _odd_primes():
        if not lc % p:
            continue
        fp = _pmonic([c % p for c in f], p)
        if len(_pgcd(fp, _trim([c % p for c in dense_derivative(fp)]), p)) > 1:
            continue
        dd = _distinct_degree(fp, p)
        count = sum((len(g) - 1) // d for g, d in dd)
        if count == 1:
            return [f]
        if best is None or count < best[0]:
            best = (count, p, dd)
        tries += 1
        if tries == PRIME_TRIES:
            break
    _, p, dd = best
    modular = [g for h, d in dd for g in _equal_degree(h, d, p, rng)]
    # Mignotte: a factor of f scaled to leading coefficient lc has
    # coefficients below B = lc * 2^n * ||f||_2 (the bound of von zur
    # Gathen-Gerhard, Algorithm 15.19).  Past 2B, symmetric residues mod M
    # are those coefficients.
    bound = 2 * lc * 2**n * (isqrt(sum(c * c for c in f)) + 1)
    M = p
    while M <= bound:
        M *= M
    F = _pmonic(f, M)
    lifted = []
    for i in range(len(modular) - 1):
        rest = functools.reduce(lambda a, b: _pmul(a, b, p), modular[i + 1:])
        g, F = _lift_pair(F, modular[i], rest, p, M)
        lifted.append(g)
    lifted.append(F)
    return _recombine(f, lifted, M)


def factor(f: LaurentPoly, degree_cap: int = 24) -> List[Tuple[LaurentPoly, int]]:
    """Complete factorization over Q into normalized irreducibles.

    Returns (factor, multiplicity) pairs, sorted; the product of the factors
    equals f up to units.  Degree above `degree_cap` is refused outright.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    g = f.normalize()
    if g.degree() > degree_cap:
        raise DegreeCapExceeded(
            f"degree {g.degree()} exceeds the factorization cap {degree_cap}"
        )
    rng = random.Random(0)
    out = [(_lp(0, tuple(h)), mult)
           for a, mult in _squarefree_decomposition(g._nums)
           for h in _factor_squarefree(a, rng)]
    out.sort(key=lambda pm: (pm[0].degree(), pm[0].to_json()))
    return out


def is_squarefree(f: LaurentPoly) -> bool:
    g = f.normalize()
    if g.is_zero():
        return False
    if g.degree() == 0:
        return True
    return gcd(g, g.derivative()) == LaurentPoly.one()


# -- fractions ----------------------------------------------------------------


class RationalFunctionModPoly:
    """An element of Q(t)/Q[t,t^-1].

    Canonical form: denominator normalized with nonzero constant term,
    numerator the canonical representative mod the denominator (low >= 0,
    degree < deg den).  The class of any integral element is zero.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = LaurentPoly(), LaurentPoly.one()
            return
        g = gcd(num, den)
        if g.degree() > 0:
            num, den = exact_div(num, g), exact_div(den, g)
        dn = den.normalize()
        c, k = den.unit_quotient_over(dn)
        num = num.scale(1 / c).shift(-k)
        num = reduce_mod(num, dn)
        if num.is_zero():
            self.num, self.den = LaurentPoly(), LaurentPoly.one()
        else:
            self.num, self.den = num, dn

    @classmethod
    def zero(cls) -> "RationalFunctionModPoly":
        return cls(LaurentPoly(), LaurentPoly.one())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, o: "RationalFunctionModPoly") -> "RationalFunctionModPoly":
        return RationalFunctionModPoly(
            self.num * o.den + o.num * self.den, self.den * o.den
        )

    def __sub__(self, o: "RationalFunctionModPoly") -> "RationalFunctionModPoly":
        return RationalFunctionModPoly(
            self.num * o.den - o.num * self.den, self.den * o.den
        )

    def __neg__(self) -> "RationalFunctionModPoly":
        return RationalFunctionModPoly(-self.num, self.den)

    def scale_poly(self, f: LaurentPoly) -> "RationalFunctionModPoly":
        """Module action of Q[t,t^-1]."""
        return RationalFunctionModPoly(self.num * f, self.den)

    def conjugate(self) -> "RationalFunctionModPoly":
        return RationalFunctionModPoly(self.num.conjugate(), self.den.conjugate())

    def __eq__(self, o) -> bool:
        if not isinstance(o, RationalFunctionModPoly):
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return f"({self.num})/({self.den})"

    __repr__ = __str__
