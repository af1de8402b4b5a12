"""Exact arithmetic in Q[t, t^-1] and its fraction constructions.

Laurent polynomials over Q are stored sparsely as {exponent: Fraction}.
Units of the ring are c*t^k (c a nonzero rational); `normalize` picks the
canonical associate (lowest exponent 0, integer-primitive coefficients,
positive leading coefficient), so equality up to units is bit-exact
equality of normal forms.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

Rational = Fraction


class DegreeCapExceeded(Exception):
    """Factorization refused because the input degree exceeds the cap."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"rational coefficient expected, got {type(x).__name__}")


class LaurentPoly:
    """A Laurent polynomial over Q.

    Immutable; the zero polynomial is the empty coefficient map.

    >>> f = LaurentPoly({2: 2, 1: -5, 0: 2})
    >>> str(f)
    '2*t^2 - 5*t + 2'
    """

    __slots__ = ("_c", "_hash")

    def __init__(self, coeffs: Optional[Dict[int, Rational]] = None):
        c: Dict[int, Fraction] = {}
        if coeffs:
            for e, v in coeffs.items():
                v = _frac(v)
                if v:
                    c[int(e)] = v
        self._c = c
        self._hash: Optional[int] = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def t(cls, k: int = 1) -> "LaurentPoly":
        return cls({k: 1})

    @classmethod
    def constant(cls, c) -> "LaurentPoly":
        return cls({0: _frac(c)})

    @classmethod
    def from_coeffs(cls, coeffs: Iterable, low: int = 0) -> "LaurentPoly":
        """Dense constructor: coeffs[i] is the coefficient of t^(low+i)."""
        return cls({low + i: _frac(v) for i, v in enumerate(coeffs)})

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def is_unit(self) -> bool:
        """True for c*t^k with c != 0."""
        return len(self._c) == 1

    def coeff(self, e: int) -> Fraction:
        return self._c.get(e, Fraction(0))

    def items(self) -> List[Tuple[int, Fraction]]:
        return sorted(self._c.items())

    def low(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no lowest exponent")
        return min(self._c)

    def degree(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no degree")
        return max(self._c)

    def span(self) -> int:
        """Degree spread; the Euclidean size function on Q[t,t^-1]."""
        if not self._c:
            raise ValueError("zero polynomial has no span")
        return max(self._c) - min(self._c)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        c = dict(self._c)
        for e, v in other._c.items():
            c[e] = c.get(e, Fraction(0)) + v
        return LaurentPoly(c)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        c = dict(self._c)
        for e, v in other._c.items():
            c[e] = c.get(e, Fraction(0)) - v
        return LaurentPoly(c)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -v for e, v in self._c.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self._c or not other._c:
            return LaurentPoly()
        c: Dict[int, Fraction] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                c[e] = c.get(e, Fraction(0)) + v1 * v2
        return LaurentPoly(c)

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
        c = _frac(c)
        if not c:
            return LaurentPoly()
        return LaurentPoly({e: v * c for e, v in self._c.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly({e + k: v for e, v in self._c.items()})

    def conjugate(self) -> "LaurentPoly":
        """The involution t -> t^-1."""
        return LaurentPoly({-e: v for e, v in self._c.items()})

    def derivative(self) -> "LaurentPoly":
        return LaurentPoly({e - 1: v * e for e, v in self._c.items() if e})

    def evaluate(self, x) -> Fraction:
        x = _frac(x)
        if x == 0 and self._c and min(self._c) < 0:
            raise ZeroDivisionError("evaluation at 0 with negative exponents")
        total = Fraction(0)
        for e, v in self._c.items():
            total += v * x**e
        return total

    # -- normal form ---------------------------------------------------------

    def content_primitive(self) -> Tuple[Fraction, "LaurentPoly"]:
        """Return (c, p) with self = c*p, p integer-primitive with positive
        leading coefficient and the same support."""
        if not self._c:
            return Fraction(0), LaurentPoly()
        from math import gcd as igcd, lcm as ilcm

        den = 1
        for v in self._c.values():
            den = ilcm(den, v.denominator)
        num = 0
        for v in self._c.values():
            num = igcd(num, v.numerator * (den // v.denominator))
        c = Fraction(num, den)
        if self._c[max(self._c)] < 0:
            c = -c
        return c, self.scale(1 / c)

    def normalize(self) -> "LaurentPoly":
        """Canonical associate: lowest exponent 0, integer-primitive,
        positive leading coefficient.  Zero maps to zero."""
        if not self._c:
            return LaurentPoly()
        _, p = self.content_primitive()
        return p.shift(-p.low())

    def unit_quotient_over(self, other: "LaurentPoly") -> Tuple[Fraction, int]:
        """For self = c * t^k * other (an associate), return (c, k)."""
        if self.is_zero() or other.is_zero():
            raise ValueError("unit quotient of zero")
        k = self.degree() - other.degree()
        c = self.coeff(self.degree()) / other.coeff(other.degree())
        if self != other.scale(c).shift(k):
            raise ValueError("polynomials are not associates")
        return c, k

    # -- comparisons / hashing ------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._c.items())))
        return self._hash

    def eq_up_to_units(self, other: "LaurentPoly") -> bool:
        return self.normalize() == other.normalize()

    # -- presentation -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for e, v in sorted(self._c.items(), reverse=True):
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
        """Sparse [exponent, [num, den]] pairs, exponents descending."""
        return [[e, [v.numerator, v.denominator]] for e, v in sorted(self._c.items(), reverse=True)]

    @classmethod
    def from_json(cls, data: list) -> "LaurentPoly":
        c = {}
        for pair in data:
            e, (num, den) = pair
            c[int(e)] = Fraction(int(num), int(den))
        return cls(c)


# -- dense helpers (internal): polynomials as coefficient lists, index=degree --


def _to_dense(p: LaurentPoly) -> List[Fraction]:
    if p.is_zero():
        return []
    if p.low() < 0:
        raise ValueError("dense form needs a genuine polynomial")
    out = [Fraction(0)] * (p.degree() + 1)
    for e, v in p.items():
        out[e] = v
    return out


def _from_dense(c: List[Fraction]) -> LaurentPoly:
    return LaurentPoly({i: v for i, v in enumerate(c) if v})


def _dense_trim(c: List[Fraction]) -> List[Fraction]:
    while c and not c[-1]:
        c.pop()
    return c


def _dense_divmod(a: List[Fraction], b: List[Fraction]) -> Tuple[List[Fraction], List[Fraction]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    while len(a) >= len(b):
        c = a[-1] * inv
        d = len(a) - len(b)
        q[d] = c
        for i, bv in enumerate(b):
            a[d + i] -= c * bv
        _dense_trim(a)
        if not a:
            break
    return _dense_trim(q), a


# -- ring operations ----------------------------------------------------------


def divmod_laurent(a: LaurentPoly, b: LaurentPoly) -> Tuple[LaurentPoly, LaurentPoly]:
    """Division with remainder in Q[t,t^-1]: a = q*b + r, span(r) < span(b)."""
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return LaurentPoly(), LaurentPoly()
    la, lb = a.low(), b.low()
    qd, rd = _dense_divmod(_to_dense(a.shift(-la)), _to_dense(b.shift(-lb)))
    return _from_dense(qd).shift(la - lb), _from_dense(rd).shift(la)


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
    """Normalized gcd in the PID Q[t,t^-1]; gcd(0, f) = normalize(f)."""
    a, b = a.normalize(), b.normalize()
    while not b.is_zero():
        _, r = divmod_laurent(a, b)
        a, b = b, r.normalize()
    return a


def lcm(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    if a.is_zero() or b.is_zero():
        return LaurentPoly()
    return exact_div(a * b, gcd(a, b)).normalize()


def normalize(f: LaurentPoly) -> LaurentPoly:
    return f.normalize()


def conjugate_normalized(f: LaurentPoly) -> LaurentPoly:
    """Canonical form of f(1/t); fixed points are the symmetric polynomials."""
    return f.conjugate().normalize()


def poly_divmod(a: LaurentPoly, b: LaurentPoly) -> Tuple[LaurentPoly, LaurentPoly]:
    """Division with remainder in Q[t] (inputs must have low >= 0):
    a = q*b + r with deg(r) < deg(b).  Unlike `divmod_laurent`, the
    remainder window is pinned to [0, deg b)."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return LaurentPoly(), LaurentPoly()
    if a.low() < 0 or b.low() < 0:
        raise ValueError("poly_divmod expects genuine polynomials")
    qd, rd = _dense_divmod(_to_dense(a), _to_dense(b))
    return _from_dense(qd), _from_dense(rd)


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


def _t_inverse_rep(d: LaurentPoly) -> LaurentPoly:
    """Polynomial representative of t^-1 in Q[t]/(d), for d(0) != 0:
    t * (d(0) - d)/(t*d(0)) = 1 - d/d(0)."""
    d0 = d.coeff(0)
    return (LaurentPoly.constant(d0) - d).shift(-1).scale(1 / d0)


def invert_mod(x: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """Inverse of x modulo d, as a canonical residue in [0, deg d).

    Requires d normalized with d(0) != 0 (so t is invertible mod d) and
    gcd(x, d) = 1.
    """
    if x.is_zero():
        raise ZeroDivisionError("zero is not invertible")
    if d.low() != 0 or not d.coeff(0):
        raise ValueError("modulus must be normalized with nonzero constant term")
    m = x.low()
    g, s, _ = ext_gcd_poly(x.shift(-m), d)
    if g != LaurentPoly.one():
        raise ValueError("element is not invertible modulo the given polynomial")
    # x = t^m * p with s*p = 1 mod d, so x^-1 = t^-m * s mod d.
    if m > 0:
        inv = s * (_t_inverse_rep(d) ** m)
    else:
        inv = s.shift(-m)
    _, inv = poly_divmod(inv, d)
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
        p = f.shift(-m) * (_t_inverse_rep(d) ** (-m))
    _, r = poly_divmod(p, d)
    return r


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
    if g.degree() == 0:
        return []
    import sympy

    tsym = sympy.Symbol("t")
    coeffs = [int(g.coeff(e)) for e in range(g.degree(), -1, -1)]
    _, sfactors = sympy.Poly(coeffs, tsym, domain="QQ").factor_list()
    out = []
    for fac, mult in sfactors:
        cs = fac.all_coeffs()
        p = LaurentPoly({len(cs) - 1 - i: Fraction(c) for i, c in enumerate(cs)})
        p = p.normalize()
        if p.degree() == 0:
            continue
        out.append((p, int(mult)))
    out.sort(key=lambda pm: (pm[0].degree(), pm[0].to_json()))
    return out


def squarefree_part(f: LaurentPoly) -> LaurentPoly:
    if f.is_zero():
        raise ValueError("zero polynomial")
    g = f.normalize()
    if g.degree() == 0:
        return LaurentPoly.one()
    return exact_div(g, gcd(g, g.derivative())).normalize()


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
