import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concord.laurent import (
    DegreeCapExceeded,
    LaurentPoly,
    RationalFunctionModPoly,
    divides,
    divmod_laurent,
    exact_div,
    ext_gcd_poly,
    factor,
    gcd,
    invert_mod,
    lcm,
    poly_divmod,
    reduce_mod,
)


def lp(d):
    return LaurentPoly(d)


P_EX = lp({3: 1, 2: -2, 1: 1, 0: -1})  # t^3 - 2t^2 + t - 1
Q_EX = lp({3: 1, 2: -1, 1: 2, 0: -1})  # t^3 - t^2 + 2t - 1


@st.composite
def laurent_polys(draw, max_terms=5, max_exp=4):
    n = draw(st.integers(0, max_terms))
    c = {}
    for _ in range(n):
        e = draw(st.integers(-max_exp, max_exp))
        num = draw(st.integers(-9, 9))
        den = draw(st.integers(1, 9))
        c[e] = c.get(e, Fraction(0)) + Fraction(num, den)
    return LaurentPoly(c)


class TestNormalize:
    def test_spec_example_sign_flip(self):
        f = -(lp({1: 2, 0: -1}) * lp({1: 1, 0: -2}))  # -(2t-1)(t-2)
        assert f.normalize() == lp({2: 2, 1: -5, 0: 2})

    def test_spec_example_shift(self):
        assert (P_EX.shift(-3)).normalize() == P_EX

    def test_zero(self):
        assert LaurentPoly().normalize() == LaurentPoly()

    def test_idempotent_and_unit_relation(self):
        rng = random.Random(7)
        for _ in range(200):
            c = {rng.randrange(-4, 5): Fraction(rng.randrange(-8, 9), rng.randrange(1, 7))
                 for _ in range(rng.randrange(1, 5))}
            f = LaurentPoly(c)
            if f.is_zero():
                continue
            n = f.normalize()
            assert n.normalize() == n
            c_unit, k = f.unit_quotient_over(n)
            assert n.scale(c_unit).shift(k) == f

    def test_primitive_integer_positive_lead(self):
        f = lp({-1: Fraction(2, 3), 0: Fraction(-4, 3)})  # (2/3)t^-1 (1 - 2t)
        n = f.normalize()
        assert n == lp({1: 2, 0: -1})
        assert n.coeff(n.degree()) > 0


class TestArithmetic:
    @settings(max_examples=120, deadline=None)
    @given(laurent_polys(), laurent_polys(), laurent_polys())
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=80, deadline=None)
    @given(laurent_polys(), laurent_polys())
    def test_conjugate_is_ring_map(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert a.conjugate().conjugate() == a

    def test_evaluate(self):
        assert P_EX.evaluate(1) == -1
        assert P_EX.evaluate(-1) == -5
        f = lp({-2: 1, 1: 3})
        assert f.evaluate(2) == Fraction(1, 4) + 6


class TestDivision:
    @settings(max_examples=100, deadline=None)
    @given(laurent_polys(), laurent_polys())
    def test_divmod_contract(self, a, b):
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                divmod_laurent(a, b)
            return
        q, r = divmod_laurent(a, b)
        assert a == q * b + r
        if not r.is_zero():
            assert r.span() < b.span()

    def test_gcd_examples(self):
        assert gcd(lp({1: 1, 0: -2}), lp({1: 2, 0: -1})) == LaurentPoly.one()
        assert gcd(P_EX * Q_EX, P_EX) == P_EX
        f = lp({2: 3, 0: -1})
        assert gcd(LaurentPoly(), f) == f.normalize()
        assert gcd(LaurentPoly(), LaurentPoly()) == LaurentPoly()

    @settings(max_examples=60, deadline=None)
    @given(laurent_polys(), laurent_polys())
    def test_gcd_divides_and_lcm(self, a, b):
        g = gcd(a, b)
        if g.is_zero():
            assert a.is_zero() and b.is_zero()
            return
        assert divides(g, a) and divides(g, b)
        m = lcm(a, b)
        if not (a.is_zero() or b.is_zero()):
            assert (g * m).eq_up_to_units(a * b)

    def test_ext_gcd(self):
        a, b = P_EX, Q_EX
        g, s, u = ext_gcd_poly(a, b)
        assert g == LaurentPoly.one()
        _, r = divmod_laurent(s * a + u * b - LaurentPoly.one(), LaurentPoly.one())
        assert s * a + u * b == LaurentPoly.one()

    def test_invert_mod(self):
        d = (lp({1: 1, 0: -2}) * lp({1: 2, 0: -1})).normalize()
        for x in [LaurentPoly.t(), lp({1: 1, 0: 1}), lp({-1: 1, 0: 3})]:
            inv = invert_mod(x, d)
            assert reduce_mod(x * inv, d) == LaurentPoly.one()

    def test_reduce_mod_is_quotient_map(self):
        d = lp({2: 1, 1: -3, 0: 1})
        rng = random.Random(3)
        for _ in range(100):
            f = LaurentPoly({rng.randrange(-3, 4): rng.randrange(-5, 6) for _ in range(3)})
            g = LaurentPoly({rng.randrange(-3, 4): rng.randrange(-5, 6) for _ in range(3)})
            assert reduce_mod(f + g, d) == reduce_mod(reduce_mod(f, d) + reduce_mod(g, d), d)
            assert reduce_mod(f * g, d) == reduce_mod(reduce_mod(f, d) * reduce_mod(g, d), d)
            assert reduce_mod(f - f, d) == LaurentPoly()

    def test_exact_div_error(self):
        with pytest.raises(ValueError):
            exact_div(lp({1: 1, 0: 1}), lp({1: 1, 0: -1}))


class TestFactor:
    def test_spec_examples(self):
        fs = factor(lp({2: 2, 1: -5, 0: 2}))
        assert fs == [(lp({1: 1, 0: -2}).normalize(), 1), (lp({1: 2, 0: -1}).normalize(), 1)] or \
            sorted(f.to_json()[0][0] for f, _ in fs) == [1, 1]
        polys = {str(f) for f, _ in fs}
        assert polys == {"t - 2", "2*t - 1"}

        fs2 = factor(P_EX * Q_EX)
        assert {str(f) for f, _ in fs2} == {str(P_EX), str(Q_EX)}
        assert all(m == 1 for _, m in fs2)

        fs3 = factor(lp({2: 1, 1: -1, 0: 1}))
        assert fs3 == [(lp({2: 1, 1: -1, 0: 1}), 1)]

    def test_degree_cap(self):
        f = LaurentPoly({25: 1, 0: 1})
        with pytest.raises(DegreeCapExceeded):
            factor(f)
        factor(f, degree_cap=25)

    def test_multiplicity_and_remultiplication(self):
        f = P_EX * P_EX * Q_EX
        fs = factor(f)
        assert dict((str(p), m) for p, m in fs) == {str(P_EX): 2, str(Q_EX): 1}
        prod = LaurentPoly.one()
        for p, m in fs:
            prod = prod * p**m
        assert prod.eq_up_to_units(f)

    def test_random_products_remultiply(self):
        # spec invariant: 1000 random products of irreducibles of degree <= 4
        rng = random.Random(20240817)
        irreducibles = [
            lp({1: 1, 0: -2}),
            lp({1: 2, 0: -1}),
            lp({2: 1, 1: -1, 0: 1}),
            lp({2: 1, 1: -3, 0: 1}),
            lp({3: 1, 1: 1, 0: -1}),
            lp({4: 1, 3: -1, 2: 1, 1: -1, 0: 1}),
            P_EX,
            Q_EX,
        ]
        for _ in range(1000):
            parts = rng.choices(irreducibles, k=rng.randrange(1, 4))
            shift = rng.randrange(-3, 4)
            scalar = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 5]))
            f = LaurentPoly({shift: scalar})
            for p in parts:
                f = f * p
            fs = factor(f)
            prod = LaurentPoly.one()
            for p, m in fs:
                prod = prod * p**m
            assert prod.eq_up_to_units(f)
            assert sum(m * p.degree() for p, m in fs) == f.normalize().degree()


    # -- against sympy's factor_list, the oracle --------------------------

    @staticmethod
    def oracle(f):
        """sympy's factorization over QQ as normalized (factor, multiplicity)
        pairs, sorted like `factor`'s."""
        import sympy

        t = sympy.Symbol("t")
        g = f.normalize()
        _, pairs = sympy.Poly(list(g._nums[::-1]), t, domain="ZZ").factor_list()
        out = [(LaurentPoly.from_coeffs([int(c) for c in reversed(p.all_coeffs())]).normalize(), m)
               for p, m in pairs if p.degree() > 0]
        return sorted(out, key=lambda pm: (pm[0].degree(), pm[0].to_json()))

    def test_random_products_against_sympy(self):
        import sympy

        t = sympy.Symbol("t")
        rng = random.Random(20261018)
        for _ in range(120):
            f = LaurentPoly({rng.randrange(-3, 4): Fraction(rng.choice([-6, -1, 1, 4]),
                                                            rng.choice([1, 3]))})
            degree = 0
            for _ in range(rng.randrange(1, 6)):
                n = rng.randrange(1, 7)
                coeffs = [rng.randrange(-7, 8) for _ in range(n)] + [rng.choice([-2, -1, 1, 3])]
                if not coeffs[0] or not sympy.Poly(coeffs[::-1], t).is_irreducible:
                    continue
                m = rng.choice([1, 1, 1, 2, 3])
                if degree + m * n > 24:
                    break
                degree += m * n
                f = f * LaurentPoly.from_coeffs(coeffs) ** m
            assert factor(f) == self.oracle(f)

    def test_alexander_polynomials_against_sympy(self):
        from concord import catalog
        from concord.seifert import alexander_poly
        from test_seifert import random_seifert

        rng = random.Random(4141)
        knots = [catalog.get(name)[0] for name in catalog.BUILTIN]
        knots += [random_seifert(rng, rng.choice([1, 2, 3])) for _ in range(60)]
        for v in knots:
            delta = alexander_poly(v)
            assert factor(delta) == self.oracle(delta)

    def test_cyclotomic_products_against_sympy(self):
        t = LaurentPoly.t()
        one = LaurentPoly.one()
        cases = [t**n - one for n in range(1, 25)] + [t**n + one for n in range(1, 25)]
        cases += [(t**6 - one) * (t**4 - one) ** 2 * (t**2 + one), (t**12 - one) * (t**12 + one)]
        for f in cases:
            assert factor(f) == self.oracle(f)
        f = t**25 + one
        assert factor(f, degree_cap=25) == self.oracle(f)

    def test_swinnerton_dyer_16(self):
        """The minimal polynomial of sqrt2 + sqrt3 + sqrt5 + sqrt7 is
        irreducible over Z but splits into factors of degree <= 2 modulo
        every prime: the worst case for recombination."""
        import time

        from concord.laurent import _distinct_degree, _pmonic

        coeffs = [46225, 0, -5596840, 0, 13950764, 0, -7453176, 0, 1513334, 0,
                  -141912, 0, 6476, 0, -136, 0, 1]
        sd = LaurentPoly.from_coeffs(coeffs)
        for p in (11, 13, 29, 101):  # primes keeping it squarefree
            fp = _pmonic([c % p for c in coeffs], p)
            assert sum((len(g) - 1) // d for g, d in _distinct_degree(fp, p)) >= 8
        start = time.perf_counter()
        fs = factor(sd)
        assert time.perf_counter() - start < 0.5
        assert fs == [(sd, 1)] == self.oracle(sd)
        f = sd * LaurentPoly.from_coeffs([-2, 0, 1]) ** 2
        assert factor(f) == self.oracle(f)


class TestRationalFunctionModPoly:
    def test_canonical_reduction(self):
        d = lp({1: 1, 0: -2})
        x = RationalFunctionModPoly(lp({1: -1, 0: 1}), d)  # (1-t)/(t-2)
        assert x.den == d.normalize()
        assert not x.is_zero()
        assert x.num.degree() < x.den.degree()
        # (1-t) = -(t-2) - 1, so class is -1/(t-2)
        assert x.num == lp({0: -1})

    def test_integral_elements_vanish(self):
        d = lp({2: 1, 1: -3, 0: 1})
        assert RationalFunctionModPoly(d * lp({5: 3, -2: 1}), d).is_zero()
        assert RationalFunctionModPoly(LaurentPoly(), d).is_zero()

    def test_group_laws(self):
        rng = random.Random(11)
        d1 = lp({1: 1, 0: -2})
        d2 = lp({2: 1, 1: -1, 0: 1})
        for _ in range(150):
            def rand_elt():
                num = LaurentPoly({rng.randrange(-2, 3): rng.randrange(-4, 5) for _ in range(2)})
                den = rng.choice([d1, d2, d1 * d2])
                return RationalFunctionModPoly(num, den)
            x, y = rand_elt(), rand_elt()
            assert (x + y) - y == x
            assert x - x == RationalFunctionModPoly.zero()
            assert (x + y) == (y + x)

    def test_module_action(self):
        d = (P_EX * Q_EX).normalize()
        x = RationalFunctionModPoly(LaurentPoly.one(), d)
        assert x.scale_poly(d).is_zero()
        f = lp({1: 1, 0: 5})
        g = lp({-1: 2, 0: 1})
        assert x.scale_poly(f).scale_poly(g) == x.scale_poly(f * g)

    def test_conjugate_involution(self):
        x = RationalFunctionModPoly(lp({1: -1, 0: 1}), lp({1: 1, 0: -2}))
        assert x.conjugate().conjugate() == x


def test_json_round_trip():
    f = P_EX
    data = f.to_json()
    assert data == [[3, [1, 1]], [2, [-2, 1]], [1, [1, 1]], [0, [-1, 1]]]
    assert LaurentPoly.from_json(data) == f


def test_str_forms():
    assert str(LaurentPoly()) == "0"
    assert str(lp({2: 2, 1: -5, 0: 2})) == "2*t^2 - 5*t + 2"
    assert str(lp({-1: 1, 0: 1})) == "1 + t^-1"


class TestKernelAgainstSympy:
    """Seeded random Laurent polynomials with non-integral rational
    coefficients and negative exponents; sympy over QQ is the oracle."""

    @staticmethod
    def rand(rng, nonzero=False, low=-3, high=3):
        while True:
            c = {rng.randrange(low, high + 1): Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
                 for _ in range(rng.randrange(1, 6))}
            f = LaurentPoly(c)
            if f or not nonzero:
                return f

    def modulus(self, rng):
        """A normalized modulus with nonzero constant term, degree 1..4."""
        while True:
            d = self.rand(rng, True, 0, rng.randrange(1, 5)).normalize()
            if d.degree() > 0:
                return d

    @staticmethod
    def sym(f, k=None):
        """f * t^-k as a sympy Poly over QQ; k = low(f) by default."""
        import sympy

        t = sympy.Symbol("t")
        k = (f.low() if f else 0) if k is None else k
        expr = sum((sympy.Rational(c.numerator, c.denominator) * t ** (e - k)
                    for e, c in f.items()), sympy.Integer(0))
        return sympy.Poly(expr, t, domain="QQ")

    @staticmethod
    def lp_of(poly, k=0):
        return LaurentPoly.from_coeffs(
            [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())], k)

    def residue(self, f, d):
        """Oracle for reduce_mod: f = F t^k as a polynomial of degree < deg d
        congruent to f modulo d."""
        import sympy

        dp = self.sym(d)
        k = f.low() if f else 0
        tk = self.sym(LaurentPoly.t(abs(k)), 0)
        if k < 0:
            tk = sympy.Poly(sympy.invert(tk.as_expr(), dp.as_expr()), dp.gens[0], domain="QQ")
        return (self.sym(f) * tk).rem(dp)

    def test_divisions(self):
        rng = random.Random(8101)
        for _ in range(150):
            a, b = self.rand(rng), self.rand(rng, True)
            qs, rs = self.sym(a).div(self.sym(b))
            ka = a.low() if a else b.low()
            assert divmod_laurent(a, b) == (self.lp_of(qs, ka - b.low()), self.lp_of(rs, ka))
            # Q[t]: the remainder window is [0, deg b)
            a, b = self.rand(rng, low=0, high=5), self.rand(rng, True, 0, 3)
            qs, rs = self.sym(a, 0).div(self.sym(b, 0))
            assert poly_divmod(a, b) == (self.lp_of(qs), self.lp_of(rs))

    def test_gcd_and_ext_gcd(self):
        rng = random.Random(8102)
        for _ in range(120):
            common = self.rand(rng, True)
            a = self.rand(rng) * common if rng.random() < 0.6 else self.rand(rng)
            b = self.rand(rng) * common
            assert gcd(a, b) == self.lp_of(self.sym(a).gcd(self.sym(b))).normalize()
            if a.is_zero() or b.is_zero():
                continue
            a, b = a.shift(-a.low()), b.shift(-b.low())
            g, s, u = ext_gcd_poly(a, b)
            assert s * a + u * b == g == gcd(a, b)
            ss, us, _ = self.sym(a).gcdex(self.sym(b))
            lead = g.coeff(g.degree())
            assert (s, u) == (self.lp_of(ss).scale(lead), self.lp_of(us).scale(lead))

    def test_reduce_and_invert_mod(self):
        import sympy

        rng = random.Random(8103)
        for _ in range(120):
            d = self.modulus(rng)
            f = self.rand(rng)
            assert reduce_mod(f, d) == self.lp_of(self.residue(f, d))
            if f.is_zero() or gcd(f, d) != LaurentPoly.one():
                continue
            dp = self.sym(d)
            inverse = sympy.invert(self.residue(f, d).as_expr(), dp.as_expr())
            assert invert_mod(f, d) == self.lp_of(sympy.Poly(inverse, dp.gens[0], domain="QQ"))

    def test_rational_function_canonical_form(self):
        rng = random.Random(8104)
        for _ in range(120):
            num = self.rand(rng) * (self.rand(rng, True) if rng.random() < 0.5 else LaurentPoly.one())
            den = self.rand(rng, True) * self.modulus(rng)
            if num and rng.random() < 0.5:
                den = den * num.shift(rng.randrange(-2, 3))
            x = RationalFunctionModPoly(num, den)
            if num.is_zero():
                assert (x.num, x.den) == (LaurentPoly(), LaurentPoly.one())
                continue
            # oracle: cancel in Q[t], make the denominator primitive with
            # positive leading coefficient, reduce the numerator modulo it
            np_, dp = self.sym(num), self.sym(den)
            g = np_.gcd(dp)
            n1, d1 = self.lp_of(np_.quo(g), num.low() - den.low()), self.lp_of(dp.quo(g))
            d_norm = d1.normalize()  # low(d1) = 0, so the same support
            c = d1.coeff(d1.degree()) / d_norm.coeff(d_norm.degree())
            r = self.residue(n1.scale(1 / c), d_norm) if d_norm.degree() > 0 else None
            if r is None or r.is_zero:
                assert (x.num, x.den) == (LaurentPoly(), LaurentPoly.one())
            else:
                assert (x.num, x.den) == (self.lp_of(r), d_norm)

    def test_representation_is_canonical(self):
        rng = random.Random(8105)
        for _ in range(300):
            f = self.rand(rng)
            g = self.rand(rng, True)
            c = Fraction(rng.choice([-5, -2, 3, 7]), rng.choice([1, 2, 9]))
            k = rng.randrange(-4, 5)
            routes = [
                LaurentPoly(dict(f.items())),
                LaurentPoly.from_coeffs([f.coeff(e) for e in range(-3, 4)], -3),
                (f + g) - g,
                f * LaurentPoly.one(),
                f.scale(c).scale(1 / c),
                f.shift(k).shift(-k),
                f.conjugate().conjugate(),
                LaurentPoly.from_json(f.to_json()),
                sum((LaurentPoly({e: v}) for e, v in f.items()), LaurentPoly.zero()),
                divmod_laurent(f * g, g)[0],
            ]
            for p in routes:
                assert (p._lo, p._nums, p._den) == (f._lo, f._nums, f._den)
                assert hash(p) == hash(f) == hash(tuple(sorted(dict(f.items()).items())))
            # JSON coefficients are the Fractions of `items`, in lowest terms
            assert f.to_json() == [[e, [v.numerator, v.denominator]] for e, v in reversed(f.items())]
            if f:
                assert f._nums[0] and f._nums[-1] and f._den > 0
                assert math.gcd(f._den, *f._nums) == 1
            else:
                assert (f._lo, f._nums, f._den) == (0, (), 1)
