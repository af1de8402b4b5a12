import random
from fractions import Fraction

import pytest

from concord import catalog
from concord.alexmod import (
    BlanchfieldForm,
    SubmoduleLattice,
    UnsupportedModule,
    blanchfield_form,
    isotropic_submodules,
    module_from_seifert,
    smith_normal_form,
)
from concord.laurent import LaurentPoly, exact_div, gcd, reduce_mod
from concord.seifert import (
    SeifertMatrix, alexander_poly, connected_sum, mirror,
)
from test_seifert import random_seifert


def lp(d):
    return LaurentPoly(d)


def _mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0]) if b else 0
    out = [[LaurentPoly.zero() for _ in range(p)] for _ in range(n)]
    for i in range(n):
        for k in range(m):
            for j in range(p):
                out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


NINE46 = SeifertMatrix([[0, 2], [1, 0]], name="nine46")
TREFOIL = SeifertMatrix([[-1, 1], [0, -1]], name="trefoil")
FIG8 = SeifertMatrix([[1, 1], [0, -1]], name="figure8")
UNKNOT = SeifertMatrix([], name="unknot")
EIGHT9 = catalog.get("eight9")[0]

P_EX = lp({3: 1, 2: -2, 1: 1, 0: -1})
Q_EX = lp({3: 1, 2: -1, 1: 2, 0: -1})


def _sympy_det(m):
    """det of a matrix of Laurent polynomials, by sympy, as a LaurentPoly.
    Each row is first multiplied by the power of t that clears its
    negative exponents, and the determinant shifted back."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    t = sympy.Symbol("t")
    rows, shift = [], 0
    for row in m:
        lo = min((x.low() for x in row if x), default=0)
        shift += lo
        rows.append([sum(sympy.Rational(c.numerator, c.denominator) * t**(e - lo)
                         for e, c in x.items()) for x in row])
    d = DomainMatrix.from_Matrix(sympy.Matrix(rows)).convert_to(sympy.QQ[t]).det()
    return LaurentPoly({e + shift: Fraction(int(c.numerator), int(c.denominator))
                        for (e,), c in d.terms()})


class TestSmith:
    def test_diagonalizes_and_inverses(self):
        rng = random.Random(4)
        for _ in range(25):
            v = random_seifert(rng, rng.choice([1, 2]))
            n = v.size()
            t = LaurentPoly.t()
            m = [
                [t.scale(v.entries[j][i]) - LaurentPoly.constant(v.entries[i][j])
                 for j in range(n)]
                for i in range(n)
            ]
            d, uinv, w = smith_normal_form(m)
            # U m W = diag(d) with U = Uinv^{-1}, i.e. m W = Uinv diag(d)
            diag = [[d[i] if i == j else LaurentPoly.zero() for j in range(n)]
                    for i in range(n)]
            assert _mat_mul(m, w) == _mat_mul(uinv, diag)
            # units of L are the one-term polynomials c*t^k
            assert len(_sympy_det(uinv).items()) == 1
            assert len(_sympy_det(w).items()) == 1
            for i in range(n - 1):
                if not d[i].is_zero() and not d[i + 1].is_zero():
                    assert exact_div(d[i + 1], d[i]) is not None

    def test_divisibility_chain(self):
        # anti-diagonal coprime entries force [1, product]
        m = [
            [LaurentPoly.zero(), lp({1: 1, 0: -2})],
            [lp({1: 2, 0: -1}), LaurentPoly.zero()],
        ]
        d, *_ = smith_normal_form(m)
        assert d[0] == LaurentPoly.one()
        assert d[1] == lp({2: 2, 1: -5, 0: 2})


class TestModule:
    def test_nine46_two_isotypic_pieces(self):
        mod = module_from_seifert(NINE46)
        assert mod.is_cyclic()  # invariant-factor chain has one entry
        assert [str(p) for p in mod.isotypic_orders()] == ["t - 2", "2*t - 1"]
        assert mod.dim_over_q() == 2

    def test_eight9_cyclic_of_order_pq(self):
        mod = module_from_seifert(EIGHT9)
        assert mod.is_cyclic()
        assert mod.orders[0].eq_up_to_units(P_EX * Q_EX)
        assert {str(p) for p in mod.isotypic_orders()} == {str(P_EX), str(Q_EX)}

    def test_unknot_zero_module(self):
        mod = module_from_seifert(UNKNOT)
        assert mod.is_zero_module()
        assert isotropic_submodules(mod) == [
            isotropic_submodules(mod)[0]
        ]

    def test_trefoil_cyclic_irreducible(self):
        mod = module_from_seifert(TREFOIL)
        assert [str(d) for d in mod.orders] == ["t^2 - t + 1"]

    def test_orders_multiply_to_delta_1000(self):
        rng = random.Random(31337)
        for _ in range(1000):
            v = random_seifert(rng, rng.choice([1, 1, 2, 3]))
            mod = module_from_seifert(v)
            assert mod.total_order().eq_up_to_units(alexander_poly(v))


class TestBlanchfield:
    def test_nine46_values(self):
        mod = module_from_seifert(NINE46)
        form = BlanchfieldForm(mod)
        comps = mod.isotypic_components()
        alpha, beta = comps[0].generator, comps[1].generator
        assert form.pairing(alpha, alpha).is_zero()
        assert form.pairing(beta, beta).is_zero()
        assert not form.pairing(alpha, beta).is_zero()

    def test_zero_module_vacuous(self):
        mod = module_from_seifert(UNKNOT)
        form = BlanchfieldForm(mod)
        assert form.pairing(mod.zero(), mod.zero()).is_zero()

    def test_sesqui_hermitian_nonsingular_random(self):
        rng = random.Random(55)
        cases = 0
        while cases < 60:
            v = random_seifert(rng, rng.choice([1, 1, 2]))
            mod = module_from_seifert(v)
            if mod.is_zero_module():
                continue
            cases += 1
            form = BlanchfieldForm(mod)
            # nonsingular on the basis: no gram row is zero
            assert all(any(not e.is_zero() for e in row) for row in form.gram)
            x = mod.element([
                LaurentPoly({rng.randrange(-2, 3): rng.randrange(-3, 4) for _ in range(2)})
                for _ in mod.orders
            ])
            y = mod.element([
                LaurentPoly({rng.randrange(-2, 3): rng.randrange(-3, 4) for _ in range(2)})
                for _ in mod.orders
            ])
            f = LaurentPoly({rng.randrange(-1, 3): rng.randrange(-3, 4) for _ in range(2)})
            lhs = form.pairing(mod.scale(f, x), y)
            rhs = form.pairing(x, y).scale_poly(f)
            assert lhs == rhs
            lhs2 = form.pairing(x, mod.scale(f, y))
            rhs2 = form.pairing(x, y).scale_poly(f.conjugate())
            assert lhs2 == rhs2
            assert form.pairing(y, x) == form.pairing(x, y).conjugate()

    def test_gram_against_sympy_inverse(self):
        # oracle: (1 - t) x^T (tV - V^T)^{-1} conj(y), inverted by sympy over Q(t)
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        t = sympy.Symbol("t")

        def sym(p):
            return sum((sympy.Rational(c.numerator, c.denominator) * t**e
                        for e, c in p.items()), sympy.Integer(0))

        def check(v):
            mod = module_from_seifert(v)
            basis = mod._dec_to_pres
            n = v.size()
            a = sympy.Matrix(n, n, lambda i, j: t * v.entries[i][j] - v.entries[j][i])
            ainv = DomainMatrix.from_Matrix(a).to_field().inv().to_Matrix()
            gram = BlanchfieldForm(mod).gram
            for i, x in enumerate(basis):
                for j, y in enumerate(basis):
                    xs = sympy.Matrix([sym(c) for c in x])
                    ybar = sympy.Matrix([sym(c.conjugate()) for c in y])
                    want = (1 - t) * (xs.T * ainv * ybar)[0]
                    got = sym(gram[i][j].num) / sym(gram[i][j].den)
                    _, den = sympy.fraction(sympy.cancel(want - got))
                    assert sympy.Poly(den, t).is_monomial
            return mod

        rng = random.Random(17)
        # basis vectors with one nonzero coordinate see only part of the
        # inverse, so draw some with wider support on purpose
        wanted = {False: 5, True: 3}
        while any(wanted.values()):
            v = random_seifert(rng, rng.choice([1, 2]))
            mod = module_from_seifert(v)
            if mod.is_zero_module():
                continue
            wide = any(sum(not c.is_zero() for c in x) > 1 for x in mod._dec_to_pres)
            if wanted[wide]:
                wanted[wide] -= 1
                check(v)
        # rank 2: off-diagonal entries pair two different Smith slots.  The
        # plain sums pair their summands orthogonally; the congruent P V P^T
        # (the same knot, P = I + E_03 unimodular) mixes them, which makes
        # the off-diagonal entries nonzero and the gram no longer symmetric
        for v in [connected_sum(TREFOIL, TREFOIL), connected_sum(FIG8, FIG8),
                  connected_sum(TREFOIL, mirror(TREFOIL)),
                  connected_sum(NINE46, mirror(NINE46))]:
            p = [[int(i == j or (i, j) == (0, 3)) for j in range(4)] for i in range(4)]
            mixed = SeifertMatrix([
                [sum(p[i][k] * v.entries[k][l] * p[j][l] for k in range(4) for l in range(4))
                 for j in range(4)]
                for i in range(4)
            ])
            assert check(v).rank() == 2
            assert check(mixed).rank() == 2
            gram = BlanchfieldForm(module_from_seifert(mixed)).gram
            assert gram[0][1] != gram[1][0]
        check(connected_sum(TREFOIL, FIG8))

    def test_pairing_kills_orders(self):
        mod = module_from_seifert(EIGHT9)
        form = BlanchfieldForm(mod)
        g = mod.generator(0)
        d = mod.orders[0]
        assert form.pairing(mod.scale(d, g), g).is_zero()


class TestIsotropic:
    def test_nine46_three(self):
        mod = module_from_seifert(NINE46)
        subs = isotropic_submodules(mod)
        assert len(subs) == 3
        assert subs[0].is_zero()
        assert all(len(s.component_keys) <= 1 for s in subs)

    def test_eight9_three(self):
        mod = module_from_seifert(EIGHT9)
        subs = isotropic_submodules(mod)
        assert len(subs) == 3
        assert subs[0].is_zero()

    def test_trefoil_only_zero(self):
        mod = module_from_seifert(TREFOIL)
        subs = isotropic_submodules(mod)
        assert len(subs) == 1 and subs[0].is_zero()

    def test_fig8_only_zero(self):
        mod = module_from_seifert(FIG8)
        subs = isotropic_submodules(mod)
        assert len(subs) == 1 and subs[0].is_zero()

    def test_brute_force_divisor_oracle(self):
        # cyclic squarefree modules: submodules <=> divisors; compare lattices
        for v in [NINE46, EIGHT9, TREFOIL, FIG8]:
            mod = module_from_seifert(v)
            form = BlanchfieldForm(mod)
            lat = SubmoduleLattice(mod, form)
            comps = mod.isotypic_components()
            d = mod.orders[0]
            g = mod.generator(0)
            brute = set()
            for mask in range(1 << len(comps)):
                f = LaurentPoly.one()
                for i in range(len(comps)):
                    if mask >> i & 1:
                        f = f * comps[i].order
                val = form.pairing(mod.scale(f, g), mod.scale(f, g))
                if val.is_zero():
                    # <f*g> spans the components NOT dividing f
                    keys = tuple(sorted(
                        c.key() for i, c in enumerate(comps) if not mask >> i & 1
                    ))
                    brute.add(keys)
            enumerated = {s.component_keys for s in lat.isotropic()}
            assert brute == enumerated

    def test_membership(self):
        mod = module_from_seifert(EIGHT9)
        lat = SubmoduleLattice(mod)
        subs = lat.isotropic()
        g = mod.generator(0)
        nonzero_subs = [s for s in subs if not s.is_zero()]
        for s in nonzero_subs:
            assert not lat.membership(s, g)
            for gen in s.generators:
                assert lat.membership(s, gen)
        zero_sub = subs[0]
        assert lat.membership(zero_sub, mod.zero())
        assert not lat.membership(zero_sub, g)

    def test_non_squarefree_rejected(self):
        vsum = SeifertMatrix(
            [[-1, 1, 0, 0], [0, -1, 0, 0], [0, 0, -1, 1], [0, 0, 0, -1]]
        )  # trefoil # trefoil: order (t^2-t+1)^2
        mod = module_from_seifert(vsum)
        with pytest.raises(UnsupportedModule):
            isotropic_submodules(mod)

    def test_nine46_membership_spec_rows(self):
        mod = module_from_seifert(NINE46)
        lat = SubmoduleLattice(mod)
        subs = lat.isotropic()
        comps = mod.isotypic_components()
        alpha, beta = comps[0].generator, comps[1].generator
        p_alpha = next(s for s in subs if not s.is_zero() and lat.membership(s, alpha))
        assert not lat.membership(p_alpha, beta)


class TestMemo:
    """Modules and forms live in one bounded LRU: equal matrices share a
    module until it is evicted, and an evicted module is rebuilt equal."""

    def test_bounded(self):
        for fn in (module_from_seifert, blanchfield_form):
            assert fn.cache_info().maxsize is not None

    def test_shared_until_evicted(self):
        first = module_from_seifert(NINE46)
        hits = module_from_seifert.cache_info().hits
        assert module_from_seifert(SeifertMatrix(NINE46.entries)) is first
        assert module_from_seifert.cache_info().hits == hits + 1
        form = blanchfield_form(first)
        assert blanchfield_form(first) is form
        maxsize = module_from_seifert.cache_info().maxsize
        rng = random.Random(9)
        seen = {NINE46.entries}
        while len(seen) <= maxsize + 1:
            v = random_seifert(rng, rng.choice([1, 2]))
            if v.entries not in seen:
                seen.add(v.entries)
                blanchfield_form(module_from_seifert(v))
        for fn in (module_from_seifert, blanchfield_form):
            info = fn.cache_info()
            assert info.currsize <= info.maxsize
        fresh = module_from_seifert(NINE46)
        assert fresh is not first
        assert blanchfield_form(fresh).gram == form.gram
