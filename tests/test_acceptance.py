"""Acceptance suite: every criterion at its stated tolerance and time
budget, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from concord import catalog
from concord.alexmod import (
    BlanchfieldForm,
    SubmoduleLattice,
    isotropic_submodules,
    module_from_seifert,
)
from concord.construction import (
    BaseKnot,
    BingDouble,
    CurveSpec,
    Infect,
    LinkingZeroDepth,
    Multiple,
    TrivialLink,
    WordDepth,
    expand_clones,
    operator_pattern,
    rdouble_tower,
    solvability_upper_bound,
)
from concord.freegroup import (
    DepthResult,
    FreeWord,
    bing_curve,
    commutator,
    conjugate,
    derived_depth,
    parse_word,
)
from concord.laurent import LaurentPoly
from concord.rhocalc import Axioms, first_order_signatures
from concord.seifert import (
    SeifertMatrix,
    alexander_poly,
    arf,
    connected_sum,
    rho0,
)
from concord.verdict import (
    NOT_SLICE,
    NOT_SLICE_CONDITIONAL,
    bing_obstruction,
    doubling_operator_verdict,
)
from test_seifert import random_seifert, rho0_riemann_estimate


@contextmanager
def criterion(num, name, limit_seconds):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    dt = time.perf_counter() - t0
    if dt > limit_seconds:
        print(f"ACCEPTANCE {num} ({name}): FAIL (runtime {dt:.2f}s > {limit_seconds}s)")
        raise AssertionError(f"criterion {num} exceeded its {limit_seconds}s budget")
    print(f"ACCEPTANCE {num} ({name}): PASS ({dt:.2f}s)")


def lp(d):
    return LaurentPoly(d)


P_EX = lp({3: 1, 2: -2, 1: 1, 0: -1})   # t^3 - 2t^2 + t - 1
Q_EX = lp({3: 1, 2: -1, 1: 2, 0: -1})   # t^3 - t^2 + 2t - 1
TREFOIL = SeifertMatrix([[-1, 1], [0, -1]], name="trefoil")
FIG8 = SeifertMatrix([[1, 1], [0, -1]], name="figure8")
NINE46 = SeifertMatrix([[0, 2], [1, 0]], name="nine46")
EIGHT9 = catalog.get("eight9")[0]


def test_criterion_1_alexander_data():
    with criterion(1, "Alexander polynomials and cyclic decompositions", 1.0):
        d89 = alexander_poly(EIGHT9)
        assert d89.eq_up_to_units(P_EX * Q_EX)
        mod89 = module_from_seifert(EIGHT9)
        assert mod89.is_cyclic()
        assert mod89.orders[0].eq_up_to_units(P_EX * Q_EX)

        d946 = alexander_poly(NINE46)
        assert d946.eq_up_to_units(lp({1: 1, 0: -2}) * lp({1: 2, 0: -1}))
        mod946 = module_from_seifert(NINE46)
        orders = mod946.isotypic_orders()
        assert len(orders) == 2
        assert {str(p) for p in orders} == {"t - 2", "2*t - 1"}


def test_criterion_2_isotropy_lattices():
    def brute_force_isotropic(mod, form):
        """Divisor lattice of the cyclic module: <f * generator> for each
        divisor f, kept when the pairing kills the generator; reported as
        the component subsets it spans."""
        comps = mod.isotypic_components()
        g = mod.generator(0)
        found = set()
        for mask in range(1 << len(comps)):
            f = LaurentPoly.one()
            for i in range(len(comps)):
                if mask >> i & 1:
                    f = f * comps[i].order
            if form.pairing(mod.scale(f, g), mod.scale(f, g)).is_zero():
                keys = tuple(sorted(
                    c.key() for i, c in enumerate(comps) if not mask >> i & 1
                ))
                found.add(keys)
        return found

    with criterion(2, "isotropy lattices of 9_46 and 8_9", 2.0):
        for v, want in ((NINE46, 3), (EIGHT9, 3)):
            t0 = time.perf_counter()
            mod = module_from_seifert(v)
            form = BlanchfieldForm(mod)
            subs = isotropic_submodules(mod, form)
            assert len(subs) == want
            assert subs[0].is_zero()
            assert brute_force_isotropic(mod, form) == {
                s.component_keys for s in subs
            }
            assert time.perf_counter() - t0 < 1.0


def test_criterion_3_rho0_certification():
    with criterion(3, "certified rho0 with Riemann oracle", 10.0):
        val = rho0(TREFOIL, Fraction(1, 10**9))
        assert val.radius <= Fraction(1, 10**9)
        assert val.contains(Fraction(-4, 3))
        assert abs(val.midpoint - Fraction(-4, 3)) <= Fraction(1, 10**9)

        est = rho0_riemann_estimate(TREFOIL, samples=10**6)
        assert abs(est - float(val.midpoint)) < 1e-4

        zero = rho0(FIG8, Fraction(1, 10**9))
        assert zero.midpoint == 0 and zero.radius == 0


def test_criterion_4_first_order_signature_sets():
    with criterion(4, "first-order signature sets", 1.0):
        # two infections on the two-band ribbon pattern by arbitrary knots
        base, curves = operator_pattern()
        k1 = BaseKnot("K1", None, frozenset())
        k2 = BaseKnot("K2", None, frozenset())
        fos = first_order_signatures(Infect(base, curves, (k1, k2)))
        assert set(fos.term_strings()) == {
            "rho0(K1) + rho0(K2) + rho1(nine46)",
            "rho0(K2)",
            "rho0(K1)",
        }
        assert str(fos.terms[0]) == "rho0(K1) + rho0(K2) + rho1(nine46)"

        # the ribbon + amphichiral knot: all first-order signatures vanish
        eight9 = BaseKnot.from_catalog("eight9")
        fos89 = first_order_signatures(eight9)
        assert fos89.term_strings() == ["0", "0", "0"]

        # infections along a module generator and a submodule generator
        gen_curve = CurveSpec("gen", LinkingZeroDepth(), (LaurentPoly.one(),))
        sub_curve = CurveSpec("p_gen", LinkingZeroDepth(), (P_EX,))
        fos44 = first_order_signatures(
            Infect(eight9, (gen_curve, sub_curve), (k1, k1))
        )
        assert sorted(fos44.term_strings()) == [
            "2*rho0(K1)", "2*rho0(K1)", "rho0(K1)"
        ]
        # "respectively": the submodule containing the second curve's class
        # is the one contributing a single rho0
        lattice = SubmoduleLattice(fos44.module)
        x = fos44.module.element([P_EX])
        for sub, term in zip(fos44.submodules, fos44.terms):
            inside = (not sub.is_zero()) and lattice.membership(sub, x)
            assert str(term) == ("rho0(K1)" if inside else "2*rho0(K1)")


def test_criterion_5_derived_depths():
    with criterion(5, "derived-series depths + 500-case property suite", 60.0):
        assert derived_depth(parse_word("[x1,x2]", 2)) == DepthResult(1, True)
        assert derived_depth(parse_word("[[x1,x3],[x2,x4]]", 4)) == DepthResult(2, True)
        w3, rank3 = bing_curve(3)
        assert rank3 == 8
        assert derived_depth(w3, 4) == DepthResult(3, True)

        rng = random.Random(20260810)

        def random_word(rank, length):
            w = FreeWord.identity(rank)
            for _ in range(length):
                w = w * FreeWord.generator(rank, rng.randrange(rank), rng.choice([1, -1]))
            return w

        for case in range(500):
            rank = rng.choice([2, 3, 4])
            w = random_word(rank, rng.randrange(0, 33))
            u = random_word(rank, rng.randrange(0, 8))
            d = derived_depth(w, 3)
            assert derived_depth(conjugate(w, u), 3) == d
            assert derived_depth(w.inverse(), 3) == d
            if case % 10 == 0:
                a = commutator(random_word(rank, 4), random_word(rank, 4))
                b = commutator(random_word(rank, 4), random_word(rank, 4))
                if derived_depth(a, 3).at_least(1) and derived_depth(b, 3).at_least(1):
                    assert derived_depth(commutator(a, b), 3).at_least(2)


def test_criterion_6_solvability_bookkeeping():
    with criterion(6, "solvability bookkeeping and clone expansion", 1.0):
        arf0 = BaseKnot("K", NINE46, frozenset())
        assert arf(NINE46) == 0

        j1 = rdouble_tower(arf0, 1)
        for n in (1, 2, 3):
            deg = solvability_upper_bound(BingDouble(j1, n))
            assert deg.level == n + 1

        for n in (0, 1, 2, 3):
            tower = rdouble_tower(arf0, n)
            assert solvability_upper_bound(tower).level == n

        tower3 = rdouble_tower(arf0, 3)
        for i in (0, 1, 2, 3):
            out = expand_clones(tower3, i)
            assert solvability_upper_bound(out).level == 3
            if i > 0:
                assert len(out.infectants) == 2**i


def test_criterion_7_verdicts():
    with criterion(7, "obstruction verdicts", 5.0):
        eight9 = BaseKnot.from_catalog("eight9")
        k1 = BaseKnot("K1", None, frozenset())
        gen_curve = CurveSpec("gen", LinkingZeroDepth(), (LaurentPoly.one(),))
        sub_curve = CurveSpec("p_gen", LinkingZeroDepth(), (P_EX,))
        build44 = Infect(eight9, (gen_curve, sub_curve), (k1, k1))
        v44 = bing_obstruction(build44, Axioms.parse([["rho0(K1)"]]))
        assert v44.conclusion == NOT_SLICE

        base, curves = operator_pattern()
        build_same = Infect(base, curves, (k1, k1))
        vsame = bing_obstruction(build_same, Axioms())
        assert vsame.conclusion == NOT_SLICE_CONDITIONAL
        assert str(vsame.condition.atom) == "rho0(K1)"
        assert [str(t) for t in vsame.condition.excluded] == [
            "0", "-1/2*rho1(nine46)"
        ]

        # J_n tower fed into a depth-k doubling curve
        arf0 = BaseKnot("K", NINE46, frozenset())
        word, rank = bing_curve(1)
        tower = rdouble_tower(arf0, 2)  # n = 1 + 2 = 3
        tree = Infect(TrivialLink(rank), (CurveSpec("alpha", WordDepth(word)),), (tower,))
        v = doubling_operator_verdict(tree)
        assert v.solvable_bound.level == 3
        assert not v.solvable_bound.rational_only
        assert v.conclusion == NOT_SLICE_CONDITIONAL
        assert str(v.condition) == "|rho0(K)| > C(M(T;alpha;R2))"
        for m in (1, 2, 3):
            vm = doubling_operator_verdict(Multiple(tree, m))
            assert vm.conclusion == v.conclusion
            assert vm.condition == v.condition
            assert vm.solvable_bound.level == v.solvable_bound.level


def test_criterion_8_algebra_property_suites():
    with criterion(8, "algebra property suites", 120.0):
        rng = random.Random(1905)

        # 1000-case Delta symmetry and Delta(1) = +-1
        for _ in range(1000):
            v = random_seifert(rng, rng.choice([1, 1, 2, 3]))
            d = alexander_poly(v)
            assert d.evaluate(1) in (1, -1)
            assert d.eq_up_to_units(d.conjugate())

        # 1000-case Blanchfield sesquilinearity / hermitian / nonsingularity
        cases = 0
        while cases < 1000:
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
            assert form.pairing(mod.scale(f, x), y) == form.pairing(x, y).scale_poly(f)
            assert form.pairing(x, mod.scale(f, y)) == \
                form.pairing(x, y).scale_poly(f.conjugate())
            assert form.pairing(y, x) == form.pairing(x, y).conjugate()

        # interval containment: rho0 of a sum sits inside the summed intervals
        pairs = [(TREFOIL, TREFOIL), (TREFOIL, FIG8)]
        for _ in range(4):
            pairs.append((random_seifert(rng, 1), random_seifert(rng, 1)))
        for v1, v2 in pairs:
            lhs = rho0(connected_sum(v1, v2), Fraction(1, 10**10))
            rhs = rho0(v1, Fraction(1, 10**7)) + rho0(v2, Fraction(1, 10**7))
            assert rhs.lo <= lhs.lo and lhs.hi <= rhs.hi
