from fractions import Fraction

import pytest

from concord import alexmod, rhocalc
from concord.alexmod import SubmoduleLattice, isotropic_submodules, module_from_seifert
from concord.certified import Interval
from concord.construction import (
    AssumedDepth,
    BaseKnot,
    CurveSpec,
    Infect,
    LinkingZeroDepth,
    RDouble,
    operator_pattern,
    rdouble_tower,
)
from concord.laurent import LaurentPoly
from concord.rhocalc import (
    Axioms,
    MissingAlexClass,
    RhoAtom,
    RhoTerm,
    first_order_signatures,
    provably_nonzero,
    rho0_atom_term,
)
from concord.seifert import SeifertMatrix, arf

NINE46 = BaseKnot.from_catalog("nine46")
EIGHT9 = BaseKnot.from_catalog("eight9")
FIG8 = BaseKnot.from_catalog("figure8")
TREFOIL = BaseKnot.from_catalog("trefoil")

K1 = BaseKnot("K1", TREFOIL.seifert, frozenset())
K2 = BaseKnot("K2", BaseKnot.from_catalog("figure8").seifert, frozenset())


def lp(d):
    return LaurentPoly(d)


def near(mid, rad):
    """The enclosure of radius `rad` about `mid`."""
    return Interval(mid - rad, mid + rad)


def nine46_build(k1=K1, k2=K2):
    base, curves = operator_pattern()
    return Infect(base, curves, (k1, k2))


def eight9_build():
    """Infections along a module generator and a generator of the
    submodule spanned by the p-multiples, both with the same knot."""
    mod = module_from_seifert(EIGHT9.seifert)
    p = lp({3: 1, 2: -2, 1: 1, 0: -1})
    gen_curve = CurveSpec("gen", LinkingZeroDepth(), (LaurentPoly.one(),))
    sub_curve = CurveSpec("p_gen", LinkingZeroDepth(), (p,))
    return Infect(EIGHT9, (gen_curve, sub_curve), (K1, K1))


class TestRhoTerm:
    def test_vector_space_laws(self):
        a = RhoTerm.of_atom(RhoAtom.rho0("K1"))
        b = RhoTerm.of_atom(RhoAtom.rho0("K2"), 2)
        c = RhoTerm.make(Fraction(1, 2))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert (a - a).is_zero()
        assert a.scale(3).coeff(RhoAtom.rho0("K1")) == 3
        assert a.scale(0).is_zero()

    def test_canonical_ordering_and_str(self):
        t = RhoTerm.of_atom(RhoAtom.rho1("nine46")) + RhoTerm.of_atom(RhoAtom.rho0("K1"))
        assert str(t) == "rho0(K1) + rho1(nine46)"
        assert str(RhoTerm.zero()) == "0"
        neg = RhoTerm.of_atom(RhoAtom.rho1("nine46"), Fraction(-1, 2))
        assert str(neg) == "-1/2*rho1(nine46)"

    def test_evaluate(self):
        t = RhoTerm.of_atom(RhoAtom.rho0("K1"), 2) + RhoTerm.make(1)
        vals = {RhoAtom.rho0("K1"): near(Fraction(-4, 3), Fraction(1, 10**9))}
        v = t.evaluate(vals)
        assert v.contains(Fraction(-5, 3))
        assert t.evaluate({}) is None

    def test_atom_parse(self):
        assert RhoAtom.parse("rho0(K1)") == RhoAtom.rho0("K1")
        assert RhoAtom.parse("C(M_T)") == RhoAtom.cg("M_T")
        with pytest.raises(ValueError):
            RhoAtom.parse("tau(K)")

    def test_numeric_evaluation_consistency(self):
        # symbolic-then-evaluate agrees with evaluating the components
        a = RhoTerm.of_atom(RhoAtom.rho0("K1"), 2)
        b = RhoTerm.of_atom(RhoAtom.rho0("K2"), -3) + RhoTerm.make(Fraction(1, 4))
        vals = {
            RhoAtom.rho0("K1"): near(Fraction(-4, 3), Fraction(1, 10**6)),
            RhoAtom.rho0("K2"): near(Fraction(7, 5), Fraction(1, 10**7)),
        }
        whole = (a + b).evaluate(vals)
        parts = a.evaluate(vals) + b.evaluate(vals)
        assert whole.midpoint == parts.midpoint
        assert whole.radius == parts.radius

    def test_to_json_mirrors_map(self):
        t = RhoTerm.of_atom(RhoAtom.rho0("K1"), Fraction(-1, 2)) + RhoTerm.make(3)
        data = t.to_json()
        assert data == {"constant": [3, 1], "coeffs": [["rho0(K1)", [-1, 2]]]}


class TestKernelEval:
    def test_nine46_spec_rows(self):
        # a curve's kernel bit is 0 exactly when its class lies in P
        base, curves = operator_pattern()
        mod = module_from_seifert(base.seifert)
        lattice = SubmoduleLattice(mod)
        subs = lattice.isotropic()
        alpha, beta = (mod.element(list(c.alex_class)) for c in curves)
        p0 = subs[0]
        assert not lattice.membership(p0, alpha)
        assert not lattice.membership(p0, beta)
        p_alpha = next(s for s in subs[1:] if lattice.membership(s, alpha))
        assert not lattice.membership(p_alpha, beta)


class TestFirstOrder:
    def test_nine46_infected_example(self):
        fos = first_order_signatures(nine46_build())
        assert len(fos.terms) == 3
        want = {
            "rho0(K1) + rho0(K2) + rho1(nine46)",
            "rho0(K2)",
            "rho0(K1)",
        }
        assert set(fos.term_strings()) == want
        # the zero submodule carries the full term
        assert str(fos.terms[0]) == "rho0(K1) + rho0(K2) + rho1(nine46)"
        # the submodule containing the first curve's class drops that
        # curve's contribution, keeping the other knot's
        lattice = SubmoduleLattice(fos.module)
        _, curves = operator_pattern()
        alpha_class = fos.module.element(list(curves[0].alex_class))
        p_alpha = next(
            s for s in fos.submodules
            if not s.is_zero() and lattice.membership(s, alpha_class)
        )
        assert str(fos.terms[fos.submodules.index(p_alpha)]) == "rho0(K2)"

    def test_nine46_base_alone(self):
        fos = first_order_signatures(NINE46)
        assert fos.term_strings() == ["rho1(nine46)", "0", "0"]

    def test_eight9_all_zero(self):
        fos = first_order_signatures(EIGHT9)
        assert fos.term_strings() == ["0", "0", "0"]

    def test_eight9_infected_respectively(self):
        fos = first_order_signatures(eight9_build())
        assert sorted(fos.term_strings()) == ["2*rho0(K1)", "2*rho0(K1)", "rho0(K1)"]
        # the single-rho0 entry is the submodule containing the second
        # curve's class; the generator curve lies in none
        lattice = SubmoduleLattice(fos.module)
        p = lp({3: 1, 2: -2, 1: 1, 0: -1})
        x = fos.module.element([p])
        for sub, term in zip(fos.submodules, fos.terms):
            inside = lattice.membership(sub, x) and not sub.is_zero()
            assert str(term) == ("rho0(K1)" if inside else "2*rho0(K1)")

    def test_fig8_single_term_amphichiral(self):
        curves = (
            CurveSpec("a", LinkingZeroDepth(), (LaurentPoly.one(),)),
            CurveSpec("b", LinkingZeroDepth(), (LaurentPoly.t(),)),
        )
        kp = BaseKnot("Kp", TREFOIL.seifert, frozenset())
        build = Infect(FIG8, curves, (kp, kp))
        fos = first_order_signatures(build)
        assert len(fos.terms) == 1  # only the zero submodule is isotropic
        assert str(fos.terms[0]) == "2*rho0(Kp)"  # rho1(figure8) dies: amphichiral

    def test_deep_curve_dropped(self):
        deep = CurveSpec("deep", AssumedDepth(2))
        build = Infect(NINE46, (deep,), (K1,))
        fos = first_order_signatures(build)
        assert fos.term_strings() == ["rho1(nine46)", "0", "0"]
        assert any("factors away" in n for n in fos.notes)

    def test_depth1_curve_without_class_errors(self):
        build = Infect(NINE46, (CurveSpec("c", AssumedDepth(1)),), (K1,))
        with pytest.raises(MissingAlexClass):
            first_order_signatures(build)

    def test_opaque_base_keeps_symbol(self):
        build = BaseKnot("mystery", None, frozenset())
        fos = first_order_signatures(build)
        assert fos.incomplete
        assert fos.term_strings() == ["rho1(mystery)"]

    def test_count_matches_lattice(self):
        fos = first_order_signatures(nine46_build())
        assert len(fos.terms) == len(isotropic_submodules(fos.module))

    def test_tower_collapses_at_first_order(self):
        # J_2: the infectants are towers whose rho0 descends to the ribbon
        # base and vanishes, so only the base symbol survives
        fos = first_order_signatures(rdouble_tower(K1, 2))
        assert fos.term_strings() == ["rho1(nine46)", "0", "0"]

    def test_composite_parent_rejected(self):
        from concord.construction import ConnectedSum, ConstructionError

        composite = ConnectedSum((K1, K2))
        bad = Infect(composite, operator_pattern()[1], (K1, K1))
        with pytest.raises(ConstructionError):
            first_order_signatures(bad)
        with pytest.raises(ConstructionError):
            first_order_signatures(ConnectedSum((K1, K2)))

    def test_one_lattice_per_module(self, monkeypatch):
        # ten distinct Arf-0 knots K: every R(K) infects the one 9_46
        # module, whose isotropic submodules are enumerated once
        calls = []
        isotropic = SubmoduleLattice.isotropic

        def counted(self):
            calls.append(self.module)
            return isotropic(self)

        monkeypatch.setattr(SubmoduleLattice, "isotropic", counted)
        alexmod.isotropy.cache_clear()
        knots = [BaseKnot(f"A{n}", SeifertMatrix([[0, n], [n - 1, 0]]), frozenset())
                 for n in range(2, 12)]
        assert all(arf(k.seifert) == 0 for k in knots)
        sets = [first_order_signatures(RDouble(k)) for k in knots]
        assert len({f.module for f in sets}) == 1
        assert calls == [sets[0].module]
        assert sorted(sets[3].term_strings()) == ["2*rho0(A5) + rho1(nine46)",
                                                  "rho0(A5)", "rho0(A5)"]

    def test_returned_lists_are_the_callers(self):
        first = first_order_signatures(nine46_build())
        want = list(first.submodules)
        first.submodules.clear()
        first.terms.clear()
        again = first_order_signatures(nine46_build())
        assert again.submodules == want
        assert len(again.terms) == len(want)

    def test_numeric_values(self):
        fos = first_order_signatures(nine46_build())
        vals = fos.atom_values()
        assert vals[RhoAtom.rho0("K1")].contains(Fraction(-4, 3))
        assert vals[RhoAtom.rho0("K2")].midpoint == 0


class TestRho0Term:
    def test_infection_descends(self):
        tower = rdouble_tower(K1, 3)
        assert rho0_atom_term(tower).is_zero()  # base 9_46 is ribbon
        assert str(rho0_atom_term(K1)) == "rho0(K1)"

    def test_connected_sum_adds(self):
        from concord.construction import ConnectedSum

        t = rho0_atom_term(ConnectedSum((K1, K1, K2)))
        assert t.coeff(RhoAtom.rho0("K1")) == 2
        assert t.coeff(RhoAtom.rho0("K2")) == 1


class TestAxioms:
    def test_groups_are_not_merged(self):
        ax = Axioms.parse([["rho0(K1)"], ["rho0(K2)"]])
        k1 = RhoTerm.of_atom(RhoAtom.rho0("K1"))
        k2 = RhoTerm.of_atom(RhoAtom.rho0("K2"))
        assert provably_nonzero(k1, ax) == (True, "axiom")
        assert provably_nonzero(k1 + k2, ax) == (False, None)

    def test_provably_nonzero_routes(self):
        ax = Axioms.parse([["rho0(K1)"]])
        k1 = RhoTerm.of_atom(RhoAtom.rho0("K1"))
        ok, route = provably_nonzero(k1, ax)
        assert ok and route == "axiom"
        vals = {RhoAtom.rho0("K1"): near(Fraction(-4, 3), Fraction(1, 10**9))}
        ok, route = provably_nonzero(k1, Axioms(), vals)
        assert ok and route == "numeric"
        ok, route = provably_nonzero(RhoTerm.make(3), Axioms())
        assert ok and route == "exact"
        ok, _ = provably_nonzero(RhoTerm.zero(), ax)
        assert not ok
        # constant offset spoils the axiom route
        ok, _ = provably_nonzero(k1 + RhoTerm.make(1), ax)
        assert not ok
