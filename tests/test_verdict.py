import random
from collections import Counter
from fractions import Fraction

import pytest

from concord.alexmod import BlanchfieldForm, UnsupportedModule, module_from_seifert
from concord.construction import (
    AssumedDepth,
    BaseKnot,
    BingDouble,
    ConstructionError,
    CurveSpec,
    Infect,
    LinkingZeroDepth,
    Multiple,
    SliceLinkAssumed,
    TrivialLink,
    WordDepth,
    operator_pattern,
    rdouble_tower,
)
from concord.freegroup import bing_curve
from concord.laurent import LaurentPoly, conjugate_normalized
from concord.rhocalc import Axioms, RhoAtom
from concord.verdict import (
    INCONCLUSIVE,
    NOT_SLICE,
    NOT_SLICE_CONDITIONAL,
    RULE_BING,
    RULE_DOUBLING,
    RULE_INFECT_SLICE,
    RULE_INFECT_TRIVIAL,
    _pairing_status,
    bing_obstruction,
    doubling_operator_verdict,
    infection_obstruction,
)
from test_seifert import random_seifert

TREFOIL = BaseKnot.from_catalog("trefoil")
EIGHT9 = BaseKnot.from_catalog("eight9")
NINE46 = BaseKnot.from_catalog("nine46")
UNKNOT = BaseKnot.from_catalog("unknot")
K1 = BaseKnot("K1", TREFOIL.seifert, frozenset())
# no Seifert matrix, so rho0(K1) has no certified value: a nonvanishing
# claim about it can only come from a declared axiom
OPAQUE_K1 = BaseKnot("K1", None, frozenset())
K2 = BaseKnot("K2", BaseKnot.from_catalog("figure8").seifert, frozenset())
ARF0 = BaseKnot("K", NINE46.seifert, frozenset())


def lp(d):
    return LaurentPoly(d)


def eight9_build(infectant=K1):
    gen_curve = CurveSpec("gen", LinkingZeroDepth(), (LaurentPoly.one(),))
    sub_curve = CurveSpec(
        "p_gen", LinkingZeroDepth(), (lp({3: 1, 2: -2, 1: 1, 0: -1}),)
    )
    return Infect(EIGHT9, (gen_curve, sub_curve), (infectant, infectant))


def nine46_build(k1=K1, k2=K2):
    base, curves = operator_pattern()
    return Infect(base, curves, (k1, k2))


class TestBing:
    def test_eight9_build_not_slice_with_axiom(self):
        axioms = Axioms.parse([["rho0(K1)"]])
        v = bing_obstruction(eight9_build(OPAQUE_K1), axioms)
        assert v.conclusion == NOT_SLICE
        assert v.rule == RULE_BING
        assert v.all_certified()
        assert any("via axiom" in n for n in v.notes)

    def test_eight9_build_not_slice_numerically(self):
        # K1 = trefoil: rho0 = -4/3 certified away from zero, no axiom needed
        v = bing_obstruction(eight9_build())
        assert v.conclusion == NOT_SLICE
        assert any("numeric" in n for n in v.notes)

    def test_nine46_same_infectant_conditional(self):
        # arbitrary K1 at both curves, no axioms: the full residual set
        build = nine46_build(OPAQUE_K1, OPAQUE_K1)
        v = bing_obstruction(build, Axioms())
        assert v.conclusion == NOT_SLICE_CONDITIONAL
        assert v.condition is not None
        assert str(v.condition.atom) == "rho0(K1)"
        excluded = [str(t) for t in v.condition.excluded]
        assert excluded == ["0", "-1/2*rho1(nine46)"]
        # declaring rho0(K1) != 0 refines the residual to the symbol alone
        v2 = bing_obstruction(build, Axioms.parse([["rho0(K1)"]]))
        assert [str(t) for t in v2.condition.excluded] == ["-1/2*rho1(nine46)"]

    def test_axiom_groups_stay_apart(self):
        # eight9 infected along its two isotypic generators: the term
        # rho0(K1) + rho0(K2) is nonzero only if one group declares both
        comps = module_from_seifert(EIGHT9.seifert).isotypic_components()
        curves = tuple(
            CurveSpec(f"c{i}", LinkingZeroDepth(), c.generator.coords)
            for i, c in enumerate(comps)
        )
        opaque = (BaseKnot("K1", None, frozenset()), BaseKnot("K2", None, frozenset()))
        build = Infect(EIGHT9, curves, opaque)
        apart = bing_obstruction(build, Axioms.parse([["rho0(K1)"], ["rho0(K2)"]]))
        assert apart.conclusion != NOT_SLICE
        joint = bing_obstruction(build, Axioms.parse([["rho0(K1)", "rho0(K2)"]]))
        assert joint.conclusion == NOT_SLICE

    def test_slice_base_inconclusive(self):
        v = bing_obstruction(NINE46, Axioms())
        assert v.conclusion == INCONCLUSIVE

    def test_opaque_base_inconclusive(self):
        v = bing_obstruction(BaseKnot("mystery", None, frozenset()))
        assert v.conclusion == INCONCLUSIVE
        assert v.failed_hypotheses()

    def test_monotone_in_axioms(self):
        build = eight9_build(OPAQUE_K1)
        weak = bing_obstruction(build, Axioms())
        strong = bing_obstruction(build, Axioms.parse([["rho0(K1)"]]))
        order = {INCONCLUSIVE: 0, NOT_SLICE_CONDITIONAL: 1, NOT_SLICE: 2}
        assert order[strong.conclusion] >= order[weak.conclusion]


class TestInfection:
    def test_trivial_ambient_not_slice(self):
        word, rank = bing_curve(2)
        tree = Infect(
            TrivialLink(rank), (CurveSpec("a", WordDepth(word)),), (eight9_build(OPAQUE_K1),)
        )
        v = infection_obstruction(tree, Axioms.parse([["rho0(K1)"]]))
        assert v.conclusion == NOT_SLICE
        assert v.rule == RULE_INFECT_TRIVIAL

    def test_slice_ambient_conditional(self):
        tree = Infect(
            SliceLinkAssumed("T", 3),
            (CurveSpec("a", AssumedDepth(2)),),
            (eight9_build(OPAQUE_K1),),
        )
        v = infection_obstruction(tree, Axioms.parse([["rho0(K1)"]]))
        assert v.conclusion == NOT_SLICE_CONDITIONAL
        assert v.rule == RULE_INFECT_SLICE
        assert "C(M(T))" in str(v.condition)
        assert any(h.status == "assumed" for h in v.hypotheses)

    def test_depth_zero_fails(self):
        from concord.freegroup import FreeWord

        tree = Infect(
            TrivialLink(2),
            (CurveSpec("m", WordDepth(FreeWord.generator(2, 0))),),
            (eight9_build(),),
        )
        v = infection_obstruction(tree, Axioms.parse([["rho0(K1)"]]))
        assert v.conclusion == INCONCLUSIVE
        assert v.failed_hypotheses()

    def test_matches_bing_route(self):
        # the doubling obstruction and the explicit infection form agree
        axioms = Axioms.parse([["rho0(K1)"]])
        direct = bing_obstruction(eight9_build(OPAQUE_K1), axioms)
        for n in (1, 2, 3):
            word, rank = bing_curve(n)
            tree = Infect(
                TrivialLink(rank),
                (CurveSpec("a", WordDepth(word)),),
                (eight9_build(OPAQUE_K1),),
            )
            via_infection = infection_obstruction(tree, axioms)
            assert via_infection.conclusion == direct.conclusion

    def test_shape_rejected(self):
        with pytest.raises(ConstructionError):
            infection_obstruction(TREFOIL)


class TestDoubling:
    def tower_tree(self, n=3, k=1, terminal=ARF0):
        word, rank = bing_curve(k)
        tower = rdouble_tower(terminal, n - k)
        return Infect(TrivialLink(rank), (CurveSpec("alpha", WordDepth(word)),), (tower,))

    def test_jn_tower_verdict(self):
        tree = self.tower_tree(n=3, k=1)
        v = doubling_operator_verdict(tree)
        assert v.conclusion == NOT_SLICE_CONDITIONAL
        assert v.rule == RULE_DOUBLING
        assert v.solvable_bound.level == 3
        assert not v.solvable_bound.rational_only
        assert str(v.condition) == "|rho0(K)| > C(M(T;alpha;R2))"

    def test_multiples_stable(self):
        tree = self.tower_tree(n=2, k=1)
        base_v = doubling_operator_verdict(tree)
        for m in (1, 2, 3):
            vm = doubling_operator_verdict(Multiple(tree, m))
            assert vm.conclusion == base_v.conclusion
            assert vm.condition == base_v.condition
            assert vm.solvable_bound.level == base_v.solvable_bound.level

    def test_sharp_constant_flag(self):
        tree = self.tower_tree(n=2, k=1)
        v = doubling_operator_verdict(tree, sharp_constant=True)
        assert str(v.condition.bound) == "C(M(nine46))"

    def test_arf_failure_degrades_to_rational(self):
        tree = self.tower_tree(n=2, k=1, terminal=BaseKnot("K", TREFOIL.seifert, frozenset()))
        v = doubling_operator_verdict(tree)
        assert v.solvable_bound.rational_only
        assert any(h.status == "failed" and "Arf" in h.name for h in v.hypotheses)

    def test_isotropic_curve_set_fails(self):
        # a single band meridian spans an isotropic submodule: pairing dies
        base, curves = operator_pattern()
        bad_level = Infect(base, (curves[0],), (ARF0,))
        word, rank = bing_curve(1)
        tree = Infect(
            TrivialLink(rank), (CurveSpec("a", WordDepth(word)),), (bad_level,)
        )
        v = doubling_operator_verdict(tree)
        assert v.conclusion == INCONCLUSIVE
        assert any(
            h.status == "failed" and "pair" in h.name for h in v.hypotheses
        )

    def test_blanchfield_hypothesis_certified_for_pattern(self):
        tree = self.tower_tree(n=2, k=1)
        v = doubling_operator_verdict(tree)
        assert any(
            h.status == "certified" and "pair nontrivially" in h.name
            for h in v.hypotheses
        )

    def test_bare_knot_infection(self):
        # zero levels: the "tower" is just the Arf-zero knot
        tree = self.tower_tree(n=1, k=1)
        v = doubling_operator_verdict(tree)
        assert v.solvable_bound.level == 1
        assert v.conclusion == NOT_SLICE_CONDITIONAL


class TestVerdictObject:
    def test_not_slice_gate(self):
        from concord.verdict import Hypothesis, Verdict

        with pytest.raises(AssertionError):
            Verdict(NOT_SLICE, RULE_BING, (Hypothesis("h", "assumed"),))

    def test_json_and_transcript(self):
        v = bing_obstruction(eight9_build(OPAQUE_K1), Axioms.parse([["rho0(K1)"]]))
        data = v.to_json()
        assert data["conclusion"] == NOT_SLICE
        assert data["rule"] == RULE_BING
        text = v.transcript()
        assert "conclusion: NOT_SLICE" in text
        assert "hypothesis [certified]" in text


class TestPairingStatusAgainstGram:
    """`_pairing_status` reads isotypic supports; the Blanchfield gram is
    its oracle: the status is certified exactly when some pair of the
    curve classes (a class with itself included) pairs to nonzero."""

    @staticmethod
    def random_class(rng, mod, comps, self_conjugate):
        def multiplier():
            return LaurentPoly.from_coeffs(
                [rng.randrange(-3, 4) for _ in range(rng.randrange(1, 4))] or [1])
        draw = rng.random()
        if draw < 0.15:
            return mod.zero(), "zero"
        if draw < 0.4 and self_conjugate:
            g = rng.choice(self_conjugate).generator
            return mod.scale(multiplier(), g), "self-conjugate"
        x = mod.zero()
        for c in comps:
            if rng.random() < 0.5:
                x = mod.add(x, mod.scale(multiplier(), c.generator))
        return x, "mixed"

    def test_random_modules_and_curve_sets(self):
        rng = random.Random(1977)
        seen, kinds, genera = Counter(), Counter(), set()
        while sum(seen.values()) < 2000:
            genus = rng.choice([1, 2, 3, 4])
            v = random_seifert(rng, genus)
            mod = module_from_seifert(v)
            try:
                comps = mod.isotypic_components()
            except UnsupportedModule:
                continue
            if not comps:
                continue
            genera.add(genus)
            form = BlanchfieldForm(mod)
            base = BaseKnot("B", v, frozenset())
            self_conjugate = [c for c in comps if conjugate_normalized(c.order) == c.order]
            for _ in range(4):
                drawn = [self.random_class(rng, mod, comps, self_conjugate)
                         for _ in range(rng.randrange(1, 4))]
                curves = tuple(CurveSpec(f"c{j}", LinkingZeroDepth(), x.coords)
                               for j, (x, _) in enumerate(drawn))
                xs = [x for x, _ in drawn]
                paired = any(not form.pairing(x, y).is_zero() for x in xs for y in xs)
                want = "certified" if paired else "failed"
                assert _pairing_status(base, curves)[0] == want
                seen[want] += 1
                kinds.update({k for _, k in drawn} if len(drawn) == 1 else {"several"})
        assert genera == {1, 2, 3, 4}
        assert min(seen.values()) > 200
        # single curves on a self-conjugate component alone, and zero classes
        assert kinds["self-conjugate"] > 50 and kinds["zero"] > 50
