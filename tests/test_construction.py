from fractions import Fraction

import pytest

from concord.construction import (
    AssumedDepth,
    BaseKnot,
    BingDouble,
    ConnectedSum,
    ConstructionError,
    CurveSpec,
    Infect,
    LinkingZeroDepth,
    Multiple,
    RDouble,
    SliceLinkAssumed,
    SolvDegree,
    TrivialLink,
    WordDepth,
    component_count,
    expand_clones,
    operator_pattern,
    rdouble_tower,
    solvability_upper_bound,
    tower_decomposition,
)
from concord.freegroup import derived_depth, parse_word
from concord.seifert import arf
from concord.verdict import Hypothesis

TREFOIL = BaseKnot.from_catalog("trefoil")
UNKNOT = BaseKnot.from_catalog("unknot")
NINE46 = BaseKnot.from_catalog("nine46")


def arf_zero_knot():
    # trefoil has Arf 1; 9_46-with-no-flags proxy for a generic Arf-0 knot
    from concord.seifert import SeifertMatrix

    return BaseKnot("K", SeifertMatrix([[0, 2], [1, 0]]), frozenset())


class TestNodes:
    def test_component_counts(self):
        assert component_count(TREFOIL) == 1
        assert component_count(TrivialLink(4)) == 4
        assert component_count(BingDouble(TREFOIL, 3)) == 8
        assert component_count(RDouble(TREFOIL)) == 1
        # multiples and infections keep the components of their parent
        assert component_count(Multiple(TrivialLink(3), 2)) == 3
        over_multiple = Infect(Multiple(SliceLinkAssumed("L", 2), 3),
                               (CurveSpec("a", AssumedDepth(1)),), (TREFOIL,))
        assert component_count(over_multiple) == 2

    def test_validation(self):
        with pytest.raises(ConstructionError):
            Infect(TREFOIL, (), ())
        with pytest.raises(ConstructionError):
            Multiple(TREFOIL, 0)
        with pytest.raises(ConstructionError):
            CurveSpec("bad", AssumedDepth(1), lk_zero=False)


class TestNormalize:
    """Nodes are normalized when built: the constructors apply the
    rewriting rules and reject invalid nodes on the spot."""

    def test_multiple_of_knot_expands(self):
        assert Multiple(TREFOIL, 1) is TREFOIL
        out = Multiple(TREFOIL, 3)
        assert isinstance(out, ConnectedSum) and out.parts == (TREFOIL,) * 3

    def test_sum_flattens(self):
        inner = ConnectedSum((TREFOIL, UNKNOT))
        out = ConnectedSum((inner, TREFOIL))
        assert isinstance(out, ConnectedSum) and len(out.parts) == 3
        assert not any(isinstance(p, ConnectedSum) for p in out.parts)
        assert ConnectedSum((TREFOIL,)) is TREFOIL

    def test_sum_deterministic_order(self):
        a = ConnectedSum((TREFOIL, UNKNOT))
        b = ConnectedSum((UNKNOT, TREFOIL))
        assert a == b and a.parts == b.parts
        assert ConnectedSum((a, NINE46)) == ConnectedSum((NINE46, b))

    def test_rdouble_expands_to_infection(self):
        out = RDouble(TREFOIL)
        assert isinstance(out, Infect)
        assert out.parent == NINE46
        assert len(out.curves) == 2
        assert out.infectants == (TREFOIL, TREFOIL)
        assert out.curves[0].alex_class is not None

    def test_rdouble_equal_when_built_twice(self):
        assert RDouble(TREFOIL) == RDouble(TREFOIL)
        assert rdouble_tower(TREFOIL, 3) == rdouble_tower(TREFOIL, 3)

    def test_bing_double_expands(self):
        out = BingDouble(TREFOIL, 2)
        assert isinstance(out, Infect)
        assert out.parent == TrivialLink(4)
        assert isinstance(out.curves[0].certificate, WordDepth)

    def test_multiple_of_link_stays(self):
        link = BingDouble(TREFOIL, 1)
        out = Multiple(link, 2)
        assert isinstance(out, Multiple) and out.count == 2 and out.parent == link
        assert Multiple(out, 1) is out

    def test_word_rank_must_match_ambient(self):
        word = parse_word("[x1,x2]", 2)
        with pytest.raises(ConstructionError, match="rank"):
            Infect(TrivialLink(4), (CurveSpec("a", WordDepth(word)),), (TREFOIL,))

    def test_knots_only_where_knots_belong(self):
        link = TrivialLink(2)
        word = parse_word("[x1,x2]", 2)
        for build in [
            lambda: RDouble(link),
            lambda: BingDouble(link),
            lambda: ConnectedSum((TREFOIL, link)),
            lambda: Infect(link, (CurveSpec("a", WordDepth(word)),), (link,)),
        ]:
            with pytest.raises(ConstructionError):
                build()


class TestSolvability:
    def test_base_cases(self):
        assert solvability_upper_bound(UNKNOT).slice_all
        assert solvability_upper_bound(arf_zero_knot()).level == 0
        trefoil_deg = solvability_upper_bound(TREFOIL)
        # Arf(trefoil) = 1: integrally obstructed, rationally level 0
        assert trefoil_deg.level == 0 and trefoil_deg.rational_only

    def test_bing_double_of_arf_zero(self):
        deg = solvability_upper_bound(BingDouble(arf_zero_knot(), 1))
        assert deg.level == 1

    def test_jn_tower_level_n(self):
        for n in range(0, 4):
            tree = rdouble_tower(arf_zero_knot(), n)
            deg = solvability_upper_bound(tree)
            if n == 0:
                assert deg.level == 0
            else:
                assert deg.level == n

    def test_bd_over_one_solvable_tower(self):
        j1 = rdouble_tower(arf_zero_knot(), 1)  # (1)-solvable
        for n in (1, 2, 3):
            deg = solvability_upper_bound(BingDouble(j1, n))
            assert deg.level == n + 1

    def test_slice_base_every_level(self):
        tower = rdouble_tower(UNKNOT, 3)
        deg = solvability_upper_bound(tower)
        assert deg.slice_all

    def test_missing_certificate_unknown(self):
        opaque = BaseKnot("mystery", None, frozenset())
        tree = Infect(
            TrivialLink(2),
            (CurveSpec("a", AssumedDepth(1)),),
            (opaque,),
        )
        deg = solvability_upper_bound(tree)
        assert not deg.known()
        assert any("mystery" in n for n in deg.notes)

    def test_assumed_flag_propagates(self):
        tree = Infect(
            SliceLinkAssumed("T", 2),
            (CurveSpec("a", AssumedDepth(2)),),
            (arf_zero_knot(),),
        )
        deg = solvability_upper_bound(tree)
        assert deg.level == 2 and deg.assumed

    def test_monotone_in_infectant(self):
        deeper = rdouble_tower(arf_zero_knot(), 2)   # level 2
        shallower = arf_zero_knot()                   # level 0
        word = parse_word("[x1,x2]", 2)
        def bd(k):
            return Infect(TrivialLink(2), (CurveSpec("c", WordDepth(word)),), (k,))
        assert solvability_upper_bound(bd(deeper)).level >= \
            solvability_upper_bound(bd(shallower)).level


class TestExpandClones:
    def test_tower_recognition(self):
        tree = rdouble_tower(arf_zero_knot(), 3)
        n, terminal = tower_decomposition(tree)
        assert n == 3 and terminal == arf_zero_knot()

    def test_level_zero_is_identity(self):
        tree = rdouble_tower(arf_zero_knot(), 2)
        assert expand_clones(tree, 0) is tree

    def test_clone_counts(self):
        tree = rdouble_tower(arf_zero_knot(), 3)
        for i in (1, 2, 3):
            out = expand_clones(tree, i)
            assert isinstance(out, Infect)
            assert len(out.curves) == 2**i
            assert len(out.infectants) == 2**i
            for c in out.curves:
                assert c.certificate.lower_depth()[0] == i

    def test_preserves_solvability(self):
        tree = rdouble_tower(arf_zero_knot(), 3)
        base = solvability_upper_bound(tree)
        for i in (0, 1, 2, 3):
            out = expand_clones(tree, i)
            assert solvability_upper_bound(out).level == base.level == 3

    def test_depth1_clones_carry_classes(self):
        tree = rdouble_tower(arf_zero_knot(), 2)
        out = expand_clones(tree, 1)
        assert all(c.alex_class is not None for c in out.curves)

    def test_out_of_range(self):
        tree = rdouble_tower(arf_zero_knot(), 2)
        with pytest.raises(ConstructionError):
            expand_clones(tree, 3)
        with pytest.raises(ConstructionError):
            expand_clones(TREFOIL, 1)


class TestSharedSubtrees:
    """An rdouble tower is a DAG whose levels share their infectant; every
    pass walks each distinct node once, so the work does not double per
    level."""

    @staticmethod
    def tower_infection(height):
        word = parse_word("[x1,x2]", 2)
        tower = rdouble_tower(arf_zero_knot(), height)
        return tower, Infect(TrivialLink(2), (CurveSpec("alpha", WordDepth(word)),), (tower,))

    def test_arf_once_per_distinct_leaf(self, monkeypatch):
        import concord.construction as construction

        calls = []

        def counting_arf(v):
            calls.append(v)
            return arf(v)

        monkeypatch.setattr(construction, "arf", counting_arf)
        _, tree = self.tower_infection(12)
        assert solvability_upper_bound(tree).level == 1 + 12
        assert len(calls) == 1

    def test_pairing_once_per_operator(self):
        # the pairing status is read once per distinct operator, from one
        # support computation per distinct curve class
        from concord.alexmod import support
        from concord.verdict import NOT_SLICE_CONDITIONAL, doubling_operator_verdict

        counts, verdicts = [], []
        for height in (1, 12):
            support.cache_clear()
            verdicts.append(doubling_operator_verdict(self.tower_infection(height)[1]))
            counts.append(support.cache_info().misses)
        # alpha and beta, the operator's two distinct curve classes
        assert counts == [2, 2]
        short, tall = verdicts
        assert short.conclusion == tall.conclusion == NOT_SLICE_CONDITIONAL
        name = "operator level {}: curve classes pair nontrivially"
        (first,) = [h for h in short.hypotheses if "pair nontrivially" in h.name]
        assert first == Hypothesis(name.format(1), "certified", "nonvanishing pair found")
        assert [h for h in tall.hypotheses if "pair nontrivially" in h.name] == [
            Hypothesis(name.format(j), first.status, first.detail) for j in range(1, 13)
        ]
        assert tall.hypotheses[:2] == short.hypotheses[:2]

    def test_height_64(self):
        from concord.verdict import NOT_SLICE_CONDITIONAL, doubling_operator_verdict

        tower, tree = self.tower_infection(64)
        deg = solvability_upper_bound(tree)
        assert deg.level == 1 + 64 and not deg.rational_only
        verdict = doubling_operator_verdict(tree)
        assert verdict.conclusion == NOT_SLICE_CONDITIONAL
        assert verdict.solvable_bound.level == 1 + 64
        out = expand_clones(tower, 3)
        assert len(out.infectants) == 8
        assert all(i == out.infectants[0] for i in out.infectants)
        assert tower_decomposition(out.infectants[0]) == (61, arf_zero_knot())


def test_memos_are_bounded():
    for fn in (derived_depth, operator_pattern):
        assert fn.cache_info().maxsize is not None


def test_memo_keys_by_value_not_spelling():
    """Equal calls spelled differently share one LRU entry."""
    word = parse_word("[[x2,x4],[x3,x1]]", 4)  # a word no other test uses
    before = derived_depth.cache_info()
    results = [derived_depth(word), derived_depth(word, 5), derived_depth(word, n_max=5)]
    after = derived_depth.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 2)
    assert results[0] is results[1] is results[2]
