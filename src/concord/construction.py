"""The construction DSL: knots and links assembled from base knots by
infection (satellite operations with winding number zero), doubling
operators, connected sums and string-link multiples.

A construction tree carries exactly the algebraic data the obstruction
engine consumes: free-group or assumed depth certificates for infection
curves, their Alexander-module classes, and base-knot annotations.  No
diagram geometry is modeled.

Every node is canonical as soon as it is built.  `RDouble` and
`BingDouble` return the infections they stand for, a multiple of a knot
is the connected sum of its copies, sums are flat and ordered, and a node
that breaks a rule (a link where a knot belongs, a word of the wrong
rank) raises `ConstructionError` when it is built.  Structural equality
of nodes is therefore tree equivalence, and no pass rewrites a tree
before walking it.

Solvability bookkeeping: infecting a link along curves of derived depth
p_i with (q_i)-solvable knots keeps the result inside filtration level
min(parent level, min_i(p_i + q_i)); slice bases sit at every level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple, TypeVar, Union

from concord import catalog
from concord.freegroup import FreeWord, bing_curve, derived_depth
from concord.laurent import LaurentPoly, memo
from concord.seifert import SeifertMatrix, arf


class ConstructionError(Exception):
    pass


# -- depth certificates -------------------------------------------------------


@dataclass(frozen=True)
class WordDepth:
    """Curve given as a free word in the ambient trivial-link group;
    its depth is certified by the derived-series oracle."""

    word: FreeWord

    def lower_depth(self) -> Tuple[int, str]:
        return derived_depth(self.word).value, "certified"

    def exact_depth(self) -> Optional[Tuple[int, str]]:
        res = derived_depth(self.word)
        return (res.value, "certified") if res.exact else None


@dataclass(frozen=True)
class AssumedDepth:
    """User-supplied depth hypothesis (for ambient groups the free-group
    oracle cannot reach); verdicts report it as assumed."""

    depth: int

    def lower_depth(self) -> Tuple[int, str]:
        return self.depth, "assumed"

    def exact_depth(self) -> Optional[Tuple[int, str]]:
        return self.depth, "assumed"


@dataclass(frozen=True)
class LinkingZeroDepth:
    """Depth exactly 1: the curve has linking number zero with the base
    (so it lies in the commutator subgroup) and a nontrivial
    Alexander-module class (so it survives one level down)."""

    def lower_depth(self) -> Tuple[int, str]:
        return 1, "certified"

    def exact_depth(self) -> Optional[Tuple[int, str]]:
        return 1, "certified"


@dataclass(frozen=True)
class CloneDepth:
    """Depth of a clone curve produced by expanding an i-fold doubling
    tower; the recursion places clones in the i-th derived subgroup."""

    depth: int

    def lower_depth(self) -> Tuple[int, str]:
        return self.depth, "certified"

    def exact_depth(self) -> Optional[Tuple[int, str]]:
        return self.depth, "certified"


Certificate = Union[WordDepth, AssumedDepth, LinkingZeroDepth, CloneDepth]

@dataclass(frozen=True)
class CurveSpec:
    """An infection curve: a depth certificate, an optional class in the
    base's Alexander module (decomposition coordinates), and the
    winding-number-zero invariant (always required)."""

    label: str
    certificate: Certificate
    alex_class: Optional[Tuple[LaurentPoly, ...]] = None
    lk_zero: bool = True

    def __post_init__(self):
        if not self.lk_zero:
            raise ConstructionError(
                f"curve {self.label!r}: infection requires linking number zero"
            )


# -- construction nodes ------------------------------------------------------------


@dataclass(frozen=True)
class BaseKnot:
    name: str
    seifert: Optional[SeifertMatrix]
    flags: frozenset = frozenset()

    @classmethod
    def from_catalog(cls, name: str) -> "BaseKnot":
        v, flags = catalog.get(name)
        return cls(name, v, frozenset(k for k, val in flags.items() if val))

    def is_opaque(self) -> bool:
        return self.seifert is None

    def is_slice(self) -> bool:
        return "ribbon" in self.flags or "slice" in self.flags


@dataclass(frozen=True)
class TrivialLink:
    components: int

    def __post_init__(self):
        if self.components < 1:
            raise ConstructionError("a link needs at least one component")


@dataclass(frozen=True)
class SliceLinkAssumed:
    label: str
    components: int


@dataclass(frozen=True)
class Infect:
    """`parent` infected along each curve by the infectant in the same
    position; every infectant is a knot, and a curve given as a word lives
    in the group of the trivial link it infects."""

    parent: "Node"
    curves: Tuple[CurveSpec, ...]
    infectants: Tuple["Node", ...]

    def __post_init__(self):
        if len(self.curves) != len(self.infectants):
            raise ConstructionError(
                f"{len(self.curves)} curves vs {len(self.infectants)} infectants"
            )
        if not self.curves:
            raise ConstructionError("infection needs at least one curve")
        if not all(is_knot(i) for i in self.infectants):
            raise ConstructionError("infectants must be knots")
        if isinstance(self.parent, TrivialLink):
            for c in self.curves:
                cert = c.certificate
                if isinstance(cert, WordDepth) and cert.word.rank != self.parent.components:
                    raise ConstructionError(
                        f"curve {c.label!r}: word lives in rank {cert.word.rank} but "
                        f"the ambient trivial link has {self.parent.components} components"
                    )


@dataclass(frozen=True, init=False)
class ConnectedSum:
    """The connected sum of knots.  Nested sums are flattened and the parts
    put in `_key` order, so equal sums are equal nodes; a sum of one part
    is that part."""

    parts: Tuple["Node", ...]

    def __new__(cls, parts) -> "Node":
        flat: List[Node] = []
        for p in parts:
            flat.extend(p.parts if isinstance(p, ConnectedSum) else (p,))
        if not flat:
            raise ConstructionError("empty connected sum")
        if not all(is_knot(p) for p in flat):
            raise ConstructionError("connected sum parts must be knots")
        if len(flat) == 1:
            return flat[0]
        # one fold keys every part, so a part repeated (as in a multiple)
        # shares its key and comparing the copies does not walk them
        node = super().__new__(cls)
        object.__setattr__(node, "parts", tuple(sorted(flat, key=folder(_key))))
        return node


@dataclass(frozen=True, init=False)
class Multiple:
    """`count` copies of a link.  Copies of a knot are their connected sum,
    and one copy is the parent itself."""

    parent: "Node"
    count: int

    def __new__(cls, parent: "Node", count: int) -> "Node":
        if count < 1:
            raise ConstructionError("multiple count must be >= 1")
        if count == 1:
            return parent
        if is_knot(parent):
            return ConnectedSum((parent,) * count)
        node = super().__new__(cls)
        object.__setattr__(node, "parent", parent)
        object.__setattr__(node, "count", count)
        return node


def BingDouble(parent: "Node", iterations: int = 1) -> Infect:
    """The `iterations`-fold Bing double of a knot: the trivial link of
    2^iterations components infected by the knot along the doubling curve."""
    if iterations < 1:
        raise ConstructionError("doubling iterations must be >= 1")
    if not is_knot(parent):
        raise ConstructionError("iterated doubling of a knot only")
    word, rank = bing_curve(iterations)
    curve = CurveSpec(f"doubling_curve_{iterations}", WordDepth(word))
    return Infect(TrivialLink(rank), (curve,), (parent,))


def RDouble(parent: "Node") -> Infect:
    """The generalized double of a knot: the standard two-band ribbon
    pattern (the 9_46 knot) infected along its band meridians, by the same
    knot at both."""
    base, curves = operator_pattern()
    if not is_knot(parent):
        raise ConstructionError("doubling operators apply to knots")
    return Infect(base, curves, (parent, parent))


Node = Union[BaseKnot, TrivialLink, SliceLinkAssumed, Infect, ConnectedSum, Multiple]
T = TypeVar("T")


def fold(node: Node, visit: Callable[[Node, Callable[[Node], T]], T]) -> T:
    """The value of `visit` at `node`, folded bottom-up over the DAG.

    `visit(n, sub)` computes n's value, calling `sub(child)` for the value
    of a child; it runs once per distinct node object that is reached, so a
    shared subtree is walked once.  Nodes are canonical when built, so no
    pass rewrites a tree before folding it."""
    return folder(visit)(node)


def folder(visit: Callable[[Node, Callable[[Node], T]], T]) -> Callable[[Node], T]:
    """The memoized `sub` that `fold` calls at its root: calling it on
    several roots folds them with one memo.  The memo lasts as long as the
    function and holds each node it keys, so no id is reused while it is
    in use."""
    seen: Dict[int, Tuple[Node, T]] = {}

    def sub(n: Node) -> T:
        hit = seen.get(id(n))
        if hit is None:
            hit = seen[id(n)] = (n, visit(n, sub))
        return hit[1]

    return sub


def component_count(node: Node) -> int:
    """Infection and multiples keep the parent's components, so the count
    is read at the end of the parent chain; no other child is visited."""
    while isinstance(node, (Infect, Multiple)):
        node = node.parent
    if isinstance(node, (BaseKnot, ConnectedSum)):
        return 1
    if isinstance(node, (TrivialLink, SliceLinkAssumed)):
        return node.components
    raise TypeError(f"not a construction node: {node!r}")


def is_knot(node: Node) -> bool:
    return component_count(node) == 1


# -- the 9_46 operator data ---------------------------------------------------------


@memo
def operator_pattern() -> Tuple[BaseKnot, Tuple[CurveSpec, CurveSpec]]:
    """Base knot + the two band-meridian curve specs of the doubling
    operator.  The curves' module classes are the two isotypic basis
    vectors of the operator's Alexander module."""
    from concord.alexmod import module_from_seifert

    base = BaseKnot.from_catalog("nine46")
    mod = module_from_seifert(base.seifert)
    comps = mod.isotypic_components()
    assert len(comps) == 2
    alpha = CurveSpec("alpha", LinkingZeroDepth(), tuple(comps[0].generator.coords))
    beta = CurveSpec("beta", LinkingZeroDepth(), tuple(comps[1].generator.coords))
    return base, (alpha, beta)


def rdouble_tower(base: Node, levels: int) -> Node:
    out = base
    for _ in range(levels):
        out = RDouble(out)
    return out


# -- canonical order --------------------------------------------------------------


def _key(node: Node, sub) -> tuple:
    if isinstance(node, BaseKnot):
        return ("base", node.name, node.seifert.entries if node.seifert else None,
                tuple(sorted(node.flags)))
    if isinstance(node, TrivialLink):
        return ("trivial", node.components)
    if isinstance(node, SliceLinkAssumed):
        return ("slice_link", node.label, node.components)
    if isinstance(node, Infect):
        return ("infect", sub(node.parent),
                tuple(_curve_key(c) for c in node.curves),
                tuple(sub(i) for i in node.infectants))
    if isinstance(node, ConnectedSum):
        return ("sum", tuple(sub(p) for p in node.parts))
    if isinstance(node, Multiple):
        return ("multiple", node.count, sub(node.parent))
    raise TypeError(f"not a construction node: {node!r}")


def _curve_key(c: CurveSpec) -> tuple:
    cert = c.certificate
    if isinstance(cert, WordDepth):
        ck = ("word", cert.word.rank, cert.word.letters)
    elif isinstance(cert, AssumedDepth):
        ck = ("assumed", cert.depth)
    elif isinstance(cert, LinkingZeroDepth):
        ck = ("lk0",)
    else:
        ck = ("clone", cert.depth)
    cls = None
    if c.alex_class is not None:
        cls = tuple(p.to_json() for p in c.alex_class)
    return (c.label, ck, _to_hashable(cls))


def _to_hashable(x):
    if isinstance(x, list):
        return tuple(_to_hashable(v) for v in x)
    if isinstance(x, tuple):
        return tuple(_to_hashable(v) for v in x)
    return x


# -- solvability -------------------------------------------------------------------


@dataclass(frozen=True)
class SolvDegree:
    """Best provable filtration level.

    level None with slice_all means solvable at every level; level None
    without it means unknown (see notes for why)."""

    level: Optional[Fraction] = None
    slice_all: bool = False
    rational_only: bool = False
    assumed: bool = False
    notes: Tuple[str, ...] = ()

    def known(self) -> bool:
        return self.slice_all or self.level is not None

    def at_least(self, q) -> bool:
        if self.slice_all:
            return True
        return self.level is not None and self.level >= Fraction(q)

    def display(self) -> str:
        if self.slice_all:
            return "slice (every level)"
        if self.level is None:
            return "unknown"
        lv = self.level
        return str(int(lv)) if lv.denominator == 1 else f"{float(lv):g}"

    def __str__(self) -> str:
        out = self.display()
        if self.rational_only and self.level is not None:
            out += " (rational)"
        if self.assumed:
            out += " (assumed)"
        return out


def solvability_upper_bound(node: Node) -> SolvDegree:
    """Best filtration level provable from the composition rule, Arf
    gates, and slice annotations."""
    return fold(node, _solvable)


def _solvable(node: Node, sub) -> SolvDegree:
    if isinstance(node, BaseKnot):
        if node.is_slice():
            assumed = "slice" in node.flags and "ribbon" not in node.flags
            return SolvDegree(slice_all=True, assumed=assumed)
        if node.seifert is not None:
            if arf(node.seifert) == 0:
                return SolvDegree(level=Fraction(0))
            # Arf = 1 blocks the integral level; the rational one survives
            return SolvDegree(
                level=Fraction(0), rational_only=True,
                notes=(f"{node.name}: Arf = 1, so level 0 holds only rationally",),
            )
        if "arf_zero" in node.flags:
            return SolvDegree(level=Fraction(0), assumed=True)
        return SolvDegree(notes=(f"{node.name}: no Seifert data and no Arf annotation",))
    if isinstance(node, TrivialLink):
        return SolvDegree(slice_all=True)
    if isinstance(node, SliceLinkAssumed):
        return SolvDegree(slice_all=True, assumed=True)
    if isinstance(node, ConnectedSum):
        return _combine_min(sub(p) for p in node.parts)
    if isinstance(node, Multiple):
        return sub(node.parent)
    if isinstance(node, Infect):
        parent = sub(node.parent)
        if not parent.known():
            return parent
        best: Optional[Fraction] = None
        assumed = parent.assumed
        rational = parent.rational_only
        notes: List[str] = list(parent.notes)
        for curve, infectant in zip(node.curves, node.infectants):
            p, status = curve.certificate.lower_depth()
            if status == "assumed":
                assumed = True
            q = sub(infectant)
            if not q.known():
                return SolvDegree(
                    notes=tuple(notes) + (
                        f"curve {curve.label!r}: infectant level unknown",
                    ) + q.notes,
                )
            assumed = assumed or q.assumed
            rational = rational or q.rational_only
            if q.slice_all:
                continue  # slice infectant never limits the level
            cand = q.level + p
            best = cand if best is None else min(best, cand)
        if best is None:
            # every infectant slice: result as solvable as the parent
            return SolvDegree(
                level=parent.level, slice_all=parent.slice_all,
                rational_only=rational, assumed=assumed, notes=tuple(notes),
            )
        if parent.slice_all:
            return SolvDegree(level=best, rational_only=rational,
                              assumed=assumed, notes=tuple(notes))
        return SolvDegree(level=min(best, parent.level), rational_only=rational,
                          assumed=assumed, notes=tuple(notes))
    raise TypeError(f"not a construction node: {node!r}")


def _combine_min(parts) -> SolvDegree:
    best: Optional[SolvDegree] = None
    slice_all = True
    assumed = False
    rational = False
    notes: List[str] = []
    for p in parts:
        if not p.known():
            return SolvDegree(notes=p.notes)
        assumed = assumed or p.assumed
        rational = rational or p.rational_only
        notes.extend(p.notes)
        if p.slice_all:
            continue
        slice_all = False
        if best is None or p.level < best:
            best = p.level
    if slice_all:
        return SolvDegree(slice_all=True, assumed=assumed, notes=tuple(notes))
    return SolvDegree(level=best, rational_only=rational, assumed=assumed,
                      notes=tuple(notes))


# -- doubling towers and clone expansion ------------------------------------------


def doubling_chain(node: Node) -> Tuple[List[Infect], Node]:
    """(levels, terminal) of a node: the levels are the chain of
    generalized doublings at its top, each an infection of a base knot
    along curves with module classes, by one knot at every curve; the
    terminal is the node under the last level (the node itself when there
    is none)."""
    levels: List[Infect] = []
    while (
        isinstance(node, Infect)
        and isinstance(node.parent, BaseKnot)
        and all(i == node.infectants[0] for i in node.infectants[1:])
        and all(c.alex_class is not None for c in node.curves)
    ):
        levels.append(node)
        node = node.infectants[0]
    return levels, node


def tower_decomposition(node: Node) -> Tuple[int, Node]:
    """Recognize an n-fold doubling tower (9_46 pattern) and return
    (n, terminal knot).  n = 0 when the node is not such an infection."""
    levels, terminal = doubling_chain(node)
    base, curves = operator_pattern()
    for n, level in enumerate(levels):
        if not (level.parent == base and level.curves == curves
                and len(level.infectants) == 2):
            return n, level
    return len(levels), terminal


def expand_clones(node: Node, i: int) -> Node:
    """Rewrite an n-fold doubling tower over K as a single multi-infection:
    the i-fold tower over the unknot (a ribbon knot), infected along its
    2^i clone curves (each at derived depth i) by copies of the
    (n-i)-fold tower over K.  i = 0 returns the tower itself."""
    n, terminal = tower_decomposition(node)
    if n == 0:
        raise ConstructionError("clone expansion needs a doubling tower")
    if not 0 <= i <= n:
        raise ConstructionError(f"expansion level {i} outside 0..{n}")
    if i == 0:
        return node
    ribbon_base = rdouble_tower(BaseKnot.from_catalog("unknot"), i)
    infectant = rdouble_tower(terminal, n - i)
    _, pattern_curves = operator_pattern()
    curves = []
    for j in range(2**i):
        if i == 1:
            # the two depth-1 clones are the band meridians themselves
            template = pattern_curves[j]
            curves.append(
                CurveSpec(f"clone_{i}_{j}", CloneDepth(1), template.alex_class)
            )
        else:
            curves.append(CurveSpec(f"clone_{i}_{j}", CloneDepth(i)))
    return Infect(ribbon_base, tuple(curves), (infectant,) * (2**i))
