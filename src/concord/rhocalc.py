"""Symbolic calculus of signature-defect invariants.

Atoms stand for real numbers no algorithm here can produce: rho0(K) (the
signature integral, which does get a certified value when K has a Seifert
matrix), rho1(K) (the metabelian signature defect attached to the zero
submodule, opaque), and C(M) (the uniform bound constant of a 3-manifold,
opaque and only ever used inside inequalities).  Terms are rational
linear combinations plus a rational constant; all computations with the
worked doubling examples reduce to this atom algebra plus one additivity
rule: an infection along a curve eta adds the infectant's rho0 exactly
when the metabelian quotient indexed by an isotropic submodule P does not
kill eta, that is, when eta's module class lies outside P.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from concord.alexmod import (
    AlexModule,
    Submodule,
    isotropy,
    module_from_seifert,
)
from concord.certified import Interval
from concord.construction import (
    BaseKnot,
    ConnectedSum,
    ConstructionError,
    CurveSpec,
    Infect,
    Multiple,
    Node,
    fold,
)
from concord.laurent import conjugate_normalized, memo
from concord.seifert import SeifertMatrix, rho0


class MissingAlexClass(Exception):
    """The curve has no Alexander-module class; supply alex_class (its
    image in the base's module) to evaluate metabelian kernels."""


_KIND_ORDER = {"rho0": 0, "rho1": 1, "cg": 2}


@dataclass(frozen=True)
class RhoAtom:
    kind: str
    label: str

    def __post_init__(self):
        if self.kind not in _KIND_ORDER:
            raise ValueError(f"unknown atom kind {self.kind!r}")

    def sort_key(self) -> tuple:
        return (_KIND_ORDER[self.kind], self.label)

    def __str__(self) -> str:
        if self.kind == "cg":
            return f"C({self.label})"
        return f"{self.kind}({self.label})"

    @classmethod
    def rho0(cls, label: str) -> "RhoAtom":
        return cls("rho0", label)

    @classmethod
    def rho1(cls, label: str) -> "RhoAtom":
        return cls("rho1", label)

    @classmethod
    def cg(cls, label: str) -> "RhoAtom":
        return cls("cg", label)

    @classmethod
    def parse(cls, text: str) -> "RhoAtom":
        text = text.strip()
        for prefix, kind in (("rho0(", "rho0"), ("rho1(", "rho1"), ("C(", "cg")):
            if text.startswith(prefix) and text.endswith(")"):
                return cls(kind, text[len(prefix):-1].strip())
        raise ValueError(f"cannot parse atom {text!r}")


@dataclass(frozen=True)
class RhoTerm:
    """constant + sum of coeff * atom, in canonical form."""

    constant: Fraction = Fraction(0)
    coeffs: Tuple[Tuple[RhoAtom, Fraction], ...] = ()

    @classmethod
    def make(cls, constant=0, coeffs: Optional[Dict[RhoAtom, Fraction]] = None) -> "RhoTerm":
        clean = []
        if coeffs:
            for a, c in coeffs.items():
                c = Fraction(c)
                if c:
                    clean.append((a, c))
        clean.sort(key=lambda ac: ac[0].sort_key())
        return cls(Fraction(constant), tuple(clean))

    @classmethod
    def zero(cls) -> "RhoTerm":
        return cls()

    @classmethod
    def of_atom(cls, atom: RhoAtom, coeff=1) -> "RhoTerm":
        return cls.make(0, {atom: Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.constant and not self.coeffs

    def atoms(self) -> Tuple[RhoAtom, ...]:
        return tuple(a for a, _ in self.coeffs)

    def coeff(self, atom: RhoAtom) -> Fraction:
        for a, c in self.coeffs:
            if a == atom:
                return c
        return Fraction(0)

    def __add__(self, other: "RhoTerm") -> "RhoTerm":
        d = dict(self.coeffs)
        for a, c in other.coeffs:
            d[a] = d.get(a, Fraction(0)) + c
        return RhoTerm.make(self.constant + other.constant, d)

    def __sub__(self, other: "RhoTerm") -> "RhoTerm":
        return self + other.scale(-1)

    def __neg__(self) -> "RhoTerm":
        return self.scale(-1)

    def scale(self, c) -> "RhoTerm":
        c = Fraction(c)
        return RhoTerm.make(
            self.constant * c, {a: v * c for a, v in self.coeffs}
        )

    def drop_atom(self, atom: RhoAtom) -> "RhoTerm":
        return RhoTerm.make(
            self.constant, {a: c for a, c in self.coeffs if a != atom}
        )

    def evaluate(self, values: Dict[RhoAtom, Interval]) -> Optional[Interval]:
        """Certified numeric value, or None if some atom has no value."""
        total = Interval.point(self.constant)
        for a, c in self.coeffs:
            v = values.get(a)
            if v is None:
                return None
            total = total + v.scale(c)
        return total

    def to_json(self) -> dict:
        return {
            "constant": [self.constant.numerator, self.constant.denominator],
            "coeffs": [
                [str(a), [c.numerator, c.denominator]] for a, c in self.coeffs
            ],
        }

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts: List[str] = []

        def fmt_coeff(c: Fraction) -> str:
            if c.denominator == 1:
                return str(abs(c))
            return f"{abs(c.numerator)}/{c.denominator}"

        for a, c in self.coeffs:
            mag = fmt_coeff(c)
            body = str(a) if mag == "1" else f"{mag}*{a}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        if self.constant:
            mag = fmt_coeff(self.constant)
            if not parts:
                parts.append(mag if self.constant > 0 else f"-{mag}")
            else:
                parts.append(f"+ {mag}" if self.constant > 0 else f"- {mag}")
        return " ".join(parts)


# -- axioms and nonvanishing ---------------------------------------------------------


@dataclass(frozen=True)
class Axioms:
    """User-declared facts: each group lists atoms that form a Q-linearly
    independent family of reals (a singleton group is just 'nonzero').
    Atoms of different groups carry no declared relation."""

    groups: Tuple[frozenset, ...] = ()

    @classmethod
    def parse(cls, groups: Iterable[Iterable[str]]) -> "Axioms":
        return cls(tuple(
            frozenset(RhoAtom.parse(name) for name in group) for group in groups
        ))

    def covers(self, *terms: RhoTerm) -> bool:
        """True when one declared group holds every atom of the terms."""
        atoms = {a for t in terms for a in t.atoms()}
        return any(atoms <= group for group in self.groups)


def provably_nonzero(
    term: RhoTerm,
    axioms: Axioms,
    values: Optional[Dict[RhoAtom, Interval]] = None,
) -> Tuple[bool, Optional[str]]:
    """Whether the term is certified to be a nonzero real, and by which
    route ("exact", "numeric", or "axiom")."""
    if not term.coeffs:
        return (not term.is_zero(), "exact" if not term.is_zero() else None)
    if values is not None:
        num = term.evaluate(values)
        if num is not None and num.excludes_zero():
            return True, "numeric"
    if term.constant == 0 and axioms.covers(term):
        return True, "axiom"
    return False, None


# -- structural rho0 of a construction tree ------------------------------------------


def rho0_atom_term(node: Node, registry: Optional[Dict[str, BaseKnot]] = None) -> RhoTerm:
    """The rho0 of a knot-valued tree as a symbolic term.

    Winding-number-zero infection does not change abelian invariants, so
    the term descends to the base pattern; connected sums add.  Slice
    bases contribute exactly zero.  Every base knot of the tree is entered
    in `registry` (see `collect_knots`)."""
    term = collect_knots(node, {} if registry is None else registry)
    if not isinstance(term, RhoTerm):
        raise ConstructionError(f"rho0 needs a knot-valued tree, got {type(term).__name__}")
    return term


def collect_knots(node: Node, registry: Dict[str, BaseKnot]) -> Union[RhoTerm, Node]:
    """Enter every base knot of a tree in `registry` (one name
    for two different knots is an error), in the same pass that works out
    the tree's rho0 term: the value returned, or the node that has none
    (a link) when the tree is not knot-valued."""

    def visit(n: Node, sub) -> Union[RhoTerm, Node]:
        if isinstance(n, BaseKnot):
            if registry.setdefault(n.name, n) != n:
                raise ConstructionError(f"knot name {n.name!r} used inconsistently")
            return RhoTerm.zero() if n.is_slice() else RhoTerm.of_atom(RhoAtom.rho0(n.name))
        if isinstance(n, Infect):
            term = sub(n.parent)
            for i in n.infectants:
                sub(i)
            return term
        if isinstance(n, ConnectedSum):
            terms = [sub(p) for p in n.parts]
            for term in terms:
                if not isinstance(term, RhoTerm):
                    return term
            return sum(terms, RhoTerm.zero())
        if isinstance(n, Multiple):
            sub(n.parent)
        return n

    return fold(node, visit)


def resolve_rho0_values(
    registry: Dict[str, BaseKnot], tol: Fraction = Fraction(1, 10**9)
) -> Dict[RhoAtom, Interval]:
    """Certified values for every rho0 atom whose knot has a Seifert
    matrix."""
    return {
        RhoAtom.rho0(name): _rho0_value(knot.seifert, tol)
        for name, knot in registry.items()
        if knot.seifert is not None
    }


@memo
def _rho0_value(seifert: SeifertMatrix, tol: Fraction) -> Interval:
    return rho0(seifert, tol)


# -- base-term annotation rules -----------------------------------------------------


def _conjugate_swapped_pair(module: AlexModule) -> bool:
    """Cyclic module whose order is a product of two distinct irreducibles
    swapped by t -> 1/t (the ribbon + amphichiral vanishing pattern)."""
    if not module.is_cyclic() or module.is_zero_module():
        return False
    comps = module.isotypic_components()
    if len(comps) != 2:
        return False
    p, q = comps[0].order, comps[1].order
    return p != q and conjugate_normalized(p) == q


def base_first_order_terms(
    base: BaseKnot, module: AlexModule, submodules: Sequence[Submodule]
) -> Tuple[List[RhoTerm], List[str]]:
    """The base knot's own contribution rho(M_base, phi_P) per isotropic P,
    after the annotation-driven vanishing rules."""
    notes: List[str] = []
    all_zero = False
    if base.is_slice() and "amphichiral" in base.flags and _conjugate_swapped_pair(module):
        all_zero = True
        notes.append(
            f"{base.name}: ribbon + amphichiral + conjugate-swapped irreducible "
            "pair; every first-order signature of the base vanishes"
        )
    terms: List[RhoTerm] = []
    for idx, sub in enumerate(submodules):
        if all_zero:
            terms.append(RhoTerm.zero())
            continue
        if sub.is_zero():
            if "amphichiral" in base.flags:
                terms.append(RhoTerm.zero())
                notes.append(
                    f"{base.name}: amphichiral, so the zero-submodule term dies "
                    "(its kernel is characteristic)"
                )
            else:
                terms.append(RhoTerm.of_atom(RhoAtom.rho1(base.name)))
            continue
        if base.is_slice() and "ribbon_kernels_all" in base.flags:
            terms.append(RhoTerm.zero())
            notes.append(
                f"{base.name}: P{idx} is a ribbon-disk kernel; the quotient "
                "extends over the disk exterior, so the base term vanishes"
            )
        else:
            terms.append(RhoTerm.of_atom(RhoAtom.rho1(f"{base.name}|P{idx}")))
    return terms, notes


# -- first-order signature sets ------------------------------------------------------


@dataclass
class FirstOrderSignatures:
    """The set of first-order signatures of a knot, one symbolic term per
    isotropic submodule of the base's Alexander module."""

    base: BaseKnot
    module: AlexModule
    submodules: List[Submodule]
    terms: List[RhoTerm]
    notes: Tuple[str, ...]
    registry: Dict[str, BaseKnot]
    incomplete: bool = False

    def term_strings(self) -> List[str]:
        return [str(t) for t in self.terms]

    def atom_values(self, tol: Fraction = Fraction(1, 10**9)) -> Dict[RhoAtom, Interval]:
        return resolve_rho0_values(self.registry, tol)


def first_order_signatures(node: Node) -> FirstOrderSignatures:
    """First-order signature set of a base knot or a single infection over
    one.

    Curves must carry alex_class except at certified depth >= 2, where the
    contribution factors away below the metabelian level and is dropped
    (with a note)."""
    if isinstance(node, BaseKnot):
        base, curves, infectants = node, (), ()
    elif isinstance(node, Infect) and isinstance(node.parent, BaseKnot):
        base, curves, infectants = node.parent, node.curves, node.infectants
    else:
        raise ConstructionError(
            "first-order signatures are computed for a base knot or a single "
            "infection over one"
        )
    registry: Dict[str, BaseKnot] = {}
    collect_knots(node, registry)
    if base.is_opaque():
        term = RhoTerm.of_atom(RhoAtom.rho1(base.name))
        return FirstOrderSignatures(
            base=base,
            module=None,  # type: ignore[arg-type]
            submodules=[],
            terms=[term],
            notes=(
                f"{base.name}: opaque base, submodule lattice unavailable; only "
                "the zero-submodule term is listed",
            ),
            registry=registry,
            incomplete=True,
        )
    module = module_from_seifert(base.seifert)
    lattice, submodules = isotropy(module)
    base_terms, notes = base_first_order_terms(base, module, submodules)
    notes = list(notes)

    contributions: List[Tuple[CurveSpec, RhoTerm]] = []
    for curve, infectant in zip(curves, infectants):
        if curve.alex_class is None:
            depth, _status = curve.certificate.lower_depth()
            if depth >= 2:
                notes.append(
                    f"curve {curve.label!r}: no module class but certified depth "
                    f"{depth} >= 2; its contribution factors away at first order"
                )
                continue
            raise MissingAlexClass(
                f"curve {curve.label!r} carries no alex_class; supply its image "
                "in the base knot's Alexander module"
            )
        contributions.append((curve, rho0_atom_term(infectant, registry)))

    # an infectant adds its term where the quotient indexed by P keeps the
    # curve's class, that is, where the class lies outside P
    classes = [(module.element(list(c.alex_class)), term) for c, term in contributions]
    terms = [
        sum((term for x, term in classes if not lattice.membership(sub, x)), base_term)
        for sub, base_term in zip(submodules, base_terms)
    ]
    return FirstOrderSignatures(
        base=base,
        module=module,
        submodules=list(submodules),
        terms=terms,
        notes=tuple(notes),
        registry=registry,
    )
