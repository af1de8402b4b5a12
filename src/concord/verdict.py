"""The obstruction engine: turns construction trees into slice/solvability
verdicts with a full hypothesis ledger.

Rules (cited by tag in every verdict):

  bing-doubles-first-order
      if every first-order signature of K is nonzero then no iterated
      (every-component) double of K is slice, nor rationally solvable
      one-and-a-half levels above the doubling depth.
  trivial-ambient-infection-first-order
      infection of a trivial link along a curve of exact derived depth
      n >= 1: sliceness of the result forces some first-order signature
      of the infectant to vanish.
  slice-ambient-infection-bound
      same shape over an assumed slice link T: sliceness forces some
      first-order signature of the infectant below the uniform bound
      constant C(M_T).
  iterated-doubling-infinite-order
      a doubling tower over K fed into a depth-k infection is solvable at
      level n = k + height; if |rho0(K)| exceeds the bound constant of the
      capped ribbon ambient, no positive multiple is slice or rationally
      (n+1)-solvable.

A verdict concludes NOT_SLICE only when every hypothesis is certified;
axiom-routed nonvanishing is recorded in the provenance notes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from concord.alexmod import conjugate_keys, module_from_seifert, support
from concord.construction import (
    BaseKnot,
    ConstructionError,
    CurveSpec,
    Infect,
    Multiple,
    Node,
    SliceLinkAssumed,
    SolvDegree,
    TrivialLink,
    doubling_chain,
    operator_pattern,
    solvability_upper_bound,
    tower_decomposition,
)
from concord.rhocalc import (
    Axioms,
    FirstOrderSignatures,
    RhoAtom,
    RhoTerm,
    first_order_signatures,
    provably_nonzero,
)

RULE_BING = "bing-doubles-first-order"
RULE_INFECT_TRIVIAL = "trivial-ambient-infection-first-order"
RULE_INFECT_SLICE = "slice-ambient-infection-bound"
RULE_DOUBLING = "iterated-doubling-infinite-order"

NOT_SLICE = "NOT_SLICE"
NOT_SLICE_CONDITIONAL = "NOT_SLICE_CONDITIONAL"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class Hypothesis:
    name: str
    status: str  # certified | assumed | failed
    detail: str = ""

    def __post_init__(self):
        if self.status not in ("certified", "assumed", "failed"):
            raise ValueError(f"bad hypothesis status {self.status!r}")


@dataclass(frozen=True)
class NotInSet:
    """atom must avoid finitely many symbolic values."""

    atom: RhoAtom
    excluded: Tuple[RhoTerm, ...]

    def __str__(self) -> str:
        vals = ", ".join(str(t) for t in self.excluded)
        return f"{self.atom} not in {{{vals}}}"

    def to_json(self) -> dict:
        return {
            "type": "not_in_set",
            "atom": str(self.atom),
            "excluded": [str(t) for t in self.excluded],
        }


@dataclass(frozen=True)
class MinAbsAtLeast:
    """every listed value must reach the bound constant in absolute value."""

    label: str
    bound: RhoAtom

    def __str__(self) -> str:
        return f"min |{self.label}| >= {self.bound}"

    def to_json(self) -> dict:
        return {"type": "min_abs_at_least", "of": self.label, "bound": str(self.bound)}


@dataclass(frozen=True)
class AbsExceeds:
    """|atom| must exceed the bound constant."""

    atom: RhoAtom
    bound: RhoAtom

    def __str__(self) -> str:
        return f"|{self.atom}| > {self.bound}"

    def to_json(self) -> dict:
        return {"type": "abs_exceeds", "atom": str(self.atom), "bound": str(self.bound)}


Condition = Union[NotInSet, MinAbsAtLeast, AbsExceeds]


@dataclass(frozen=True)
class Verdict:
    conclusion: str
    rule: str
    hypotheses: Tuple[Hypothesis, ...] = ()
    condition: Optional[Condition] = None
    solvable_bound: Optional[SolvDegree] = None
    fos_terms: Tuple[str, ...] = ()
    notes: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.conclusion == NOT_SLICE:
            bad = [h for h in self.hypotheses if h.status != "certified"]
            if bad:
                raise AssertionError(
                    f"unconditional verdict with uncertified hypotheses: {bad}"
                )
        if self.conclusion == NOT_SLICE_CONDITIONAL and self.condition is None:
            raise AssertionError("conditional verdict needs its residual predicate")

    def all_certified(self) -> bool:
        return all(h.status == "certified" for h in self.hypotheses)

    def failed_hypotheses(self) -> List[Hypothesis]:
        return [h for h in self.hypotheses if h.status == "failed"]

    def to_json(self) -> dict:
        out = {
            "conclusion": self.conclusion,
            "rule": self.rule,
            "hypotheses": [
                {"name": h.name, "status": h.status, "detail": h.detail}
                for h in self.hypotheses
            ],
            "condition": self.condition.to_json() if self.condition else None,
            "first_order_signatures": list(self.fos_terms),
            "notes": list(self.notes),
        }
        if self.solvable_bound is not None:
            out["solvable_upper_bound"] = self.solvable_bound.display()
            out["solvable_rational_only"] = self.solvable_bound.rational_only
        return out

    def transcript(self) -> str:
        lines = [f"conclusion: {self.conclusion}", f"rule: {self.rule}"]
        if self.solvable_bound is not None:
            lines.append(f"solvable upper bound: {self.solvable_bound}")
        if self.condition is not None:
            lines.append(f"condition: {self.condition}")
        if self.fos_terms:
            lines.append("first-order signatures: {" + ", ".join(self.fos_terms) + "}")
        for h in self.hypotheses:
            detail = f" ({h.detail})" if h.detail else ""
            lines.append(f"hypothesis [{h.status}]: {h.name}{detail}")
        for n in self.notes:
            lines.append(f"note: {n}")
        return "\n".join(lines)


# -- shared analysis -----------------------------------------------------------------


def _analyze_terms(
    fos: FirstOrderSignatures, axioms: Axioms
) -> Tuple[str, Optional[NotInSet], List[str]]:
    """What the first-order signature set concludes: NOT_SLICE when every
    term is certified nonzero, NOT_SLICE_CONDITIONAL with the residual
    predicate when the open terms solve for one shared rho0 atom, and
    INCONCLUSIVE when some term can vanish."""
    values = fos.atom_values()
    notes: List[str] = []
    open_terms: List[RhoTerm] = []
    for term in fos.terms:
        ok, route = provably_nonzero(term, axioms, values)
        if ok:
            notes.append(f"term {term} nonzero via {route}")
        elif term.is_zero():
            return INCONCLUSIVE, None, ["a first-order signature is identically zero"]
        else:
            open_terms.append(term)
    if not open_terms:
        return NOT_SLICE, None, notes
    # try to solve every open term for one shared rho0 atom
    shared = None
    for term in open_terms:
        rho0_atoms = [a for a in term.atoms() if a.kind == "rho0"]
        if len(rho0_atoms) != 1:
            return INCONCLUSIVE, None, notes + [
                f"term {term} not provably nonzero and not solvable for a single atom"
            ]
        if shared is None:
            shared = rho0_atoms[0]
        elif shared != rho0_atoms[0]:
            return INCONCLUSIVE, None, notes + [
                "open terms involve different atoms; no single residual predicate"
            ]
    excluded: List[RhoTerm] = []
    for term in open_terms:
        c = term.coeff(shared)
        rest = term.drop_atom(shared)
        val = rest.scale(Fraction(-1) / c)
        if val not in excluded:
            excluded.append(val)
    excluded.sort(key=lambda t: (len(t.coeffs), str(t)))
    cond = NotInSet(shared, tuple(excluded))
    return NOT_SLICE_CONDITIONAL, cond, notes


def _certificate_hypothesis(curve: CurveSpec) -> Hypothesis:
    cert = curve.certificate
    exact = cert.exact_depth()
    if exact is None:
        return Hypothesis(
            f"curve {curve.label!r} at exact derived depth",
            "failed",
            f"only a lower bound {cert.lower_depth()[0]} is certified",
        )
    depth, how = exact
    if depth < 1:
        return Hypothesis(
            f"curve {curve.label!r} at derived depth >= 1",
            "failed",
            f"depth {depth}",
        )
    st = "certified" if how == "certified" else "assumed"
    return Hypothesis(
        f"curve {curve.label!r} at exact derived depth {depth}",
        st,
        f"certificate: {type(cert).__name__}",
    )


# -- dispatch ---------------------------------------------------------------------------


def verdict_for(node: Node, axioms: Axioms = Axioms(),
                sharp_constant: bool = False) -> Verdict:
    """The verdict of the rule whose shape `node` has: a doubling tower (or
    a multiple) fed into a single-curve infection of a trivial or
    assumed-slice link takes the doubling rule, any other such infection
    the infection rule, and everything else the Bing rule.  The sharp
    constant belongs to the doubling rule alone; asking for it elsewhere
    is an error, not a flag that goes unread."""
    probe = node.parent if isinstance(node, Multiple) else node
    if _ambient_infection(probe) and (
        isinstance(node, Multiple) or tower_decomposition(probe.infectants[0])[0] > 0
    ):
        return doubling_operator_verdict(node, axioms, sharp_constant=sharp_constant)
    if sharp_constant:
        raise ValueError(
            f"the sharp constant applies only to rule {RULE_DOUBLING}, whose shape "
            "is a doubling tower fed into a single-curve infection"
        )
    if _ambient_infection(node):
        return infection_obstruction(node, axioms)
    return bing_obstruction(node, axioms)


def _ambient_infection(node: Node) -> bool:
    """Whether `node` is a single-curve infection of a trivial or
    assumed-slice link: the shape both infection rules start from."""
    return (
        isinstance(node, Infect)
        and isinstance(node.parent, (TrivialLink, SliceLinkAssumed))
        and len(node.curves) == 1
    )


# -- verdict: iterated doubles of a knot ------------------------------------------------


def bing_obstruction(knot: Node, axioms: Axioms = Axioms()) -> Verdict:
    """Obstruction for every iterated (all-component) double of the knot,
    at any depth: slice (or rationally solvable 1.5 above the depth)
    forces a vanishing first-order signature."""
    fos = first_order_signatures(knot)
    if fos.incomplete:
        hyp = Hypothesis(
            "first-order signature set complete",
            "failed",
            "opaque base: the submodule lattice is unavailable",
        )
        conclusion, cond, notes = INCONCLUSIVE, None, []
    else:
        hyp = Hypothesis(
            "first-order signature set complete",
            "certified",
            f"{len(fos.terms)} isotropic submodules enumerated",
        )
        conclusion, cond, notes = _analyze_terms(fos, axioms)
        if conclusion == INCONCLUSIVE:
            notes.append("a first-order signature can vanish; no obstruction")
    return Verdict(
        conclusion, RULE_BING, (hyp,), condition=cond,
        fos_terms=tuple(fos.term_strings()), notes=fos.notes + tuple(notes),
    )


# -- verdict: single infection of a trivial/slice link ----------------------------------


def infection_obstruction(node: Node, axioms: Axioms = Axioms()) -> Verdict:
    if not _ambient_infection(node):
        raise ConstructionError(
            "infection obstruction expects a single-curve infection of a "
            "trivial or assumed-slice link"
        )
    ambient = node.parent
    curve = node.curves[0]
    infectant = node.infectants[0]
    trivial = isinstance(ambient, TrivialLink)
    rule = RULE_INFECT_TRIVIAL if trivial else RULE_INFECT_SLICE

    hyps: List[Hypothesis] = []
    if trivial:
        hyps.append(Hypothesis("ambient link is slice", "certified", "trivial link"))
    else:
        hyps.append(
            Hypothesis("ambient link is slice", "assumed", f"label {ambient.label!r}")
        )
    depth_hyp = _certificate_hypothesis(curve)
    hyps.append(depth_hyp)

    fos = first_order_signatures(infectant)
    if fos.incomplete:
        hyps.append(
            Hypothesis("first-order signature set complete", "failed", "opaque base")
        )
    else:
        hyps.append(
            Hypothesis(
                "first-order signature set complete", "certified",
                f"{len(fos.terms)} isotropic submodules",
            )
        )
    if depth_hyp.status == "failed" or fos.incomplete:
        conclusion, cond, notes = INCONCLUSIVE, None, []
    else:
        conclusion, cond, notes = _analyze_terms(fos, axioms)
        if conclusion == INCONCLUSIVE:
            notes.append("a first-order signature can vanish" if trivial
                         else "a first-order signature vanishes outright")
        elif not trivial:
            # slice ambient: the obstruction survives only above the bound constant
            conclusion = NOT_SLICE_CONDITIONAL
            cond = MinAbsAtLeast(
                f"FOS({_infectant_label(infectant)})", RhoAtom.cg(f"M({ambient.label})")
            )
    return Verdict(
        conclusion, rule, tuple(hyps), condition=cond,
        fos_terms=tuple(fos.term_strings()), notes=fos.notes + tuple(notes),
    )


def _infectant_label(node: Node) -> str:
    if isinstance(node, BaseKnot):
        return node.name
    return type(node).__name__


# -- verdict: doubling towers -----------------------------------------------------------


def doubling_operator_verdict(tree: Node, axioms: Axioms = Axioms(),
                              sharp_constant: bool = False) -> Verdict:
    """Solvability level and conditional infinite-order verdict for an
    iterated generalized doubling applied to a knot, fed into a depth-k
    infection of a trivial (or assumed-slice) link.  Multiples of the
    result inherit the same verdict."""
    node = tree
    multiple = 1
    if isinstance(node, Multiple):
        multiple = node.count
        node = node.parent
    if not _ambient_infection(node):
        raise ConstructionError(
            "doubling verdict expects (a multiple of) a single-curve infection "
            "of a trivial or assumed-slice link by a doubling tower"
        )
    ambient = node.parent
    curve = node.curves[0]
    tower = node.infectants[0]
    trivial = isinstance(ambient, TrivialLink)
    ambient_label = "T" if trivial else ambient.label

    hyps: List[Hypothesis] = []
    notes: List[str] = []
    hyps.append(
        Hypothesis(
            "ambient link is slice",
            "certified" if trivial else "assumed",
            "trivial link" if trivial else f"label {ambient_label!r}",
        )
    )
    depth_hyp = _certificate_hypothesis(curve)
    hyps.append(depth_hyp)

    levels, terminal = doubling_chain(tower)
    if not isinstance(terminal, BaseKnot):
        raise ConstructionError("doubling tower must end in a base knot")

    pairing_failed = False
    pairings: Dict[tuple, Tuple[str, str]] = {}   # one computation per distinct operator
    for j, level in enumerate(levels, start=1):
        op_base, op_curves = level.parent, level.curves
        if op_base.is_slice():
            hyps.append(
                Hypothesis(
                    f"operator level {j}: base {op_base.name!r} is slice",
                    "certified" if "ribbon" in op_base.flags else "assumed",
                )
            )
        else:
            hyps.append(
                Hypothesis(
                    f"operator level {j}: base {op_base.name!r} is slice", "failed"
                )
            )
        key = (op_base.seifert, tuple(c.alex_class for c in op_curves))
        if key not in pairings:
            pairings[key] = _pairing_status(op_base, op_curves)
        status, reason = pairings[key]
        hyps.append(Hypothesis(
            f"operator level {j}: curve classes pair nontrivially", status, reason))
        pairing_failed = pairing_failed or status == "failed"

    # Arf gate on the terminal knot
    if terminal.seifert is not None:
        from concord.seifert import arf

        arf_ok = arf(terminal.seifert) == 0
        hyps.append(
            Hypothesis(
                f"Arf({terminal.name}) = 0",
                "certified" if arf_ok else "failed",
                "determinant criterion",
            )
        )
    else:
        arf_ok = "arf_zero" in terminal.flags
        hyps.append(
            Hypothesis(
                f"Arf({terminal.name}) = 0",
                "assumed" if arf_ok else "failed",
                "annotation" if arf_ok else "no Seifert data and no annotation",
            )
        )

    bound_deg = solvability_upper_bound(tree)
    k_depth = curve.certificate.lower_depth()[0]
    if bound_deg.level is not None and arf_ok:
        expect = Fraction(k_depth + len(levels))
        assert bound_deg.level == expect, (bound_deg.level, expect)
    if not arf_ok and bound_deg.level is not None:
        bound_deg = SolvDegree(
            level=bound_deg.level, rational_only=True, assumed=bound_deg.assumed,
            notes=bound_deg.notes + (
                "Arf gate failed: the level is only rationally certified",
            ),
        )
        notes.append("without the Arf gate the tower is only rationally solvable")

    if pairing_failed or any(h.status == "failed" for h in hyps if "slice" in h.name):
        return Verdict(
            INCONCLUSIVE, RULE_DOUBLING, tuple(hyps),
            solvable_bound=bound_deg,
            notes=tuple(notes) + ("an operator-level hypothesis failed",),
        )
    if depth_hyp.status == "failed":
        return Verdict(
            INCONCLUSIVE, RULE_DOUBLING, tuple(hyps), solvable_bound=bound_deg,
            notes=tuple(notes),
        )

    if sharp_constant:
        bound_atom = RhoAtom.cg(f"M({operator_pattern()[0].name})")
        notes.append(
            "sharp constant: the bound depends only on the doubling pattern's "
            "zero surgery, independent of depth and height"
        )
    else:
        bound_atom = RhoAtom.cg(f"M({ambient_label};{curve.label};R{len(levels)})")
    cond = AbsExceeds(RhoAtom.rho0(terminal.name), bound_atom)
    notes.append(
        "under the condition, no positive multiple of the result is slice or "
        "even rationally solvable one level higher"
    )
    if multiple > 1:
        notes.append(f"verdict covers the given multiple ({multiple} copies)")
    return Verdict(
        NOT_SLICE_CONDITIONAL, RULE_DOUBLING, tuple(hyps), condition=cond,
        solvable_bound=bound_deg, notes=tuple(notes),
    )


def _pairing_status(base: BaseKnot, curves: Sequence[CurveSpec]) -> Tuple[str, str]:
    """(status, reason) of "the curve classes span a submodule on which the
    pairing is not identically zero" (certified by exact computation).

    On a squarefree module the Blanchfield form pairs the p-part only with
    the conj(p)-part, and nonsingularly (Levine, "Knot modules I", 1977);
    each part is one-dimensional over its field Q[t]/(p).  So some pair of
    the classes pairs to nonzero exactly when their joint support holds a
    component together with its conjugate partner, which may be the
    component itself.  Other modules raise `UnsupportedModule`."""
    if base.seifert is None:
        return "assumed", "opaque operator base"
    module = module_from_seifert(base.seifert)
    joint = frozenset().union(
        *(support(module, module.element(list(c.alex_class))) for c in curves))
    partner = conjugate_keys(module)
    if any(partner[k] in joint for k in joint):
        return "certified", "nonvanishing pair found"
    return "failed", "pairing vanishes on the span (isotropic curve set)"
