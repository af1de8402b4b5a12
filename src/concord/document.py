"""Input documents: named knots, independence axioms, construction trees.

A document is one self-describing JSON object; constructions are trees
and belong in a file, command-line flags only tune tolerances and caps.

    {
      "knots": {
        "K1": {"seifert": [[-1, 1], [0, -1]], "flags": {}},
        "mystery": {"opaque": true, "flags": {"arf_zero": true}}
      },
      "axioms": [["rho0(K1)", "rho1(nine46)"]],
      "builds": {
        "J2": {"op": "rdouble", "parent": {"op": "rdouble", "parent": "K1"}},
        "BD": {"op": "bing", "parent": "J2", "iterations": 2},
        "L":  {"op": "infect", "parent": {"op": "trivial_link", "components": 2},
               "curves": [{"label": "a", "word": "[x1,x2]"}],
               "infectants": ["J2"]}
      },
      "options": {"tol": "1e-9"}
    }

Build positions accept either an inline object or a string reference to a
named build, a named knot, or a built-in catalog knot.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import Dict, Optional, Tuple

from concord import catalog
from concord.construction import (
    AssumedDepth,
    BaseKnot,
    BingDouble,
    CloneDepth,
    ConnectedSum,
    CurveSpec,
    Infect,
    LinkingZeroDepth,
    Multiple,
    Node,
    RDouble,
    SliceLinkAssumed,
    TrivialLink,
    WordDepth,
    component_count,
    fold,
    tower_decomposition,
)
from concord.freegroup import derived_depth, parse_word
from concord.laurent import LaurentPoly
from concord.rhocalc import Axioms
from concord.seifert import SeifertMatrix


class DocumentError(Exception):
    pass


_KNOWN_FLAGS = {
    "ribbon", "slice", "amphichiral", "ribbon_kernels_all", "arf_zero",
}
# the fields each build op accepts, "op" included
_BUILD_FIELDS = {
    "base": {"op", "knot", "opaque", "flags"},
    "trivial_link": {"op", "components"},
    "slice_link": {"op", "label", "components"},
    "infect": {"op", "parent", "curves", "infectants"},
    "bing": {"op", "parent", "iterations"},
    "rdouble": {"op", "parent"},
    "sum": {"op", "parts"},
    "multiple": {"op", "parent", "count"},
}


def _expect(cond: bool, msg: str):
    if not cond:
        raise DocumentError(msg)


def _integer(spec: dict, key: str, where: str, default=None) -> int:
    """A field that must be a JSON integer (true and false are not)."""
    val = spec.get(key, default)
    _expect(type(val) is int, f"{where}: {key!r} must be an integer, got {val!r}")
    return val


class InputDocument:
    def __init__(self, data: dict):
        _expect(isinstance(data, dict), "document must be a JSON object")
        unknown = set(data) - {"knots", "axioms", "builds", "options"}
        _expect(not unknown, f"unknown document sections: {sorted(unknown)}")
        self._raw = data
        self.knots: Dict[str, BaseKnot] = {}
        self._parse_knots(data.get("knots", {}))
        self.axioms = self._parse_axioms(data.get("axioms", []))
        self.options = self._parse_options(data.get("options", {}))
        self._build_specs = data.get("builds", {})
        _expect(isinstance(self._build_specs, dict), "'builds' must be an object")
        self._built: Dict[str, Node] = {}
        for name in self._build_specs:
            self.build(name)

    # -- sections -------------------------------------------------------------

    def _parse_knots(self, section):
        _expect(isinstance(section, dict), "'knots' must be an object")
        for name, rec in section.items():
            _expect(isinstance(rec, dict), f"knot {name!r}: record must be an object")
            unknown = set(rec) - {"seifert", "flags", "opaque"}
            _expect(not unknown, f"knot {name!r}: unknown fields {sorted(unknown)}")
            flags_in = rec.get("flags", {})
            _expect(isinstance(flags_in, dict), f"knot {name!r}: flags must be an object")
            bad = set(flags_in) - _KNOWN_FLAGS
            _expect(not bad, f"knot {name!r}: unknown flags {sorted(bad)}")
            _expect(
                all(type(v) is bool for v in flags_in.values())
                and type(rec.get("opaque", False)) is bool,
                f"knot {name!r}: flag values and 'opaque' must be true or false",
            )
            flags = frozenset(k for k, v in flags_in.items() if v)
            if rec.get("opaque"):
                _expect(
                    "seifert" not in rec,
                    f"knot {name!r}: opaque records carry no Seifert matrix",
                )
                self.knots[name] = BaseKnot(name, None, flags)
                continue
            mat = rec.get("seifert")
            _expect(
                isinstance(mat, list),
                f"knot {name!r}: needs a Seifert matrix (or opaque: true)",
            )
            try:
                v = SeifertMatrix(mat, name=name)
            except (ValueError, TypeError) as e:
                raise DocumentError(f"knot {name!r}: {e}") from e
            self.knots[name] = BaseKnot(name, v, flags)

    def _parse_axioms(self, section) -> Axioms:
        _expect(isinstance(section, list), "'axioms' must be a list of atom groups")
        for group in section:
            _expect(
                isinstance(group, list) and all(isinstance(a, str) for a in group),
                "each axiom group is a list of atom strings like 'rho0(K1)'",
            )
        try:
            return Axioms.parse(section)
        except ValueError as e:
            raise DocumentError(f"axioms: {e}") from e

    def _parse_options(self, section) -> dict:
        _expect(isinstance(section, dict), "'options' must be an object")
        unknown = set(section) - {"tol"}
        _expect(not unknown, f"unknown options: {sorted(unknown)}")
        out = {"tol": Fraction(1, 10**9), "tol_text": "1e-9"}
        if "tol" in section:
            out["tol"] = parse_tolerance(section["tol"])
            out["tol_text"] = str(section["tol"])
        return out

    # -- knot / build resolution ---------------------------------------------------

    def knot(self, name: str) -> BaseKnot:
        if name in self.knots:
            return self.knots[name]
        try:
            catalog.get(name)
        except KeyError:
            raise DocumentError(
                f"unknown knot {name!r} (not in the document, not built in)"
            ) from None
        return BaseKnot.from_catalog(name)

    def build(self, name: str, _stack: Tuple[str, ...] = ()) -> Node:
        if name in self._built:
            return self._built[name]
        if name in _stack:
            raise DocumentError(
                f"circular build reference: {' -> '.join(_stack + (name,))}"
            )
        if name in self._build_specs:
            node = self._node(self._build_specs[name], _stack + (name,))
            self._built[name] = node
            return node
        return self.knot(name)

    def resolve(self, name: str) -> Node:
        """A named build, a named knot, or a built-in knot."""
        return self.build(name)

    def _node(self, spec, stack: Tuple[str, ...]) -> Node:
        if isinstance(spec, str):
            return self.build(spec, stack)
        _expect(isinstance(spec, dict), f"build node must be an object or name: {spec!r}")
        op = spec.get("op")
        _expect(
            op in _BUILD_FIELDS, f"unknown build op {op!r} (known: {sorted(_BUILD_FIELDS)})"
        )
        unknown = set(spec) - _BUILD_FIELDS[op]
        _expect(not unknown, f"'{op}': unknown fields {sorted(unknown)}")
        if op == "base":
            _expect("knot" in spec, "'base' needs a 'knot' name")
            knot = self.knot(spec["knot"])
            # `opaque` and `flags` are what serialization records; they
            # must be as serialization writes them for the named knot
            opaque, flags = knot.is_opaque(), sorted(knot.flags)
            _expect(
                spec.get("opaque", opaque) is opaque and spec.get("flags", flags) == flags,
                f"'base' {knot.name!r}: opaque/flags disagree with the knot "
                f"(opaque {opaque}, flags {flags})",
            )
            return knot
        if op == "trivial_link":
            _expect("components" in spec, "'trivial_link' needs 'components'")
            return TrivialLink(_integer(spec, "components", "'trivial_link'"))
        if op == "slice_link":
            _expect("components" in spec, "'slice_link' needs 'components'")
            return SliceLinkAssumed(
                str(spec.get("label", "T")), _integer(spec, "components", "'slice_link'")
            )
        if op == "bing":
            _expect("parent" in spec, "'bing' needs 'parent'")
            return BingDouble(
                self._node(spec["parent"], stack), _integer(spec, "iterations", "'bing'", 1)
            )
        if op == "rdouble":
            _expect("parent" in spec, "'rdouble' needs 'parent'")
            return RDouble(self._node(spec["parent"], stack))
        if op == "sum":
            _expect(
                isinstance(spec.get("parts"), list) and spec["parts"],
                "'sum' needs a nonempty 'parts' list",
            )
            return ConnectedSum(tuple(self._node(p, stack) for p in spec["parts"]))
        if op == "multiple":
            _expect("parent" in spec and "count" in spec, "'multiple' needs parent, count")
            return Multiple(
                self._node(spec["parent"], stack), _integer(spec, "count", "'multiple'")
            )
        # infect
        _expect("parent" in spec, "'infect' needs 'parent'")
        _expect(
            isinstance(spec.get("curves"), list) and spec["curves"],
            "'infect' needs a nonempty 'curves' list",
        )
        _expect(isinstance(spec.get("infectants"), list), "'infect' needs 'infectants'")
        parent = self._node(spec["parent"], stack)
        clone_depth = _clone_depth(parent, spec["curves"])
        curves = tuple(
            self._curve(c, i, parent, clone_depth) for i, c in enumerate(spec["curves"])
        )
        infectants = tuple(self._node(p, stack) for p in spec["infectants"])
        _expect(
            len(curves) == len(infectants),
            f"'infect': {len(curves)} curves vs {len(infectants)} infectants",
        )
        return Infect(parent, curves, infectants)

    def _curve(self, spec, index: int, parent: Node, clone_depth) -> CurveSpec:
        _expect(isinstance(spec, dict), f"curve #{index}: must be an object")
        unknown = set(spec) - {
            "label", "word", "assumed_depth", "alex_class", "lk_zero",
            "depth", "certificate",
        }
        _expect(not unknown, f"curve #{index}: unknown fields {sorted(unknown)}")
        label = str(spec.get("label", f"curve{index}"))
        _expect(
            spec.get("lk_zero", True) is True,
            f"curve {label!r}: infection requires linking number zero",
        )
        alex_class = None
        if "alex_class" in spec:
            raw = spec["alex_class"]
            _expect(isinstance(raw, list), f"curve {label!r}: alex_class is a list")
            try:
                alex_class = tuple(LaurentPoly.from_json(c) for c in raw)
            except (ValueError, TypeError, ZeroDivisionError) as e:
                raise DocumentError(f"curve {label!r}: bad alex_class: {e}") from e
        cert = self._certificate(spec, label, parent, alex_class, clone_depth)
        # `depth` and `certificate` are what serialization records; they
        # must agree with the certificate derived from the other fields
        if "certificate" in spec:
            _expect(
                spec["certificate"] == type(cert).__name__,
                f"curve {label!r}: certificate {spec['certificate']!r} disagrees "
                f"with the derived {type(cert).__name__}",
            )
        if "depth" in spec:
            derived = (
                _word_depth_str(cert) if isinstance(cert, WordDepth)
                else cert.lower_depth()[0]
            )
            _expect(
                str(spec["depth"]) == str(derived),
                f"curve {label!r}: depth {spec['depth']!r} disagrees with "
                f"the derived depth {derived}",
            )
        return CurveSpec(label, cert, alex_class)

    def _certificate(self, spec: dict, label: str, parent: Node, alex_class, clone_depth):
        if "word" in spec:
            _expect(
                "assumed_depth" not in spec,
                f"curve {label!r}: give either a word or an assumed depth",
            )
            rank = component_count(parent)
            try:
                return WordDepth(parse_word(str(spec["word"]), rank))
            except ValueError as e:
                raise DocumentError(f"curve {label!r}: {e}") from e
        if "assumed_depth" in spec:
            return AssumedDepth(_integer(spec, "assumed_depth", f"curve {label!r}"))
        if spec.get("certificate") == "CloneDepth":
            _expect(
                clone_depth is not None,
                f"curve {label!r}: a CloneDepth certificate needs an i-fold "
                f"doubling tower over the unknot infected along 2^i curves",
            )
            return CloneDepth(clone_depth)
        _expect(
            alex_class is not None,
            f"curve {label!r}: needs a word, an assumed_depth, or an alex_class",
        )
        return LinkingZeroDepth()


def _clone_depth(parent: Node, curves: list) -> Optional[int]:
    """The depth i of the clone curves of `parent` when it is the shape that
    `expand_clones` builds (an i-fold doubling tower over the unknot, i >= 1,
    infected along 2^i curves), else None.  Only worked out when some curve
    claims a CloneDepth certificate."""
    if not any(isinstance(c, dict) and c.get("certificate") == "CloneDepth" for c in curves):
        return None
    depth, terminal = tower_decomposition(parent)
    unknot = BaseKnot.from_catalog("unknot")
    if depth >= 1 and terminal == unknot and len(curves) == 2**depth:
        return depth
    return None


def parse_tolerance(val) -> Fraction:
    if isinstance(val, (int, float)):
        f = Fraction(str(val)) if isinstance(val, float) else Fraction(val)
    elif isinstance(val, str):
        try:
            f = _fraction_from_string(val)
        except ValueError as e:
            raise DocumentError(f"bad tolerance {val!r}: {e}") from e
    else:
        raise DocumentError(f"bad tolerance {val!r}")
    if f <= 0:
        raise DocumentError("tolerance must be positive")
    return f


def _fraction_from_string(s: str) -> Fraction:
    s = s.strip().lower()
    if "e" in s:
        mant, _, exp = s.partition("e")
        mant = mant or "1"
        return Fraction(mant) * Fraction(10) ** int(exp)
    return Fraction(s)


def load_document(path: Optional[str]) -> InputDocument:
    if path is None:
        return InputDocument({})
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise DocumentError(f"cannot read document: {e}") from e
    except json.JSONDecodeError as e:
        raise DocumentError(f"document is not valid JSON: {e}") from e
    except RecursionError as e:
        raise DocumentError(
            "document nests deeper than the JSON reader allows: about "
            f"{sys.getrecursionlimit()} levels, Python's recursion limit"
        ) from e
    return InputDocument(data)


# -- canonical tree serialization ------------------------------------------------


def node_to_json(node: Node) -> dict:
    """The canonical JSON tree.  A subtree shared in the DAG is one dict
    shared by its parents, so this is linear in the DAG's size; the text
    `json.dumps` writes from it is a tree and doubles per doubling level."""
    return fold(node, _node_json)


def _node_json(node: Node, sub) -> dict:
    if isinstance(node, BaseKnot):
        out = {"op": "base", "knot": node.name}
        if node.seifert is None:
            out["opaque"] = True
        if node.flags:
            out["flags"] = sorted(node.flags)
        return out
    if isinstance(node, TrivialLink):
        return {"op": "trivial_link", "components": node.components}
    if isinstance(node, SliceLinkAssumed):
        return {"op": "slice_link", "label": node.label, "components": node.components}
    if isinstance(node, Infect):
        return {
            "op": "infect",
            "parent": sub(node.parent),
            "curves": [_curve_json(c) for c in node.curves],
            "infectants": [sub(i) for i in node.infectants],
        }
    if isinstance(node, ConnectedSum):
        return {"op": "sum", "parts": [sub(p) for p in node.parts]}
    if isinstance(node, Multiple):
        return {"op": "multiple", "count": node.count, "parent": sub(node.parent)}
    raise TypeError(f"cannot serialize {node!r}")


def _curve_json(c: CurveSpec) -> dict:
    out: dict = {"label": c.label}
    cert = c.certificate
    if isinstance(cert, WordDepth):
        out["word"] = str(cert.word)
        out["depth"] = _word_depth_str(cert)
    elif isinstance(cert, AssumedDepth):
        out["assumed_depth"] = cert.depth
    else:
        out["depth"] = cert.lower_depth()[0]
        out["certificate"] = type(cert).__name__
    if c.alex_class is not None:
        out["alex_class"] = [p.to_json() for p in c.alex_class]
    return out


def _word_depth_str(cert: WordDepth) -> str:
    return str(derived_depth(cert.word))
