"""The in-process workloads: how each operation calls concord, and what of
its result is handed back for checking.

`build` turns the generated inputs into program objects, `run` is the
timed operation, and `describe` (untimed, with tracing paused) turns its
result into plain JSON for the checks.
"""

from __future__ import annotations

import base64
import json
import zlib
from fractions import Fraction
from typing import Any, Callable, Dict, Tuple

import gen

TOL = Fraction(1, 10**9)


def _rf(value) -> list:
    """A value of Q(t)/Q[t,t^-1] as [numerator, denominator] JSON."""
    return [value.num.to_json(), value.den.to_json()]


# -- algebra ----------------------------------------------------------------------


def algebra_build(op: dict):
    from concord.seifert import SeifertMatrix

    return SeifertMatrix(op["seifert"])


def algebra_run(v):
    from concord.alexmod import blanchfield_form, isotropic_submodules, module_from_seifert
    from concord.seifert import alexander_poly

    delta = alexander_poly(v)
    module = module_from_seifert(v)
    form = blanchfield_form(module)
    subs = isotropic_submodules(module, form)
    return delta, module, form, subs


def algebra_describe(v, result) -> dict:
    delta, module, form, subs = result
    comps = module.isotypic_components()
    index = {c.key(): i for i, c in enumerate(comps)}
    return {
        "delta": delta.to_json(),
        "orders": [d.to_json() for d in module.orders],
        "gram": [[_rf(x) for x in row] for row in form.gram],
        "components": [c.order.to_json() for c in comps],
        "pairs": [[_rf(form.pairing(a.generator, b.generator)) for b in comps] for a in comps],
        "isotropic": [sorted(index[k] for k in s.component_keys) for s in subs],
    }


# -- signature ----------------------------------------------------------------------


def signature_build(op: dict):
    from concord.seifert import SeifertMatrix

    return SeifertMatrix(op["seifert"])


def signature_run(v):
    from concord.seifert import rho0, signature_function

    return signature_function(v), rho0(v, TOL)


def signature_describe(v, result) -> dict:
    sf, val = result
    mid, rad = val.midpoint, val.radius
    return {
        "values": list(sf.upper_values),
        "jumps": [[str(r.lo), str(r.hi)] for r in sf.upper_jumps],
        "mid": [str(mid.numerator), str(mid.denominator)],
        "radius": [str(rad.numerator), str(rad.denominator)],
    }


# -- towers --------------------------------------------------------------------------


class TowerCache:
    """Builds each tower once; its queries share the objects, as when a
    user loads a document and asks several questions of it."""

    def __init__(self) -> None:
        self.cache: Dict[str, Tuple[Any, Any, Any]] = {}

    def __call__(self, op: dict):
        name = op["name"]
        if name not in self.cache:
            self.cache[name] = make_tower(name, op["seifert"], op["word"], op["rank"],
                                          op["height"])
        knot, tower, tree = self.cache[name]
        return op["kind"], op.get("level", 1), op["height"], knot, tower, tree


def make_tower(name, seifert, word, rank, height):
    from concord.construction import (
        BaseKnot, CurveSpec, Infect, TrivialLink, WordDepth, rdouble_tower,
    )
    from concord.freegroup import FreeWord
    from concord.seifert import SeifertMatrix

    knot = BaseKnot(name, SeifertMatrix(seifert))
    curve = CurveSpec("alpha", WordDepth(FreeWord(rank, tuple(tuple(x) for x in word))))
    tower = rdouble_tower(knot, height)
    return knot, tower, Infect(TrivialLink(rank), (curve,), (tower,))


def towers_run(obj):
    from concord.construction import RDouble, expand_clones, solvability_upper_bound
    from concord.document import node_to_json
    from concord.rhocalc import first_order_signatures
    from concord.verdict import doubling_operator_verdict

    kind, level, _, knot, tower, tree = obj
    if kind == "solvable":
        return solvability_upper_bound(tree)
    if kind == "verdict":
        return doubling_operator_verdict(tree)
    if kind == "canon":
        return node_to_json(tree)
    if kind == "expand":
        return expand_clones(tower, level)
    if kind == "fos":
        return first_order_signatures(RDouble(knot))
    raise ValueError(f"unknown tower query {kind!r}")


def tower_shape(node) -> Tuple[int, str, bool]:
    """(levels, terminal knot name, both infectants identical at every
    level) of a normalized doubling tower, walked by the benchmark."""
    from concord.construction import BaseKnot, Infect

    levels, same = 0, True
    while isinstance(node, Infect):
        if not (isinstance(node.parent, BaseKnot) and node.parent.name == "nine46"):
            break
        same = same and len(node.infectants) == 2 and node.infectants[0] == node.infectants[1]
        levels += 1
        node = node.infectants[0]
    return levels, getattr(node, "name", type(node).__name__), same


def pack(tree: dict) -> str:
    """Canonical JSON doubles in size with each level (1.4 MB at height
    12), but it repeats itself: the worker holds it compressed."""
    text = json.dumps(tree, separators=(",", ":"))
    return base64.b64encode(zlib.compress(text.encode())).decode()


def unpack(packed: str) -> dict:
    return json.loads(zlib.decompress(base64.b64decode(packed)))


def json_tower_shape(node: dict):
    """(levels, terminal knot) of a doubling tower in canonical JSON, or
    None when some level's two infectants differ."""
    levels = 0
    while node.get("op") == "infect" and node["parent"].get("knot") == "nine46":
        inf = node["infectants"]
        if len(inf) != 2 or inf[0] != inf[1]:
            return None
        levels += 1
        node = inf[0]
    return [levels, node.get("knot")]


def towers_describe(obj, result) -> dict:
    kind = obj[0]
    if kind == "solvable":
        return {"display": result.display(), "rational": result.rational_only}
    if kind == "verdict":
        bound = result.solvable_bound
        return {"conclusion": result.conclusion, "condition": str(result.condition),
                "solvable": bound.display() if bound else None,
                "rational": bool(bound and bound.rational_only)}
    if kind == "canon":
        return {"json_z": pack(result)}
    if kind == "expand":
        infectants = result.infectants
        shapes = [tower_shape(i) for i in infectants]
        return {
            "infectants": len(infectants),
            "identical": all(i == infectants[0] for i in infectants),
            "curve_depths": [c.certificate.lower_depth()[0] for c in result.curves],
            "infectant_shape": list(shapes[0]) if shapes else None,
            "base_shape": list(tower_shape(result.parent)),
        }
    if kind == "fos":
        return {"terms": result.term_strings()}
    raise ValueError(kind)


# -- registry --------------------------------------------------------------------------


def workload(name: str) -> Tuple[Callable, Callable, Callable]:
    """(build, run, describe) for a workload; build is fresh per process."""
    if name == "algebra":
        return algebra_build, algebra_run, algebra_describe
    if name == "signature":
        return signature_build, signature_run, signature_describe
    if name == "towers":
        return TowerCache(), towers_run, towers_describe
    raise ValueError(f"not an in-process workload: {name}")


def warmup_op(name: str) -> dict:
    """One operation on an input outside the timed set."""
    if name in ("algebra", "signature"):
        return {"seifert": gen.WARMUP_KNOT}
    word, rank = gen.nested_commutator(1)
    return {"name": "W", "seifert": gen.WARMUP_TERMINAL, "word": word, "rank": rank,
            "height": 2, "kind": "verdict"}
