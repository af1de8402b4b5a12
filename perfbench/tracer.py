"""Per-layer spans recorded from outside the program.

The tracer replaces each listed public function or method of concord with a
wrapper in every concord module that binds it, so calls made through any
import path are seen.  A span's self time is its duration minus the time
of the traced spans it caused; spans are kept aggregated in memory (self
time, call count, and call counts per parent) and written out at the end.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Tuple

# (module, attribute path inside the module, metric stem)
TARGETS: List[Tuple[str, str, str]] = [
    ("laurent", "factor", "factor"),
    ("laurent", "gcd", "gcd"),
    ("laurent", "invert_mod", "invert_mod"),
    ("laurent", "reduce_mod", "reduce_mod"),
    ("laurent", "exact_div", "exact_div"),
    ("laurent", "LaurentPoly.__mul__", "LaurentPoly.mul"),
    ("alexmod", "module_from_seifert", "module_from_seifert"),
    ("alexmod", "smith_normal_form", "smith_normal_form"),
    ("alexmod", "BlanchfieldForm.__init__", "BlanchfieldForm.init"),
    ("alexmod", "BlanchfieldForm.pairing", "BlanchfieldForm.pairing"),
    ("alexmod", "SubmoduleLattice.isotropic", "SubmoduleLattice.isotropic"),
    ("alexmod", "AlexModule.isotypic_components", "AlexModule.isotypic_components"),
    ("seifert", "alexander_poly", "alexander_poly"),
    ("seifert", "signature_function", "signature_function"),
    ("seifert", "signature_at", "signature_at"),
    ("seifert", "SignatureFunction.integrate", "SignatureFunction.integrate"),
    ("seifert", "rho0", "rho0"),
    ("realroots", "isolate_roots", "isolate_roots"),
    ("realroots", "sturm_chain", "sturm_chain"),
    ("realroots", "squarefree", "squarefree"),
    ("realroots", "IsolatedRoot.refine", "IsolatedRoot.refine"),
    ("certified", "pi_interval", "pi_interval"),
    ("certified", "acos_of_enclosure", "acos_of_enclosure"),
    ("freegroup", "derived_depth", "derived_depth"),
    ("freegroup", "evaluate_in_quotient", "evaluate_in_quotient"),
    ("freegroup", "bing_curve", "bing_curve"),
    ("construction", "normalize_tree", "normalize_tree"),
    ("construction", "solvability_upper_bound", "solvability_upper_bound"),
    ("construction", "component_count", "component_count"),
    ("construction", "tower_decomposition", "tower_decomposition"),
    ("construction", "expand_clones", "expand_clones"),
    ("rhocalc", "first_order_signatures", "first_order_signatures"),
    ("rhocalc", "rho0_atom_term", "rho0_atom_term"),
    ("rhocalc", "collect_knots", "collect_knots"),
    ("rhocalc", "resolve_rho0_values", "resolve_rho0_values"),
    ("verdict", "doubling_operator_verdict", "doubling_operator_verdict"),
    ("verdict", "bing_obstruction", "bing_obstruction"),
    ("verdict", "infection_obstruction", "infection_obstruction"),
    ("document", "load_document", "load_document"),
    ("document", "node_to_json", "node_to_json"),
]

SPAN_NAMES = [f"{mod}.{stem}" for mod, _, stem in TARGETS]


class Tracer:
    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.edges: Dict[Tuple[str, str], int] = defaultdict(int)
        self.enabled = True
        self.missing: List[str] = []
        self._stack: List[list] = []

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else "-"
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                tracer.self_s[name] += dt - frame[1]
                tracer.calls[name] += 1
                tracer.edges[(parent, name)] += 1
                if stack:
                    stack[-1][1] += dt

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded concord module.  A target the
        program no longer has is listed in `missing` and reads 0."""
        import importlib

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "concord" or n.startswith("concord."))]
        for mod_name, path, stem in TARGETS:
            name = f"{mod_name}.{stem}"
            try:
                owner = importlib.import_module(f"concord.{mod_name}")
            except ImportError:
                self.missing.append(name)
                continue
            if "." in path:
                cls_name, meth = path.split(".", 1)
                cls = getattr(owner, cls_name, None)
                if cls is None or meth not in vars(cls):
                    self.missing.append(name)
                    continue
                setattr(cls, meth, self.wrap(name, vars(cls)[meth]))
                continue
            orig = getattr(owner, path, None)
            if orig is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, orig)
            for m in modules + [owner]:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "edges": [[p, c, n] for (p, c), n in sorted(self.edges.items())],
            "missing": self.missing,
        }
