"""concord: exact computation of knot/link concordance obstructions.

The package computes, in exact rational arithmetic, the desk-scale
obstruction theory for satellite/doubling constructions: Alexander
polynomials and modules from Seifert matrices, Levine signature functions
and their circle integrals with certified error bounds, Blanchfield
isotropy lattices, free-group derived-series depths of doubling curves,
and symbolic first-order signature sets feeding slice/solvability
verdicts.

`import concord` loads no layer.  Each name below is imported from its
home module on first use (PEP 562), so a process compiles only the layers
it reaches.  `concord.seifert` and the other layers resolve the same way.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "laurent": ("LaurentPoly", "Rational", "RationalFunctionModPoly", "factor",
                "gcd", "normalize"),
    "certified": ("Interval",),
    "seifert": ("SeifertMatrix", "SignatureFunction", "alexander_poly", "arf",
                "connected_sum", "mirror", "rho0", "signature_at",
                "signature_function"),
    "alexmod": ("AlexModule", "BlanchfieldForm", "ModElement", "Submodule",
                "SubmoduleLattice", "UnsupportedModule", "blanchfield_form",
                "isotropic_submodules", "module_from_seifert", "replay_columns",
                "smith_normal_form", "support"),
    "freegroup": ("DepthResult", "FreeWord", "ResourceCapExceeded", "WreathElement",
                  "bing_curve", "derived_depth", "parse_word"),
    "construction": ("AssumedDepth", "BaseKnot", "BingDouble", "ConnectedSum",
                     "ConstructionError", "CurveSpec", "Infect", "LinkingZeroDepth",
                     "Multiple", "RDouble", "SliceLinkAssumed", "SolvDegree",
                     "TrivialLink", "WordDepth", "expand_clones", "operator_pattern",
                     "rdouble_tower", "solvability_upper_bound"),
    "rhocalc": ("Axioms", "FirstOrderSignatures", "MissingAlexClass", "RhoAtom",
                "RhoTerm", "first_order_signatures", "provably_nonzero"),
    "verdict": ("Verdict", "bing_obstruction", "doubling_operator_verdict",
                "infection_obstruction", "verdict_for"),
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in names}
# the home modules, and the two that they share, resolve as attributes
_LAYERS = {*_EXPORTS, "realroots", "catalog"}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _LAYERS:
        return importlib.import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
