"""Cold start: which modules a fresh process loads, and the package's exports.

`import concord` loads no layer; each exported name is imported from its
home module on first use.  The module sets below are a deterministic
counter for the cost of a cold start: every module a process imports is
compiled (or read from the bytecode cache) before its first operation.
Each check runs in a fresh interpreter with `PYTHONPATH` at the source.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import concord

SRC = os.path.dirname(os.path.dirname(os.path.abspath(concord.__file__)))

SUBMODULES = ["alexmod", "catalog", "certified", "cli", "construction", "document",
              "freegroup", "laurent", "realroots", "rhocalc", "seifert", "verdict"]

# what `from concord.seifert import rho0` adds to `import concord`
SEIFERT_PATH = ["concord.certified", "concord.laurent", "concord.realroots", "concord.seifert"]

EXPORTS = [
    "AlexModule", "AssumedDepth", "Axioms", "BaseKnot", "BingDouble", "BlanchfieldForm",
    "ConnectedSum", "ConstructionError", "CurveSpec", "DepthResult", "FirstOrderSignatures",
    "FreeWord", "Infect", "Interval", "LaurentPoly", "LinkingZeroDepth", "MissingAlexClass",
    "ModElement", "Multiple", "RDouble", "Rational", "RationalFunctionModPoly",
    "ResourceCapExceeded", "RhoAtom", "RhoTerm", "SeifertMatrix", "SignatureFunction",
    "SliceLinkAssumed", "SolvDegree", "Submodule", "SubmoduleLattice", "TrivialLink",
    "UnsupportedModule", "Verdict", "WordDepth", "WreathElement", "alexander_poly", "arf",
    "bing_curve", "bing_obstruction", "blanchfield_form", "connected_sum",
    "derived_depth", "doubling_operator_verdict", "expand_clones", "factor",
    "first_order_signatures", "gcd", "infection_obstruction", "isotropic_submodules",
    "mirror", "module_from_seifert", "normalize", "operator_pattern", "parse_word",
    "provably_nonzero", "rdouble_tower", "replay_columns", "rho0", "signature_at",
    "signature_function", "smith_normal_form", "solvability_upper_bound", "support",
    "verdict_for",
]

# Prints, as JSON, the modules each step adds: concord's by name, plus
# whether dataclasses or inspect were loaded by then.
STEPS = """
import json, sys
def concord_modules():
    return {m for m in sys.modules if m == "concord" or m.startswith("concord.")}
steps, seen = [], concord_modules()
def step():
    global seen
    now = concord_modules()
    steps.append([sorted(now - seen), "dataclasses" in sys.modules, "inspect" in sys.modules])
    seen = now
import concord
step()
from concord.seifert import rho0
step()
assert concord.rho0 is rho0 and concord.seifert.realroots is concord.realroots
from concord.alexmod import module_from_seifert
step()
print(json.dumps(steps))
"""


def _start(code):
    return subprocess.Popen([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _finish(proc):
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    return out


@pytest.fixture(scope="module")
def fresh_processes():
    """Every fresh interpreter of this file, started at once and awaited
    together: the module-set steps, one first import per module, and
    attribute access to a layer straight after `import concord`."""
    procs = {"steps": _start(STEPS),
             "layer": _start("import concord; print(concord.seifert.rho0.__module__)")}
    for name in ["concord"] + [f"concord.{m}" for m in SUBMODULES]:
        procs[name] = _start(f"import {name}")
    outputs = {key: _finish(proc) for key, proc in procs.items()}
    outputs["steps"] = json.loads(outputs["steps"])
    return outputs


def test_submodule_list_is_complete():
    assert sorted(m.name for m in pkgutil.iter_modules(concord.__path__)) == SUBMODULES


def test_import_concord_loads_no_layer(fresh_processes):
    first, _, _ = fresh_processes["steps"]
    assert first == [["concord"], False, False]


def test_seifert_path_loads_four_modules_and_no_dataclasses(fresh_processes):
    _, second, _ = fresh_processes["steps"]
    assert second == [SEIFERT_PATH, False, False]


def test_alexmod_adds_only_itself(fresh_processes):
    _, _, third = fresh_processes["steps"]
    assert third[0] == ["concord.alexmod"]


@pytest.mark.parametrize("name", ["concord"] + [f"concord.{m}" for m in SUBMODULES])
def test_each_module_imports_first(fresh_processes, name):
    assert fresh_processes[name] == ""


def test_layer_attribute_after_bare_import(fresh_processes):
    assert fresh_processes["layer"].strip() == "concord.seifert"


class TestExports:
    def test_names_are_pinned(self):
        assert sorted(concord.__all__) == EXPORTS

    def test_each_name_is_its_home_modules_object(self):
        for name, home in concord._HOME.items():
            module = importlib.import_module(f"concord.{home}")
            assert getattr(concord, name) is getattr(module, name)
            assert vars(concord)[name] is getattr(module, name)  # cached on first use

    def test_star_import_and_dir(self):
        namespace = {}
        exec("from concord import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(EXPORTS)
        assert set(EXPORTS) <= set(dir(concord))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="nope"):
            concord.nope
        assert not hasattr(concord, "nope")

    def test_layers_resolve_as_attributes(self):
        for m in sorted(set(SUBMODULES) - {"cli", "document"}):
            assert getattr(concord, m) is sys.modules[f"concord.{m}"]
