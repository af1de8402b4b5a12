"""The benchmark's per-layer tracer names concord functions by module and
attribute path (`perfbench/tracer.py:TARGETS`).  A target that no longer
resolves is traced as missing and its metrics read 0, so a change that
renames or deletes a traced layer must fail here instead."""

import importlib
import importlib.util
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

# deleted from the program; its target leaves the tracer with the next
# change to the benchmark
GONE = {("construction", "normalize_tree")}


def _targets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("mod_name, path, stem", _targets())
def test_target_resolves(mod_name, path, stem):
    owner = importlib.import_module(f"concord.{mod_name}")
    if "." in path:
        cls_name, meth = path.split(".", 1)
        found = meth in vars(getattr(owner, cls_name, object))
    else:
        found = callable(getattr(owner, path, None))
    if (mod_name, path) in GONE:
        assert not found, f"{mod_name}.{path} is back: drop it from GONE"
    else:
        assert found, f"traced layer {mod_name}.{path} no longer resolves"
