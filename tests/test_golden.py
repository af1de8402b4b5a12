"""Every record of tests/golden/outputs.json (see tests/golden/make.py)
gives the same exit code, stdout and stderr today."""

import importlib.util
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))

# every (rule, conclusion) pair the verdict engine can reach: the slice
# and doubling rules conclude at most conditionally
REACHABLE = {
    ("bing-doubles-first-order", c)
    for c in ("NOT_SLICE", "NOT_SLICE_CONDITIONAL", "INCONCLUSIVE")
} | {
    ("trivial-ambient-infection-first-order", c)
    for c in ("NOT_SLICE", "NOT_SLICE_CONDITIONAL", "INCONCLUSIVE")
} | {
    (rule, c)
    for rule in ("slice-ambient-infection-bound", "iterated-doubling-infinite-order")
    for c in ("NOT_SLICE_CONDITIONAL", "INCONCLUSIVE")
}


def _make():
    spec = importlib.util.spec_from_file_location(
        "golden_make", os.path.join(HERE, "golden", "make.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _golden():
    with open(os.path.join(HERE, "golden", "outputs.json")) as fh:
        return json.load(fh)


def test_records_reproduce():
    golden = _golden()
    want = golden["records"]
    got = _make().records(golden["documents"], [(r["doc"], r["argv"]) for r in want])
    changed = [w["argv"] for w, g in zip(want, got) if w != g]
    assert not changed, f"{len(changed)} of {len(want)} records changed: {changed[:10]}"


def test_records_reach_every_rule_and_conclusion():
    seen = set()
    for r in _golden()["records"]:
        if "--json" in r["argv"] and "verdict" in r["argv"] and r["exit"] != 1:
            v = json.loads(r["stdout_head"])
            seen.add((v["rule"], v["conclusion"]))
    assert seen == REACHABLE
