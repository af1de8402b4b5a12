"""The benchmark's own quick test.

    python3 -m pytest -q perfbench/test_perfbench.py

Every workload runs one tiny round with its checks passing (the known
faults failing as expected), the traced run reports every per-layer
metric of BENCHMARK.json, and every check rejects a corrupted output.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inproc  # noqa: E402
import run  # noqa: E402

EXPECTED_FAULTS = {"algebra": 0, "signature": 1, "towers": 0}


@pytest.fixture(scope="module")
def tiny():
    """(job, result) of one tiny untraced round per workload."""
    out = {}
    for w in run.WORKLOADS:
        job = run.make_job(w, 3, 1, tiny=True)
        job.update(workload=w, mode="run", trace=False)
        out[w] = (job, run.run_worker(job, timeout=600))
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_round_passes_its_checks(tiny, workload):
    job, result = tiny[workload]
    problems = run.check_all(workload, job, result)
    failed = [i for i, p in enumerate(problems) if p]
    assert all(run.fault_of(job["ops"][i]) for i in failed), [problems[i] for i in failed]
    assert len(failed) == EXPECTED_FAULTS[workload]
    metrics = run.end_to_end(result["latencies"], 1, [result["setup_s"]],
                             result["peak_rss_kb"])
    assert all(m["value"] > 0 for m in metrics.values())


def test_command_output_and_trace():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    job = run.make_job("towers", 5, 1, tiny=True)
    out = run.measure("towers", 5, 1, job, trace=False)
    assert out["correct"] and out["attempted"] == 20 and out["failed"] == 0
    assert set(out["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    traced = run.measure("towers", 5, 1, job, trace=True)
    assert set(traced["metrics"]) == {m["name"] for m in bench["per_layer"]}
    assert traced["metrics"]["construction.normalize_tree.calls"]["value"] > 0
    again = run.measure("towers", 5, 1, job, trace=True)
    calls = {k: v["value"] for k, v in traced["metrics"].items() if k.endswith(".calls")}
    assert calls == {k: v["value"] for k, v in again["metrics"].items() if k.endswith(".calls")}


def rejects(workload, job, result, index, corrupt) -> bool:
    """Whether the checks flag op `index` once its output is corrupted."""
    bad = copy.deepcopy(result)
    corrupt(bad["outputs"][index])
    return bool(run.check_all(workload, job, bad)[index])


def bump(js, by=1):
    """Add `by` to the constant term of concord's polynomial JSON."""
    for e, c in js:
        if e == 0:
            c[0] += by * c[1]
            return
    js.append([0, [by, 1]])


ALGEBRA = {
    "delta": lambda o: bump(o["delta"]),
    "orders": lambda o: bump(o["orders"][0], 2),
    "gram": lambda o: o["gram"][0][0].__setitem__(0, [[0, [1, 1]]]) or
    o["gram"][0][0].__setitem__(1, [[1, [1, 1]], [0, [3, 1]]]),
    "components": lambda o: bump(o["components"][0]),
    "isotropic": lambda o: o["isotropic"].pop(),
}


@pytest.mark.parametrize("field", sorted(ALGEBRA))
def test_algebra_checks_reject(tiny, field):
    job, result = tiny["algebra"]
    assert all(rejects("algebra", job, result, i, ALGEBRA[field])
               for i in range(len(job["ops"])))


def test_signature_checks_reject(tiny):
    job, result = tiny["signature"]
    ops = job["ops"]
    torus = [i for i, op in enumerate(ops) if op.get("family") == "torus"]
    random_ = sorted(checks.riemann_subset(ops))
    shift = lambda o: o["mid"].__setitem__(0, str(int(o["mid"][0]) + int(o["mid"][1]) // 50))
    for i in torus + random_:
        assert rejects("signature", job, result, i, shift)
    for i in torus:
        assert rejects("signature", job, result, i, lambda o: o["jumps"].pop())
        assert rejects("signature", job, result, i, lambda o: o["values"].__setitem__(-1, 0))


def in_canon(edit):
    """Applies `edit` to the canonical JSON tree that the worker packed."""
    def corrupt(o):
        tree = inproc.unpack(o["json_z"])
        edit(tree)
        o["json_z"] = inproc.pack(tree)
    return corrupt


TOWERS = {
    "solvable": lambda o: o.__setitem__("display", "99"),
    "verdict": lambda o: o.__setitem__("condition", "|rho0(K)| > C(M(T;alpha;R0))"),
    "expand": lambda o: o.__setitem__("infectants", o["infectants"] + 1),
    "fos": lambda o: o["terms"].pop(),
    "canon": in_canon(lambda t: t["curves"][0].__setitem__("depth", "7")),
}


def test_towers_checks_reject(tiny):
    job, result = tiny["towers"]
    for i, op in enumerate(job["ops"]):
        assert rejects("towers", job, result, i, TOWERS[op["kind"]]), op["kind"]


def test_canon_round_trip_rejects_a_changed_tree(tiny):
    job, result = tiny["towers"]
    i = next(i for i, op in enumerate(job["ops"]) if op["kind"] == "canon")
    # the loader rebuilds 9_46 from the catalog, so its flags come back
    drop_flags = in_canon(lambda t: t["infectants"][0]["parent"].__setitem__("flags", []))
    assert rejects("towers", job, result, i, drop_flags)
    bad_field = in_canon(lambda t: t["infectants"][0]["curves"][0].__setitem__("x", 1))
    assert rejects("towers", job, result, i, bad_field)
