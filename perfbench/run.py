"""Benchmark of concord: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from its src/.  The
operation list is generated from the seed, its length from --seconds (so
two runs with the same arguments do identical work), and the list runs in
a fresh worker process as a closed loop with one caller.  Every output is
then checked against computations made apart from concord.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer spans and counts of a separate traced run, which is also
written to .perfbench/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(ROOT, "src"))  # the checks read canonical JSON back

import gen  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("algebra", "signature", "towers")
SETUP_SAMPLES = 5
OUT_DIR = os.path.join(ROOT, ".perfbench")


# Seconds of one round of each workload's mix on the reference machine, and
# the fewest rounds that make at least 100 operations.
PER_ROUND_S = {"algebra": 1.25, "signature": 15.0, "towers": 2.3}
MIN_ROUNDS = {"algebra": 5, "signature": 1, "towers": 3}


def rounds_for(workload: str, seconds: float) -> int:
    """Whole rounds of the workload's operation mix: about `seconds` of
    work on the reference machine, and never fewer than 100 operations,
    so that ten samples lie beyond the 90th percentile."""
    return max(MIN_ROUNDS[workload], round(seconds / PER_ROUND_S[workload]))


def make_job(workload: str, seed: int, rounds: int, tiny: bool = False) -> dict:
    """The run's operations; `tiny` shrinks each round (the quick test)."""
    if workload == "algebra":
        return {"ops": gen.algebra_ops(seed, rounds, mix=(1, 1, 1) if tiny else (8, 9, 3))}
    if workload == "signature":
        if tiny:
            return {"ops": gen.signature_ops(seed, rounds, mix=((1, 1, 1), (2, 1, 1)),
                                             torus_max=2)}
        return {"ops": gen.signature_ops(seed, rounds)}
    return {"ops": gen.towers_ops(seed, rounds, heights=range(2, 5) if tiny else range(6, 13))}


def run_worker(job: dict, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def worker_timeout(workload: str, rounds: int) -> float:
    """Ten times the planned work and a minute of set-up: a slower program
    still reports its slowdown, a hung one does not hang the benchmark."""
    return 60 + 10 * PER_ROUND_S[workload] * rounds


def import_times() -> Tuple[float, float]:
    """Cumulative import times of concord and of sympy, in seconds, from
    python -X importtime in a fresh child."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import concord, sympy"],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    found: Dict[str, float] = {}
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] in ("concord", "sympy"):
            found[parts[2]] = int(parts[1]) / 1e6
    return found.get("concord", 0.0), found.get("sympy", 0.0)


# -- checks ----------------------------------------------------------------------------

def fault_of(op: dict) -> bool:
    """Whether the operation hits a known fault (see README.md): these fail
    in every run and are counted in `failed` without making it incorrect."""
    return bool(op.get("fault"))


def check_all(workload: str, job: dict, result: dict) -> List[List[str]]:
    import checks

    ops, outs, errs = job["ops"], result["outputs"], result["errors"]
    problems: List[List[str]] = [[e] if e else [] for e in errs]
    extra: Dict[int, str] = {}
    if workload == "signature":
        subset = checks.riemann_subset(ops)
        extra = checks.check_signature_pairs(ops, outs)
    for i, (op, out) in enumerate(zip(ops, outs)):
        if out is None:
            continue
        if workload == "algebra":
            problems[i] += checks.check_algebra(op, out)
        elif workload == "signature":
            problems[i] += checks.check_signature(op, out, riemann=i in subset)
        else:
            problems[i] += checks.check_towers(op, out)
        if i in extra:
            problems[i].append(extra[i])
    return problems


# -- metrics -----------------------------------------------------------------------------


def end_to_end(latencies: List[float], rounds: int, setups: List[float], rss_kb: int) -> dict:
    """The timings are medians over the run's rounds of each round's own
    figure: a slow spell of the host that covers fewer than half of the
    rounds does not move them."""
    size = len(latencies) // rounds
    assert size * rounds == len(latencies), "a run is made of whole rounds"
    chunks = [latencies[i * size:(i + 1) * size] for i in range(rounds)]

    def over_rounds(figure) -> float:
        return statistics.median(figure(c) for c in chunks)

    return {
        "throughput_ops_s": {"value": over_rounds(lambda c: len(c) / sum(c)), "unit": "1/s"},
        "latency_p50_s": {"value": over_rounds(statistics.median), "unit": "s"},
        "latency_p90_s": {"value": over_rounds(lambda c: statistics.quantiles(c, n=10)[8]),
                          "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
    }


def per_layer(trace: dict, workload: str, job: dict) -> dict:
    out = {}
    for name in tracer.SPAN_NAMES:
        out[f"{name}.self_s"] = {"value": trace["self_s"].get(name, 0.0), "unit": "s"}
        out[f"{name}.calls"] = {"value": trace["calls"].get(name, 0), "unit": "count"}
    concord_s, sympy_s = import_times()
    out["import.concord_s"] = {"value": concord_s, "unit": "s"}
    out["import.sympy_s"] = {"value": sympy_s, "unit": "s"}
    out["construction.dag_nodes"] = {"value": dag_nodes(workload, job["ops"]), "unit": "count"}
    return out


def dag_nodes(workload: str, ops: List[dict]) -> int:
    """Distinct nodes of the normalized trees that the tower queries walk
    (trivial link, top infection, one infection per level, the 9_46 base
    and the terminal knot), counted by the benchmark itself."""
    if workload != "towers":
        return 0
    return sum(op["height"] + 4 for op in ops if op["kind"] in ("solvable", "verdict", "canon"))


# -- main ------------------------------------------------------------------------------------


def measure(workload: str, seed: int, rounds: int, job: dict, trace: bool) -> dict:
    """Runs the job (set-ups, then the operation list) and checks its
    outputs; returns the result line."""
    job = dict(job, workload=workload, mode="run", trace=trace)
    timeout = worker_timeout(workload, rounds)
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_worker(dict(job, mode="setup"), timeout)["setup_s"])
    result = run_worker(job, timeout)
    setups.append(result["setup_s"])

    problems = check_all(workload, job, result)
    failed = [i for i, p in enumerate(problems) if p]
    unexpected = [i for i in failed if not fault_of(job["ops"][i])]
    for i in unexpected[:20]:
        print(f"op {i} ({job['ops'][i]['kind']}): "
              f"{'; '.join(problems[i])}", file=sys.stderr)

    if trace:
        metrics = per_layer(result["trace"], workload, job)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": workload, "seed": seed, "rounds": rounds,
                       "latencies": result["latencies"], **result["trace"]}, fh, indent=1)
    else:
        metrics = end_to_end(result["latencies"], rounds, setups, result["peak_rss_kb"])
    return {
        "correct": not unexpected,
        "attempted": len(job["ops"]),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "concord", "__init__.py")):
        print(f"no concord source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    rounds = rounds_for(args.workload, args.seconds)
    job = make_job(args.workload, args.seed, rounds)
    print(json.dumps(measure(args.workload, args.seed, rounds, job, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
