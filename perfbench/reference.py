"""Reference scaling curves, to set beside the ROADMAP baseline.

    python3 perfbench/reference.py

Prints, as a markdown table, the median wall time of REPEAT (three) runs of:
  rho0 to 1e-9 on T(2,2g+1), g = 1..5;
  solvability_upper_bound on an rdouble tower of height 8..14;
  derived_depth(bing_curve(n)), n = 1..5;
  the Blanchfield gram (BlanchfieldForm) on random knots of genus 1..3;
  the cold start of each CLI command (a fresh python -m concord.cli).
Each figure is measured in a fresh process, so no cache carries over.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import gen  # noqa: E402

REPEAT = 3

# One measurement each; every snippet sets `t0` just before the timed call.
CASES = {
    **{f"rho0 T(2,{2 * g + 1})": (
        "from concord.seifert import SeifertMatrix, rho0\n"
        f"v = SeifertMatrix({gen.torus_seifert(g)})\n"
        "t0 = time.perf_counter(); rho0(v)") for g in range(1, 6)},
    **{f"solvable height {h}": (
        "from concord.construction import BaseKnot, solvability_upper_bound, rdouble_tower\n"
        "from concord.seifert import SeifertMatrix\n"
        f"k = BaseKnot('K', SeifertMatrix({gen.WARMUP_TERMINAL}))\n"
        "solvability_upper_bound(rdouble_tower(k, 1))\n"
        f"tree = rdouble_tower(k, {h})\n"
        "t0 = time.perf_counter(); solvability_upper_bound(tree)") for h in range(8, 15)},
    **{f"depth bing_curve({n})": (
        "from concord.freegroup import bing_curve, derived_depth\n"
        f"w, _ = bing_curve({n})\n"
        "t0 = time.perf_counter(); derived_depth(w)") for n in range(1, 6)},
}


def gram_case(genus: int) -> str:
    v, _ = gen.Picker(random.Random(f"reference:{genus}")).pick(
        genus, lambda v, d: len(d) > 1 and gen.is_squarefree(d))
    return ("from concord.alexmod import BlanchfieldForm, module_from_seifert\n"
            "from concord.seifert import SeifertMatrix\n"
            f"m = module_from_seifert(SeifertMatrix({v}))\n"
            "t0 = time.perf_counter(); BlanchfieldForm(m)")


CLI = [
    ["alex", "eight9"], ["sig", "trefoil"], ["rho0", "trefoil", "--tol", "1e-9"],
    ["arf", "trefoil"], ["submodules", "nine46"], ["dseries", "[[x1,x2],[x3,x4]]", "--rank", "4"],
]
CLI_DOC = {
    "knots": {"K": {"seifert": gen.WARMUP_TERMINAL, "flags": {}}},
    "builds": {
        "J": {"op": "rdouble", "parent": {"op": "rdouble", "parent": "K"}},
        "tw": {"op": "infect", "parent": {"op": "trivial_link", "components": 2},
               "curves": [{"label": "alpha", "word": "[x1,x2]"}], "infectants": ["J"]},
    },
}
CLI_DOC_COMMANDS = [["fos", "J"], ["solvable", "tw"], ["verdict", "tw"],
                    ["expand", "J", "--level", "1"], ["canon", "tw"]]


def env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def timed_snippet(body: str) -> float:
    code = f"import time\n{body}\nprint(time.perf_counter() - t0)"
    out = subprocess.run([sys.executable, "-c", code], env=env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=600, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def cold_start(argv) -> float:
    t = time.perf_counter()
    # Pipes: with none to wait on, the timeout polls for the exit in 50 ms steps.
    subprocess.run([sys.executable, "-m", "concord.cli"] + argv, env=env(), cwd=ROOT,
                   capture_output=True, timeout=600)
    return time.perf_counter() - t


def main() -> int:
    cases = dict(CASES)
    for genus in (1, 2, 3):
        cases[f"gram genus {genus}"] = gram_case(genus)
    print("| measurement | median s |\n|---|---|")
    for name, body in cases.items():
        vals = [timed_snippet(body) for _ in range(REPEAT)]
        print(f"| {name} | {statistics.median(vals):.4f} |", flush=True)
    workdir = os.path.join(ROOT, ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    doc = os.path.join(workdir, "reference-doc.json")
    with open(doc, "w") as fh:
        json.dump(CLI_DOC, fh)
    try:
        for argv in CLI + [["--doc", doc] + c for c in CLI_DOC_COMMANDS]:
            vals = [cold_start(argv) for _ in range(REPEAT)]
            shown = " ".join(a for a in argv if a != doc and a != "--doc")
            print(f"| cold start `{shown}` | {statistics.median(vals):.4f} |", flush=True)
    finally:
        os.remove(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
