"""Golden outputs of the first-order stage and of the knot commands.

The first-order stage is `fos`, `verdict`, `verdict --sharp-constant` and
`solvable`, plain and `--json`, on every build and knot of three
documents, and `submodules` on their knots.  The knot commands are
`rho0` (plain and `--json`, at the document's tolerance and at 1e-9,
1e-12, 1e-20 and 1e-45), `sig`, `sig --csv`, `--json sig`, `alex` and
`arf` on the catalog knots, on T(2,2g+1) and its mirror for g = 1..5 and
on seeded random knots of genus 1-3.

    PYTHONPATH=src python3 tests/golden/make.py

rewrites tests/golden/outputs.json.  The documents are the README's, the
`DOC` of tests/test_cli.py, `RULES_DOC` below, whose builds reach every
(rule, conclusion) pair the verdict engine can give, and the knot
document of `knots_document`.  Each record keeps the exit code, the
stdout sha256 and length, the first 2 kB of stdout and the whole stderr;
a `sig --csv` record keeps the same digest of the CSV file.
`tests/test_golden.py` reruns every record and compares; a change that
means to alter an output regenerates the file and names the records that
changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import re
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUTPUTS = os.path.join(HERE, "outputs.json")
HEAD_CHARS = 2048

CATALOG = ("unknot", "trefoil", "figure8", "nine46", "eight9")

_GEN = [[[0, [1, 1]]]]
_P_GEN = [[[3, [1, 1]], [2, [-2, 1]], [1, [1, 1]], [0, [-1, 1]]]]
_TREFOIL = [[-1, 1], [0, -1]]


def _infect(parent, curve, infectant):
    return {"op": "infect", "parent": parent, "curves": [curve],
            "infectants": [infectant]}


_TRIVIAL = {"op": "trivial_link", "components": 2}
_SLICE = {"op": "slice_link", "label": "L", "components": 2}
_COMMUTATOR = {"label": "a", "word": "[x1,x2]"}

RULES_DOC = {
    "knots": {
        "K1": {"seifert": _TREFOIL, "flags": {}},
        "K": {"seifert": [[0, 2], [1, 0]], "flags": {}},
        "M": {"opaque": True, "flags": {}},
        "N": {"opaque": True, "flags": {"arf_zero": True}},
        # trefoil # trefoil: the total order is not squarefree
        "TT": {"seifert": [[-1, 1, 0, 0], [0, -1, 0, 0], [0, 0, -1, 1], [0, 0, 0, -1]],
               "flags": {}},
    },
    "axioms": [["rho0(N)"]],
    "builds": {
        "e89M": {"op": "infect", "parent": {"op": "base", "knot": "eight9"},
                 "curves": [{"label": "gen", "alex_class": _GEN},
                            {"label": "p_gen", "alex_class": _P_GEN}],
                 "infectants": ["M", "M"]},
        "e89K1": {"op": "infect", "parent": {"op": "base", "knot": "eight9"},
                  "curves": [{"label": "gen", "alex_class": _GEN},
                             {"label": "p_gen", "alex_class": _P_GEN}],
                  "infectants": ["K1", "K"]},
        "RK1": {"op": "rdouble", "parent": "K1"},
        "RN": {"op": "rdouble", "parent": "N"},
        "bingM": {"op": "bing", "parent": "e89M", "iterations": 1},
        "deep_curve": _infect({"op": "base", "knot": "nine46"},
                              {"label": "c", "assumed_depth": 2}, "K1"),
        "no_class": _infect({"op": "base", "knot": "nine46"},
                            {"label": "c", "assumed_depth": 1}, "K1"),
        # the first error met decides the message: a curve with no class
        # comes before a class of the wrong length
        "bad_length": _infect({"op": "base", "knot": "eight9"},
                              {"label": "g2", "alex_class": _GEN + _GEN}, "K1"),
        "bad_length_no_class": {"op": "infect", "parent": {"op": "base", "knot": "eight9"},
                                "curves": [{"label": "g2", "alex_class": _GEN + _GEN},
                                           {"label": "c", "assumed_depth": 1}],
                                "infectants": ["K1", "K1"]},
        "triv_zero": _infect(_TRIVIAL, _COMMUTATOR, "eight9"),
        "triv_opaque": _infect(_TRIVIAL, _COMMUTATOR, "M"),
        "triv_depth0": _infect(_TRIVIAL, {"label": "a", "assumed_depth": 0}, "e89M"),
        "triv_assumed": _infect(_TRIVIAL, {"label": "a", "assumed_depth": 2}, "RN"),
        "slice_cond": _infect(_SLICE, _COMMUTATOR, "e89M"),
        "slice_numeric": _infect(_SLICE, _COMMUTATOR, "e89K1"),
        "slice_zero": _infect(_SLICE, {"label": "a", "word": "[[x1,x2],[x1,x2^-1]]"}, "K"),
        "tower_depth0": _infect(_TRIVIAL, {"label": "a", "assumed_depth": 0}, "RN"),
        "tower_slice": {"op": "multiple", "count": 3,
                        "parent": _infect(_SLICE, _COMMUTATOR,
                                          {"op": "rdouble", "parent": "trefoil"})},
    },
    "options": {"tol": "1e-9"},
}


def _readme_document() -> dict:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return json.loads(re.findall(r"^```json\n(.*?)^```", fh.read(), re.M | re.S)[0])


def _test_module(name: str):
    spec = importlib.util.spec_from_file_location(
        f"golden_{name}", os.path.join(ROOT, "tests", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cli_document() -> dict:
    return _test_module("test_cli").DOC


def knots_document() -> dict:
    """T(2,2g+1) and its mirror for g = 1..5, and the first ten seeded
    random knots of genus 1-3 (`random_seifert` of tests/test_seifert.py)
    whose signature function jumps, so that `rho0` is not exact."""
    from concord.seifert import mirror, signature_function

    module = _test_module("test_seifert")

    def rows(v) -> list:
        return [list(row) for row in v.entries]

    knots = {}
    for g in range(1, 6):
        v = module.torus_2_chain(g)
        knots[f"T{2 * g + 1}"] = {"seifert": rows(v)}
        knots[f"mT{2 * g + 1}"] = {"seifert": rows(mirror(v))}
    rng = random.Random(31)
    drawn = 0
    while drawn < 10:
        v = module.random_seifert(rng, 1 + drawn % 3)
        if signature_function(v).upper_jumps:
            drawn += 1
            knots[f"R{drawn}"] = {"seifert": rows(v)}
    return {"knots": knots, "options": {"tol": "1e-6"}}


def documents() -> dict:
    return {"readme": _readme_document(), "cli": _cli_document(), "rules": RULES_DOC,
            "knots": knots_document()}


FIRST_ORDER_DOCS = ("readme", "cli", "rules")
TOLERANCES = (None, "1e-9", "1e-12", "1e-20", "1e-45")


def invocations(docs: dict):
    """(document name, argv) pairs; "DOC" in argv stands for the document's path."""
    for name in FIRST_ORDER_DOCS:
        doc = docs[name]
        knots = list(doc.get("knots", {}))
        for target in list(doc.get("builds", {})) + knots + list(CATALOG):
            for command in (["fos"], ["verdict"], ["verdict", "--sharp-constant"],
                            ["solvable"]):
                for flags in ([], ["--json"]):
                    yield name, ["--doc", "DOC", *flags, command[0], target, *command[1:]]
        for knot in knots:
            for flags in ([], ["--json"]):
                yield name, ["--doc", "DOC", *flags, "submodules", knot]
    for knot in CATALOG:
        for flags in ([], ["--json"]):
            yield None, [*flags, "submodules", knot]
    for knot in list(docs["knots"]["knots"]) + list(CATALOG):
        doc = ["--doc", "DOC"]
        for tol in TOLERANCES:
            for flags in ([], ["--json"]):
                yield "knots", [*doc, *flags, "rho0", knot, *(["--tol", tol] if tol else [])]
        yield "knots", [*doc, "sig", knot]
        yield "knots", [*doc, "sig", knot, "--csv", "sig.csv"]
        yield "knots", [*doc, "--json", "sig", knot]
        yield "knots", [*doc, "alex", knot]
        yield "knots", [*doc, "arf", knot]


def _digest(prefix: str, text: str) -> dict:
    return {
        f"{prefix}_sha256": hashlib.sha256(text.encode()).hexdigest(),
        f"{prefix}_len": len(text),
        f"{prefix}_head": text[:HEAD_CHARS],
    }


def run(argv) -> dict:
    """One in-process CLI run: exit code, stdout digest and head, stderr,
    and the digest of the file that `--csv` names (a relative path is
    read from the working directory)."""
    from concord.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    rec = {"exit": code, **_digest("stdout", out.getvalue()), "stderr": err.getvalue()}
    if "--csv" in argv:
        path = argv[argv.index("--csv") + 1]
        with open(path) as fh:
            rec.update(_digest("csv", fh.read()))
        os.remove(path)
    return rec


def records(docs: dict, cases) -> list:
    """Run each (document name, argv) case against the documents, inside a
    temporary working directory, so a CSV path in an argv is relative."""
    out = []
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        paths = {}
        for name, doc in docs.items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w") as fh:
                json.dump(doc, fh)
        for name, argv in cases:
            real = [paths[name] if a == "DOC" else a for a in argv]
            out.append({"doc": name, "argv": argv, **run(real)})
    return out


def main() -> None:
    docs = documents()
    data = {"documents": docs, "records": records(docs, invocations(docs))}
    with open(OUTPUTS, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(data['records'])} records to {OUTPUTS}")


if __name__ == "__main__":
    main()
