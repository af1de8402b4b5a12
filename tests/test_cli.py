import json
from decimal import Decimal
from fractions import Fraction

import pytest

from concord.cli import main
from concord.document import DocumentError, InputDocument, load_document, node_to_json
from concord.construction import (
    Infect, TrivialLink, expand_clones, rdouble_tower,
)


DOC = {
    "knots": {
        "K1": {"seifert": [[-1, 1], [0, -1]], "flags": {}},
        "K": {"seifert": [[0, 2], [1, 0]], "flags": {}},
        "mystery": {"opaque": True, "flags": {"arf_zero": True}},
    },
    "axioms": [["rho0(K1)", "rho1(nine46)"]],
    "builds": {
        "myknot": {
            "op": "infect",
            "parent": {"op": "base", "knot": "eight9"},
            "curves": [
                {"label": "gen", "alex_class": [[[0, [1, 1]]]]},
                {
                    "label": "p_gen",
                    "alex_class": [[[3, [1, 1]], [2, [-2, 1]], [1, [1, 1]], [0, [-1, 1]]]],
                },
            ],
            "infectants": ["K1", "K1"],
        },
        "J2": {"op": "rdouble", "parent": {"op": "rdouble", "parent": "K"}},
        "tower": {
            "op": "infect",
            "parent": {"op": "trivial_link", "components": 2},
            "curves": [{"label": "alpha", "word": "[x1,x2]"}],
            "infectants": ["J2"],
        },
        "towerx2": {"op": "multiple", "parent": "tower", "count": 2},
        "bd": {"op": "bing", "parent": "myknot", "iterations": 2},
    },
    "options": {"tol": "1e-9"},
}


@pytest.fixture()
def docfile(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(DOC))
    return str(path)


class TestDocument:
    def test_loads_and_resolves(self, docfile):
        doc = load_document(docfile)
        assert doc.knot("K1").seifert is not None
        assert doc.knot("trefoil") is not None  # builtin fallback
        tree = doc.resolve("tower")
        assert isinstance(tree, Infect)

    def test_schema_errors(self):
        with pytest.raises(DocumentError):
            InputDocument({"bogus": {}})
        with pytest.raises(DocumentError):
            InputDocument({"knots": {"A": {"seifert": [[1]]}}})  # det != +-1
        with pytest.raises(DocumentError):
            InputDocument({"knots": {"A": {"flags": {"wat": True}}}})
        with pytest.raises(DocumentError):
            InputDocument({"builds": {"x": {"op": "nope"}}})
        with pytest.raises(DocumentError):
            InputDocument({"builds": {"a": "b", "b": "a"}})  # cycle

    def test_unknown_reference(self):
        doc = InputDocument({})
        with pytest.raises(DocumentError):
            doc.resolve("never_heard_of_it")

    def test_canonical_json_round_trip(self, docfile):
        doc = load_document(docfile)
        tree = doc.resolve("J2")
        data = node_to_json(tree)
        assert data["op"] == "infect"
        assert data["parent"]["knot"] == "nine46"

    @pytest.mark.parametrize("argv", [["canon", "tower"], ["expand", "J2", "--level", "2"]])
    def test_serialized_tree_reloads(self, docfile, capsys, argv):
        assert main(["--doc", docfile] + argv) == 0
        tree = json.loads(capsys.readouterr().out)
        original = load_document(docfile).resolve(argv[1])
        if argv[0] == "expand":
            original = expand_clones(original, 2)
        reloaded = InputDocument({**DOC, "builds": {"re": tree}}).resolve("re")
        assert reloaded == original

    def test_serialized_fields_must_agree(self, docfile, capsys):
        assert main(["--doc", docfile, "canon", "tower"]) == 0
        text = capsys.readouterr().out
        for which, field, bad in [
            ("word", "depth", "2"),
            ("word", "certificate", "LinkingZeroDepth"),
            ("alex_class", "depth", 2),
            ("alex_class", "certificate", "MeridianCurve"),
        ]:
            tree = json.loads(text)
            if which == "word":
                curve = tree["curves"][0]
            else:
                curve = tree["infectants"][0]["curves"][0]
            curve[field] = bad
            with pytest.raises(DocumentError):
                InputDocument({**DOC, "builds": {"re": tree}})

    def test_build_fields_known_and_agreeing(self, tmp_path, capsys):
        # `canon` writes opaque/flags on base nodes; they reload when they
        # describe the named knot
        InputDocument({**DOC, "builds": {
            "a": {"op": "base", "knot": "nine46", "flags": ["ribbon", "ribbon_kernels_all"]},
            "b": {"op": "base", "knot": "mystery", "opaque": True, "flags": ["arf_zero"]},
        }})
        for spec in [
            {"op": "base", "knot": "trefoil", "bogus": 1},
            {"op": "base", "knot": "trefoil", "flags": ["ribbon"]},
            {"op": "base", "knot": "trefoil", "flags": "ribbon"},
            {"op": "base", "knot": "trefoil", "opaque": True},
            {"op": "base", "knot": "mystery", "opaque": False},
            {"op": "rdouble", "parent": "trefoil", "iterations": 2},
            # one doubling operator: naming it is an unknown field
            {"op": "rdouble", "parent": "trefoil", "operator": "nine46"},
            {"op": "sum", "parts": ["trefoil"], "count": 2},
            # numeric fields are JSON integers: no truncation, no strings, no bools
            {"op": "multiple", "parent": "trefoil", "count": 2.9},
            {"op": "multiple", "parent": "trefoil", "count": "2"},
            {"op": "trivial_link", "components": True},
            {"op": "slice_link", "components": 2.0},
            {"op": "bing", "parent": "trefoil", "iterations": "1"},
            {"op": "infect", "parent": {"op": "trivial_link", "components": 2},
             "curves": [{"label": "a", "assumed_depth": 1.5}], "infectants": ["trefoil"]},
            # alex_class: no zero denominator; exponents within the dense storage bound
            {"op": "infect", "parent": "nine46", "infectants": ["trefoil"],
             "curves": [{"label": "a", "alex_class": [[[0, [1, 0]]]]}]},
            {"op": "infect", "parent": "nine46", "infectants": ["trefoil"],
             "curves": [{"label": "a", "alex_class": [[[10**9, [1, 1]], [0, [1, 1]]]]}]},
        ]:
            with pytest.raises(DocumentError):
                InputDocument({**DOC, "builds": {"x": spec}})
        # flag values and `opaque` are JSON booleans; knot records take no name
        for rec in [
            {"seifert": [[-1, 1], [0, -1]], "flags": {"ribbon": "false"}},
            {"seifert": [[-1, 1], [0, -1]], "flags": {"amphichiral": 1}},
            {"opaque": "true"},
            {"seifert": [[-1, 1], [0, -1]], "name": "other"},
        ]:
            with pytest.raises(DocumentError):
                InputDocument({"knots": {"K": rec}, "builds": {"x": "K"}})
        p = tmp_path / "bogus.json"
        p.write_text(json.dumps({"builds": {"x": {
            "op": "base", "knot": "trefoil", "flags": ["ribbon"], "opaque": True, "bogus": 1,
        }}}))
        assert main(["--doc", str(p), "solvable", "x"]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_clone_depth_needs_the_expanded_shape(self, tmp_path, capsys):
        clone = {"certificate": "CloneDepth", "depth": 9}
        doc = {"builds": {"x": {
            "op": "infect", "parent": {"op": "base", "knot": "nine46"},
            "curves": [clone, clone], "infectants": ["trefoil", "trefoil"],
        }}}
        p = tmp_path / "clone.json"
        p.write_text(json.dumps(doc))
        assert main(["--doc", str(p), "solvable", "x"]) == 1
        assert "CloneDepth" in capsys.readouterr().err

    def test_expanded_clone_fields_must_agree(self, docfile, capsys):
        assert main(["--doc", docfile, "expand", "J2", "--level", "1"]) == 0
        text = capsys.readouterr().out
        assert json.loads(text)["curves"][0]["certificate"] == "CloneDepth"
        tree = json.loads(text)
        InputDocument({**DOC, "builds": {"re": tree}})
        tree["curves"][0]["depth"] = 9
        with pytest.raises(DocumentError):
            InputDocument({**DOC, "builds": {"re": tree}})
        tree = json.loads(text)
        del tree["curves"][1], tree["infectants"][1]
        with pytest.raises(DocumentError):
            InputDocument({**DOC, "builds": {"re": tree}})
        tree = json.loads(text)
        tree["parent"] = {"op": "rdouble", "parent": "trefoil"}
        with pytest.raises(DocumentError):
            InputDocument({**DOC, "builds": {"re": tree}})


class TestCommands:
    def test_alex(self, capsys):
        assert main(["alex", "nine46"]) == 0
        out = capsys.readouterr().out
        assert "2*t^2 - 5*t + 2" in out

    def test_alex_json(self, capsys):
        assert main(["--json", "alex", "eight9"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["display"].startswith("t^6")
        assert len(data["factors"]) == 2

    def test_rho0_spec_format(self, capsys):
        assert main(["rho0", "trefoil", "--tol", "1e-9"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "-1.333333333 ± 1e-9"

    def test_rho0_document_tolerance(self, tmp_path, capsys):
        p = tmp_path / "d.json"
        p.write_text(json.dumps({"options": {"tol": "1e-4"}}))
        assert main(["--doc", str(p), "rho0", "trefoil"]) == 0
        assert capsys.readouterr().out.strip() == "-1.3333 ± 1e-4"
        assert main(["--doc", str(p), "rho0", "trefoil", "--tol", "1e-6"]) == 0
        assert capsys.readouterr().out.strip() == "-1.333333 ± 1e-6"

    @pytest.mark.parametrize("option", ["depth_cap", "factor_degree_cap"])
    def test_unread_options_rejected(self, tmp_path, capsys, option):
        p = tmp_path / "d.json"
        p.write_text(json.dumps({"options": {option: 3}}))
        assert main(["--doc", str(p), "arf", "trefoil"]) == 1
        assert "unknown options" in capsys.readouterr().err

    def test_rho0_at_a_tight_tolerance(self, tmp_path, capsys):
        """At 1e-39 the shown value and the --json midpoint of T(2,7) lie
        within the tolerance of -24/7."""
        ent = [[-1 if j == i else int(j == i + 1) for j in range(6)] for i in range(6)]
        p = tmp_path / "d.json"
        p.write_text(json.dumps({"knots": {"T27": {"seifert": ent}}}))
        tol, value = Fraction(1, 10**39), Fraction(-24, 7)
        assert main(["--doc", str(p), "rho0", "T27", "--tol", "1e-39"]) == 0
        shown = Fraction(capsys.readouterr().out.split(" ± ")[0])
        assert abs(shown - value) <= tol + Fraction(1, 2 * 10**39)  # + rounding
        assert main(["--doc", str(p), "--json", "rho0", "T27", "--tol", "1e-39"]) == 0
        num, den = json.loads(capsys.readouterr().out)["midpoint"]
        assert abs(Fraction(Decimal(num)) / Fraction(Decimal(den)) - value) <= tol

    def test_digits_past_the_int_str_limit(self):
        """The midpoint's text comes from `_digits`, which prints integers
        longer than the 4300 digits Python converts to text by default."""
        from concord.cli import _digits

        n = -(10**5000 + 7)
        text = _digits(n)
        assert len(text) == 5002 and text.startswith("-1000") and text.endswith("007")
        assert Fraction(Decimal(text)) == n

    def test_document_nested_past_the_json_reader(self, tmp_path, capsys):
        depth = 1200
        p = tmp_path / "d.json"
        p.write_text('{"builds": {"x": ' + '{"op": "rdouble", "parent": ' * depth
                     + '"trefoil"' + "}" * depth + "}}")
        assert main(["--doc", str(p), "canon", "x"]) == 1
        captured = capsys.readouterr()
        assert "nests deeper than the JSON reader allows" in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_rho0_exact_zero(self, capsys):
        assert main(["rho0", "figure8"]) == 0
        assert "exact" in capsys.readouterr().out

    def test_arf(self, capsys):
        assert main(["arf", "trefoil"]) == 0
        assert capsys.readouterr().out.strip() == "arf(trefoil) = 1"

    def test_submodules_table(self, capsys):
        assert main(["submodules", "nine46"]) == 0
        out = capsys.readouterr().out
        assert "0 |" in out and "<alpha>" in out and "<beta>" in out

    @staticmethod
    def block_sum(k):
        """The block sum of [[0, m+1], [m, 0]], m = 1..k: 2k isotypic
        components and 3^k isotropic submodules."""
        ent = [[0] * (2 * k) for _ in range(2 * k)]
        for m in range(1, k + 1):
            ent[2 * m - 2][2 * m - 1], ent[2 * m - 1][2 * m - 2] = m + 1, m
        return ent

    def block_sum_doc(self, tmp_path, k):
        path = tmp_path / f"block{k}.json"
        path.write_text(json.dumps({"knots": {"B": {"seifert": self.block_sum(k), "flags": {}}}}))
        return str(path)

    def per_submodule_rendering(self, k):
        """The submodules table and JSON payload of knot B rendered as the
        command once did: every generator printed afresh for each
        submodule that holds it."""
        from concord.alexmod import isotropy, module_from_seifert
        from concord.cli import GREEK
        from concord.seifert import SeifertMatrix

        mod = module_from_seifert(SeifertMatrix(self.block_sum(k)))
        comps = mod.isotypic_components()
        lines = ["isotropic submodules of the Alexander module of B:",
                 "  submodule | generators | dim_Q"]
        payload = []
        for sub in isotropy(mod)[1]:
            held = [i for i, c in enumerate(comps) if c.key() in set(sub.component_keys)]
            name = "<" + ",".join(GREEK[i] for i in held) + ">" if held else "0"
            gens = ", ".join(str(g) for g in sub.generators) or "-"
            dim = sum(comps[i].dim_over_q() for i in held)
            lines.append(f"  {name} | {gens} | {dim}")
            payload.append({"name": name, "generators": [g.to_json() for g in sub.generators],
                            "dim": dim})
        return "\n".join(lines) + "\n", json.dumps(
            {"knot": "B", "submodules": payload}, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("k", range(1, 5))
    def test_submodules_block_sums_unchanged(self, tmp_path, capsys, k):
        doc = self.block_sum_doc(tmp_path, k)
        text, as_json = self.per_submodule_rendering(k)
        assert main(["--doc", doc, "submodules", "B"]) == 0
        assert capsys.readouterr().out == text
        assert main(["--doc", doc, "--json", "submodules", "B"]) == 0
        assert capsys.readouterr().out == as_json

    def test_submodules_render_each_generator_once(self, tmp_path, capsys, monkeypatch):
        import time

        from concord.alexmod import ModElement

        rendered = []
        render = ModElement.__str__

        def counting_str(x):
            rendered.append(x)
            return render(x)

        monkeypatch.setattr(ModElement, "__str__", counting_str)
        doc = self.block_sum_doc(tmp_path, 8)
        t0 = time.perf_counter()
        assert main(["--doc", doc, "submodules", "B"]) == 0
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr().out
        assert out.count("\n") == 2 + 3**8
        assert len(rendered) <= 16
        assert elapsed < 1.0

    def test_sig_csv(self, capsys, tmp_path):
        target = tmp_path / "sig.csv"
        assert main(["sig", "trefoil", "--csv", str(target), "--samples", "12"]) == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "theta_over_2pi,sigma"
        # sigma = -2 between 1/6 and 5/6; the exact jump rows are skipped
        body = dict(l.split(",") for l in lines[1:])
        assert body["0.250000000"] == "-2"
        assert body["0.000000000"] == "0"
        assert "0.166666667" not in body

    def test_sig_samples_needs_csv(self, capsys):
        assert main(["sig", "trefoil", "--samples", "5"]) == 1
        err = capsys.readouterr().err
        assert "input error" in err and "--csv" in err

    def test_sig_csv_default_samples(self, capsys, tmp_path):
        target = tmp_path / "sig.csv"
        assert main(["sig", "trefoil", "--csv", str(target)]) == 0
        assert capsys.readouterr().out.rstrip().endswith(f"wrote 358 samples to {target}")
        assert len(target.read_text().strip().splitlines()) == 1 + 358

    def test_dseries(self, capsys):
        assert main(["dseries", "[[x1,x2],[x3,x4]]", "--rank", "4"]) == 0
        assert capsys.readouterr().out.strip() == "depth = 2"

    def test_dseries_cap(self, capsys):
        assert main(["dseries", "1", "--rank", "2", "--max", "9"]) == 3
        assert "resource cap" in capsys.readouterr().err

    def test_dseries_negative_max(self, capsys):
        assert main(["dseries", "[x1,x2]", "--rank", "2", "--max", "-1"]) == 1
        assert "input error" in capsys.readouterr().err
        assert main(["dseries", "[x1,x2]", "--rank", "2", "--max", "0"]) == 0
        assert capsys.readouterr().out.strip() == "depth >= 0"

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_sig_samples_below_one(self, capsys, tmp_path, samples):
        target = tmp_path / "sig.csv"
        assert main(["sig", "trefoil", "--csv", str(target), "--samples", samples]) == 1
        assert "input error" in capsys.readouterr().err
        assert not target.exists()

    def test_dseries_bad_word(self, capsys):
        assert main(["dseries", "x9", "--rank", "2"]) == 1
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solvable", "tower"], ["verdict", "tower"], ["--json", "verdict", "towerx2"],
        ["fos", "J2"], ["canon", "tower"], ["expand", "J2", "--level", "1"],
        ["expand", "J2", "--level", "2"],
    ])
    def test_tower_queries_build_no_blanchfield_form(self, docfile, capsys, monkeypatch, argv):
        # verdict and fos read isotypic supports; the gram is only an oracle
        from concord.alexmod import BlanchfieldForm, blanchfield_form

        def refuse(*args, **kwargs):
            raise AssertionError("tower queries must not build or evaluate the pairing")

        blanchfield_form.cache_clear()
        monkeypatch.setattr(BlanchfieldForm, "__init__", refuse)
        monkeypatch.setattr(BlanchfieldForm, "pairing", refuse)
        assert main(["--doc", docfile] + argv) == 0
        assert capsys.readouterr().out

    def test_solvable(self, docfile, capsys):
        assert main(["--doc", docfile, "solvable", "tower"]) == 0
        assert "solvable upper bound: 3" in capsys.readouterr().out

    def test_verdict_bing(self, docfile, capsys):
        assert main(["--doc", docfile, "verdict", "myknot"]) == 0
        out = capsys.readouterr().out
        assert "conclusion: NOT_SLICE" in out
        assert "rule: bing-doubles-first-order" in out

    def test_verdict_tower_json(self, docfile, capsys):
        assert main(["--doc", docfile, "--json", "verdict", "tower"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["conclusion"] == "NOT_SLICE_CONDITIONAL"
        assert data["solvable_upper_bound"] == "3"
        assert data["condition"]["type"] == "abs_exceeds"

    def test_verdict_multiple(self, docfile, capsys):
        assert main(["--doc", docfile, "--json", "verdict", "towerx2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["conclusion"] == "NOT_SLICE_CONDITIONAL"

    def test_expand(self, docfile, capsys):
        assert main(["--doc", docfile, "--json", "expand", "J2", "--level", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["tree"]["curves"]) == 2

    def test_canon_deterministic(self, docfile, capsys):
        assert main(["--doc", docfile, "canon", "bd"]) == 0
        first = capsys.readouterr().out
        assert main(["--doc", docfile, "canon", "bd"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_verdict_byte_deterministic(self, docfile, capsys):
        outputs = []
        for _ in range(2):
            assert main(["--doc", docfile, "--json", "verdict", "tower"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_unknown_knot_exit_1(self, capsys):
        assert main(["alex", "nonexistent"]) == 1
        assert "input error" in capsys.readouterr().err

    def test_opaque_knot_alex_exit_1(self, docfile, capsys):
        assert main(["--doc", docfile, "alex", "mystery"]) == 1

    def test_fos(self, docfile, capsys):
        assert main(["--doc", docfile, "fos", "myknot"]) == 0
        out = capsys.readouterr().out
        assert "2*rho0(K1)" in out and "rho0(K1)" in out

    def test_sharp_constant_where_the_doubling_rule_applies(self, docfile, capsys):
        assert main(["--doc", docfile, "verdict", "tower", "--sharp-constant"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:4] == [
            "conclusion: NOT_SLICE_CONDITIONAL",
            "rule: iterated-doubling-infinite-order",
            "solvable upper bound: 3",
            "condition: |rho0(K)| > C(M(nine46))",
        ]
        assert lines[-2:] == [
            "note: sharp constant: the bound depends only on the doubling pattern's "
            "zero surgery, independent of depth and height",
            "note: under the condition, no positive multiple of the result is slice "
            "or even rationally solvable one level higher",
        ]

    @pytest.mark.parametrize("build", ["myknot", "bd"])
    def test_sharp_constant_rejected_elsewhere(self, docfile, capsys, build):
        # judged by the Bing rule (myknot) and the infection rule (bd)
        assert main(["--doc", docfile, "verdict", build]) == 0
        assert main(["--doc", docfile, "verdict", build, "--sharp-constant"]) == 1
        captured = capsys.readouterr()
        assert "input error" in captured.err and "sharp constant" in captured.err

    def test_invalid_build_fails_the_document(self, tmp_path, capsys):
        doc = {**DOC, "builds": {**DOC["builds"], "bad": {
            "op": "rdouble", "parent": {"op": "trivial_link", "components": 2}}}}
        p = tmp_path / "d.json"
        p.write_text(json.dumps(doc))
        assert main(["--doc", str(p), "canon", "J2"]) == 1
        assert "input error" in capsys.readouterr().err

    def test_hypothesis_failure_exit_2(self, tmp_path, capsys):
        doc = {
            "knots": {"mystery": {"opaque": True, "flags": {}}},
            "builds": {
                "bad": {
                    "op": "infect",
                    "parent": {"op": "trivial_link", "components": 2},
                    "curves": [{"label": "m", "word": "x1"}],
                    "infectants": ["mystery"],
                }
            },
        }
        p = tmp_path / "d.json"
        p.write_text(json.dumps(doc))
        assert main(["--doc", str(p), "verdict", "bad"]) == 2


def _readme_blocks(lang):
    """The fenced code blocks of README.md in language `lang`."""
    import os
    import re

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(path, encoding="utf-8") as fh:
        return re.findall(rf"^```{lang}\n(.*?)^```", fh.read(), re.M | re.S)


README_DOC = json.loads(_readme_blocks("json")[0])

# README comments that quote a command's output line word for word
README_OUTPUTS = {
    "-1.333333333 ± 1e-9", "arf(trefoil) = 1", "depth = 2", "solvable upper bound: 3",
}


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    """Every `concord` line of the README's shell blocks runs against its
    JSON document, and the outputs its comments quote are the ones printed."""
    import shlex

    monkeypatch.chdir(tmp_path)
    (tmp_path / "doc.json").write_text(json.dumps(README_DOC))
    lines = [line for block in _readme_blocks("sh") for line in block.splitlines()
             if line.startswith("concord ")]
    assert len(lines) >= 12
    quoted = set()
    for line in lines:
        command, _, comment = line.partition("  #")
        code = main(shlex.split(command)[1:])
        out = capsys.readouterr().out
        assert code == 0, line
        if comment.strip() in README_OUTPUTS:
            assert comment.strip() in out.splitlines(), (line, out)
            quoted.add(comment.strip())
    assert quoted == README_OUTPUTS


def test_import_loads_no_heavy_modules(tmp_path):
    """`import concord` pulls in neither sympy nor numpy, and neither do the
    commands that factor (`alex`, `submodules`, and `verdict`, whose
    rdouble levels decompose the 9_46 module): sympy is the test oracle of
    factorization, numpy that of the Riemann sum."""
    import os
    import subprocess
    import sys

    import concord

    src = os.path.dirname(os.path.dirname(os.path.abspath(concord.__file__)))
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(README_DOC))
    heavy = "print(sorted(m for m in ('sympy', 'numpy') if m in sys.modules))"
    code = (f"import sys, concord; {heavy}\n"
            "from concord.cli import main\n"
            "codes = [main(['alex', 'nine46']), main(['submodules', 'nine46']),\n"
            f"         main(['--doc', {str(doc)!r}, 'verdict', 'tower'])]\n"
            f"print(codes); {heavy}")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "[]"
    assert lines[-2:] == ["[0, 0, 0]", "[]"]


def test_runtime_needs_only_the_stdlib():
    """With numpy and sympy made unimportable, every concord module imports
    and the `rho0` and `alex` commands succeed: the package declares no
    runtime dependencies."""
    import os
    import subprocess
    import sys

    import concord

    src = os.path.dirname(os.path.dirname(os.path.abspath(concord.__file__)))
    code = ("import sys\n"
            "sys.modules['numpy'] = sys.modules['sympy'] = None\n"
            "import importlib, pkgutil, concord\n"
            "for m in pkgutil.iter_modules(concord.__path__):\n"
            "    importlib.import_module('concord.' + m.name)\n"
            "from concord.cli import main\n"
            "print([main(['rho0', 'trefoil']), main(['alex', 'nine46'])])")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip().splitlines()[-1] == "[0, 0]"


def test_src_does_not_import_sympy():
    import os
    import re

    import concord

    root = os.path.dirname(os.path.abspath(concord.__file__))
    pattern = re.compile(r"^\s*(import|from)\s+sympy\b", re.M)
    for name in os.listdir(root):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                assert not pattern.search(fh.read()), name
