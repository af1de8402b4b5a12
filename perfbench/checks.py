"""Checks of concord's outputs against computations made apart from it.

Each check takes an operation (as generated) and what the program returned,
and gives a list of problems; an empty list means the output is right.
They run in the benchmark's parent process, after the timed phase.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import gen
from inproc import json_tower_shape, unpack

RIEMANN_SAMPLES = 1 << 16
RIEMANN_TOL = 1e-3


# -- polynomials ----------------------------------------------------------------------


def _sympy():
    import sympy

    return sympy, sympy.Symbol("t")


def laurent(js: list) -> Dict[int, Fraction]:
    """concord's sparse JSON [[exponent, [num, den]], ...] as a dict."""
    return {int(e): Fraction(int(n), int(d)) for e, (n, d) in js}


def l_mul(a: Dict[int, Fraction], b: Dict[int, Fraction]) -> Dict[int, Fraction]:
    out: Dict[int, Fraction] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {e: c for e, c in out.items() if c}


def l_sub(a: Dict[int, Fraction], b: Dict[int, Fraction]) -> Dict[int, Fraction]:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) - c
    return {e: c for e, c in out.items() if c}


def l_conj(a: Dict[int, Fraction]) -> Dict[int, Fraction]:
    return {-e: c for e, c in a.items()}


def dense(a: Dict[int, Fraction]) -> List[Fraction]:
    """Coefficients from the lowest exponent up (the lowest power of t,
    a unit, dropped)."""
    if not a:
        return []
    lo = min(a)
    return [a.get(lo + i, Fraction(0)) for i in range(max(a) - lo + 1)]


def laurent_dense(js: list) -> List[Fraction]:
    return dense(laurent(js))


def divides(d: List[Fraction], n: List[Fraction]) -> bool:
    """Whether d divides n in Q[t] (schoolbook remainder)."""
    r = list(n)
    while len(r) >= len(d) and r:
        c = r[-1] / d[-1]
        shift = len(r) - len(d)
        for i, x in enumerate(d):
            r[shift + i] -= c * x
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return not r


def is_integral(num: Dict[int, Fraction], den: Dict[int, Fraction]) -> bool:
    """Whether num/den lies in Q[t, t^-1], i.e. is 0 in Q(t)/Q[t,t^-1]:
    t is a unit, so this is divisibility after dropping powers of t."""
    return not num or divides(dense(den), dense(num))


def in_laurent_ring(num_js: list, den_js: list) -> bool:
    return is_integral(laurent(num_js), laurent(den_js))


def rf_minus_conjugate_in_ring(a: list, b: list) -> bool:
    """a - conj(b) in Q[t,t^-1], where conj sends t to 1/t."""
    n1, d1 = laurent(a[0]), laurent(a[1])
    n2, d2 = l_conj(laurent(b[0])), l_conj(laurent(b[1]))
    return is_integral(l_sub(l_mul(n1, d2), l_mul(n2, d1)), l_mul(d1, d2))


def rational_normal_form(coeffs: Sequence[Fraction]) -> List[int]:
    """gen.normal_form for rational coefficients (clears denominators)."""
    from math import lcm

    den = 1
    for c in coeffs:
        den = lcm(den, Fraction(c).denominator)
    return gen.normal_form([int(Fraction(c) * den) for c in coeffs])


def irreducible_factors(delta: Sequence[int]) -> List[List[int]]:
    sympy, t = _sympy()
    p = sympy.Poly(list(reversed(list(delta))), t, domain="ZZ")
    out = []
    for f, mult in p.factor_list()[1]:
        if f.degree() > 0:
            out.extend([gen.normal_form([int(c) for c in f.all_coeffs()[::-1]])] * mult)
    return sorted(out)


def brute_force_isotropic(zero: List[List[bool]]) -> set:
    n = len(zero)
    out = set()
    for mask in range(1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        if all(zero[i][j] for i in idx for j in idx):
            out.add(tuple(idx))
    return out


# -- algebra ------------------------------------------------------------------------


def check_algebra(op: dict, out: dict) -> List[str]:
    problems = []
    delta = rational_normal_form(laurent_dense(out["delta"]))
    expect = gen.alexander(op["seifert"])
    if delta != expect:
        problems.append(f"Delta {delta} != sympy det {expect}")
    if abs(sum(delta)) != 1:
        problems.append(f"Delta(1) = {sum(delta)}, not +-1")
    prod = [1]
    for o in out["orders"]:
        prod = gen.p_mul(prod, rational_normal_form(laurent_dense(o)))
    if gen.normal_form(prod) != expect:
        problems.append("product of module orders is not Delta up to units")
    gram = out["gram"]
    n = len(gram)
    for i in range(n):
        for j in range(i, n):
            if not rf_minus_conjugate_in_ring(gram[i][j], gram[j][i]):
                problems.append(f"gram not hermitian at ({i},{j})")
    for i in range(n):
        if all(in_laurent_ring(*gram[i][j]) for j in range(n)):
            problems.append(f"gram row {i} vanishes (singular on the basis)")
    comps = sorted(rational_normal_form(laurent_dense(c)) for c in out["components"])
    if comps != irreducible_factors(expect):
        problems.append("isotypic components are not the irreducible factors of Delta")
    zero = [[in_laurent_ring(*p) for p in row] for row in out["pairs"]]
    got = {tuple(s) for s in out["isotropic"]}
    if got != brute_force_isotropic(zero) or len(got) != len(out["isotropic"]):
        problems.append("isotropic submodules differ from brute force over component subsets")
    return problems


# -- signature ------------------------------------------------------------------------


def riemann_rho0(v: Sequence[Sequence[int]], samples: int = RIEMANN_SAMPLES) -> float:
    """Midpoint Riemann sum of numpy signatures around the circle."""
    import numpy as np

    vm = np.array(v, dtype=np.float64)
    total = 0
    chunk = 8192
    for start in range(0, samples, chunk):
        k = np.arange(start, min(start + chunk, samples))
        om = np.exp(2j * np.pi * (k + 0.5) / samples)
        h = (1 - om)[:, None, None] * vm[None] + (1 - om.conj())[:, None, None] * vm.T[None]
        eig = np.linalg.eigvalsh(h)
        total += int(np.sum(eig > 1e-9)) - int(np.sum(eig < -1e-9))
    return total / samples


def torus_rho0(g: int) -> Fraction:
    return Fraction(-2 * g * (g + 1), 2 * g + 1)


def _certified(out: dict):
    mid = Fraction(int(out["mid"][0]), int(out["mid"][1]))
    rad = Fraction(int(out["radius"][0]), int(out["radius"][1]))
    return mid, rad


def riemann_subset(ops: List[dict]) -> set:
    """Indices of the random knots that get the Riemann oracle: every
    eighth random knot of the list."""
    rand = [i for i, op in enumerate(ops) if op.get("family") == "random"]
    return set(rand[::8])


def check_signature(op: dict, out: dict, riemann: bool = False) -> List[str]:
    problems = []
    mid, rad = _certified(out)
    if rad > Fraction(1, 10**9):
        problems.append(f"radius {rad} above the requested 1e-9")
    if op.get("family") == "torus":
        exact = torus_rho0(op["g"]) * (-1 if op["mirror"] else 1)
        if abs(mid - exact) > rad:
            problems.append(f"rho0 {float(mid)} +- {float(rad)} misses {exact}")
    delta = gen.alexander(op["seifert"])
    roots, _ = gen.circle_roots(delta)
    if len(out["jumps"]) != roots:
        problems.append(f"{len(out['jumps'])} jumps, Delta has {roots} unit-circle roots")
    if out["values"] and out["values"][0] != 0:
        problems.append("signature is not 0 next to omega = 1")
    if riemann:
        est = riemann_rho0(op["seifert"])
        if abs(est - float(mid)) > RIEMANN_TOL:
            problems.append(f"rho0 {float(mid)} vs Riemann sum {est}")
    return problems


def check_signature_pairs(ops: List[dict], outs: List[Optional[dict]]) -> Dict[int, str]:
    """Mirrors negate: the mirror's arc values are the negated values."""
    plain, mirrored = {}, {}
    for i, (op, out) in enumerate(zip(ops, outs)):
        if op.get("family") == "torus" and out is not None:
            (mirrored if op["mirror"] else plain).setdefault(op["g"], []).append(i)
    bad = {}
    for g, idx in plain.items():
        for i, j in zip(idx, mirrored.get(g, [])):
            if outs[j]["values"] != [-x for x in outs[i]["values"]]:
                bad[i] = bad[j] = f"mirror of T(2,{2 * g + 1}) does not negate its values"
            mi, _ = _certified(outs[i])
            mj, _ = _certified(outs[j])
            if abs(mi + mj) > Fraction(2, 10**9):
                bad[i] = bad[j] = f"rho0 of the mirror of T(2,{2 * g + 1}) is not negated"
    return bad


# -- towers ---------------------------------------------------------------------------


def word_display(word) -> str:
    """concord's display of a word: runs of one letter as powers."""
    parts, i = [], 0
    while i < len(word):
        g, s = word[i]
        run = 1
        while i + run < len(word) and tuple(word[i + run]) == (g, s):
            run += 1
        e = s * run
        parts.append(f"x{g + 1}" if e == 1 else f"x{g + 1}^{e}")
        i += run
    return " ".join(parts) or "1"


def strip_annotations(node):
    """canon's output less the derived curve fields the loader does not
    take ("depth", "certificate")."""
    if isinstance(node, list):
        return [strip_annotations(x) for x in node]
    if not isinstance(node, dict):
        return node
    out = {k: strip_annotations(v) for k, v in node.items()}
    if "curves" in out:
        out["curves"] = [{k: v for k, v in c.items() if k not in ("depth", "certificate")}
                         for c in out["curves"]]
    return out


def reload_equal(canon: dict, knots: dict) -> bool:
    """Whether canon's output, read back as a build of a document that
    defines the same knots, serializes to the same canonical JSON."""
    from concord.construction import ConstructionError
    from concord.document import DocumentError, InputDocument, node_to_json

    try:
        doc = InputDocument({"knots": knots, "builds": {"x": strip_annotations(canon)}})
        return node_to_json(doc.resolve("x")) == canon
    except (DocumentError, ConstructionError, ValueError, TypeError, KeyError):
        return False


def check_canon(canon: dict, name: str, seifert, word, rank: int, depth: int,
                height: int) -> List[str]:
    """canon's JSON tree of the tower: its top node, curve and tower shape,
    and that it loads back into an equal tree."""
    problems = []
    if canon.get("op") != "infect" or \
            canon["parent"] != {"op": "trivial_link", "components": rank}:
        return [f"canonical top node is not an infection of the {rank}-component trivial link"]
    curve = canon["curves"][0]
    if curve.get("word") != word_display(word) or curve.get("depth") != str(depth):
        problems.append(f"curve {curve.get('word')} at depth {curve.get('depth')}, "
                        f"expected depth {depth}")
    shape = json_tower_shape(canon["infectants"][0])
    if shape != [height, name]:
        problems.append(f"canonical infectant has shape {shape}, expected [{height}, {name}]")
    if not reload_equal(canon, {name: {"seifert": seifert, "flags": {}}}):
        problems.append("canonical JSON does not load back into an equal tree")
    return problems


def fos_expected(name: str) -> List[str]:
    """First-order signatures of R(K) = 9_46 infected by K along both band
    meridians: the zero submodule sees both infections, each of the two
    isotropic lines kills one."""
    return sorted([f"2*rho0({name}) + rho1(nine46)", f"rho0({name})", f"rho0({name})"])


def condition_expected(name: str, height: int) -> str:
    return f"|rho0({name})| > C(M(T;alpha;R{height}))"


def check_towers(op: dict, out: dict) -> List[str]:
    kind, level = op["kind"], op["depth"] + op["height"]
    if kind == "solvable":
        if out["display"] != str(level) or out["rational"]:
            return [f"solvable {out['display']}, expected {level} (depth + height)"]
    elif kind == "verdict":
        want = condition_expected(op["name"], op["height"])
        if out["conclusion"] != "NOT_SLICE_CONDITIONAL" or out["condition"] != want:
            return [f"verdict {out['conclusion']} {out['condition']}, expected {want}"]
        if out["solvable"] != str(level) or out["rational"]:
            return [f"verdict level {out['solvable']}, expected {level}"]
    elif kind == "expand":
        i = op["level"]
        want = {"infectants": 2**i, "identical": True, "curve_depths": [i] * 2**i,
                "infectant_shape": [op["height"] - i, op["name"], True],
                "base_shape": [i, "unknot", True]}
        if out != want:
            return [f"expand_clones level {i}: {out}"]
    elif kind == "fos":
        if sorted(out["terms"]) != fos_expected(op["name"]):
            return [f"first-order signatures {out['terms']}"]
    elif kind == "canon":
        return check_canon(unpack(out["json_z"]), op["name"], op["seifert"], op["word"],
                           op["rank"], op["depth"], op["height"])
    return []
