"""Command-line surface.

    concord [--doc FILE] [--json] COMMAND ...

Commands: alex, sig, rho0, arf, submodules, fos, dseries, solvable,
verdict, expand, canon.  Identical inputs produce byte-identical output.

Exit codes: 0 success; 1 input error (schema violation, unknown
reference, malformed word); 2 hypothesis failure; 3 resource cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional

from concord.alexmod import (
    UnsupportedModule,
    isotropy,
    module_from_seifert,
)
from concord.construction import (
    ConstructionError,
    expand_clones,
    solvability_upper_bound,
)
from concord.document import (
    DocumentError,
    InputDocument,
    load_document,
    node_to_json,
    parse_tolerance,
)
from concord.freegroup import ResourceCapExceeded, derived_depth, parse_word
from concord.laurent import DegreeCapExceeded, factor
from concord.rhocalc import MissingAlexClass, first_order_signatures
from concord.seifert import alexander_poly, arf, rho0, signature_function
from concord.verdict import INCONCLUSIVE, verdict_for

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_HYPOTHESIS = 2
EXIT_RESOURCE = 3

GREEK = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]


def _seifert_of(doc: InputDocument, name: str):
    knot = doc.knot(name)
    if knot.seifert is None:
        raise DocumentError(f"knot {name!r} is opaque: no Seifert matrix")
    return knot.seifert


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text)


def cmd_alex(args, doc: InputDocument) -> int:
    v = _seifert_of(doc, args.knot)
    d = alexander_poly(v)
    factors = factor(d) if d.degree() > 0 else []
    fac_str = " * ".join(
        f"({p})" + (f"^{m}" if m > 1 else "") for p, m in factors
    )
    text = f"Delta({args.knot}) = {d}"
    if factors:
        text += f"\nfactors: {fac_str}"
    _emit(args, {
        "knot": args.knot,
        "alexander": d.to_json(),
        "display": str(d),
        "factors": [[p.to_json(), m] for p, m in factors],
    }, text)
    return EXIT_OK


def cmd_sig(args, doc: InputDocument) -> int:
    from concord.certified import pi_interval

    if args.samples is not None and not args.csv:
        raise ValueError("--samples sets the CSV grid and needs --csv")
    samples = 360 if args.samples is None else args.samples
    if samples < 1:
        raise ValueError(f"--samples must be >= 1, got {samples}")
    v = _seifert_of(doc, args.knot)
    sf = signature_function(v)
    err = Fraction(1, 10**12)
    thetas = sf.theta_enclosures(err, err)
    two_pi = pi_interval(err).midpoint * 2
    lines = [f"signature function of {args.knot}:"]
    jump_rows = []
    for iso, th in zip(sf.upper_jumps, thetas):
        frac = th.midpoint / two_pi
        x_mid = float((iso.lo + iso.hi) / 2)
        jump_rows.append({
            "x": x_mid,
            "theta_over_2pi": float(frac),
        })
        lines.append(f"  jump at theta/2pi = {float(frac):.9f} (x = {x_mid:.9f})")
    lines.append(f"  arc values (0..pi): {sf.upper_values}")
    lines.append(f"  full circle values: {sf.full_values()}")
    if args.csv:
        rows = _sig_csv_rows(sf, samples)
        with open(args.csv, "w") as fh:
            fh.write("theta_over_2pi,sigma\n")
            for t, s in rows:
                fh.write(f"{t:.9f},{s}\n")
        lines.append(f"  wrote {len(rows)} samples to {args.csv}")
    _emit(args, {
        "knot": args.knot,
        "jumps": jump_rows,
        "arc_values_upper": sf.upper_values,
        "full_values": sf.full_values(),
    }, "\n".join(lines))
    return EXIT_OK


def _sig_csv_rows(sf, samples: int):
    """Uniform grid over the circle; grid points that cannot be certified
    to sit inside an arc (they may equal a jump) are skipped."""
    from concord.certified import pi_interval

    err = Fraction(1, 10**15)
    thetas = sf.theta_enclosures(err, err)
    pi = pi_interval(err)
    full = sf.full_values()
    rows = []
    for k in range(samples):
        q = Fraction(k, samples)  # theta / 2pi
        if q == 0 or q == Fraction(1, 2):
            rows.append((float(q), 0 if q == 0 else full[len(full) // 2]))
            continue
        qq = q if q < Fraction(1, 2) else 1 - q  # conjugation symmetry
        # compare 2*pi*qq against the jump angles on (0, pi)
        theta_lo, theta_hi = pi.lo * 2 * qq, pi.hi * 2 * qq
        arc = 0
        skip = False
        for j, th in enumerate(thetas):
            if theta_lo > th.hi:
                arc = j + 1
            elif theta_hi < th.lo:
                break
            else:
                skip = True  # cannot separate from the jump
                break
        if not skip:
            rows.append((float(q), sf.upper_values[arc]))
    return rows


def cmd_rho0(args, doc: InputDocument) -> int:
    v = _seifert_of(doc, args.knot)
    if args.tol:
        tol, tol_text = parse_tolerance(args.tol), args.tol
    else:
        tol, tol_text = doc.options["tol"], doc.options["tol_text"]
    val = rho0(v, tol)
    digits = max(1, len(str(tol.denominator)) - 1)
    if val.is_exact():
        text = f"{val.midpoint} (exact)"
    else:
        text = f"{val.decimal_str(digits)} ± {tol_text}"
    if not args.json:
        print(text)
        return EXIT_OK
    mid = val.midpoint
    _emit(args, {
        "knot": args.knot,
        "midpoint": [_digits(mid.numerator), _digits(mid.denominator)],
        "radius": float(val.radius),
        "display": text,
    }, text)
    return EXIT_OK


def _digits(n: int) -> str:
    """Decimal text of an integer the program made, however long.  A tight
    rho0 midpoint can pass Python's limit on int-to-str conversion, which
    guards against untrusted input; Decimal's conversion has no limit."""
    from decimal import Decimal

    return str(Decimal(n))


def cmd_arf(args, doc: InputDocument) -> int:
    v = _seifert_of(doc, args.knot)
    a = arf(v)
    _emit(args, {"knot": args.knot, "arf": a}, f"arf({args.knot}) = {a}")
    return EXIT_OK


def _submodule_name(at: List[int]) -> str:
    """<alpha,...> of the submodule spanned by the isotypic components at
    positions `at`; "0" when there are none."""
    if not at:
        return "0"
    return "<" + ",".join(GREEK[i] if i < len(GREEK) else f"g{i}" for i in sorted(at)) + ">"


def cmd_submodules(args, doc: InputDocument) -> int:
    v = _seifert_of(doc, args.knot)
    mod = module_from_seifert(v)
    _, subs = isotropy(mod)
    comps = mod.isotypic_components()
    index = {c.key(): i for i, c in enumerate(comps)}
    # each generator is rendered once, however many submodules hold it
    texts = [str(c.generator) for c in comps]
    jsons = [c.generator.to_json() for c in comps]
    lines = [f"isotropic submodules of the Alexander module of {args.knot}:"]
    lines.append("  submodule | generators | dim_Q")
    payload = []
    for sub in subs:
        at = [index[k] for k in sub.component_keys]
        name = _submodule_name(at)
        gens = ", ".join(texts[i] for i in at) or "-"
        dim = sum(comps[i].dim_over_q() for i in at)
        lines.append(f"  {name} | {gens} | {dim}")
        payload.append({
            "name": name,
            "generators": [jsons[i] for i in at],
            "dim": dim,
        })
    _emit(args, {"knot": args.knot, "submodules": payload}, "\n".join(lines))
    return EXIT_OK


def cmd_fos(args, doc: InputDocument) -> int:
    node = doc.resolve(args.build)
    fos = first_order_signatures(node)
    lines = [f"first-order signatures of {args.build}:"]
    payload = []
    if fos.incomplete:
        lines.append(f"  0: {fos.terms[0]}")
        lines.append("  (incomplete: opaque base)")
        payload.append({"submodule": "0", "term": str(fos.terms[0])})
    else:
        index = {c.key(): i for i, c in enumerate(fos.module.isotypic_components())}
        for sub, term in zip(fos.submodules, fos.terms):
            name = _submodule_name([index[k] for k in sub.component_keys])
            lines.append(f"  {name}: {term}")
            payload.append({"submodule": name, "term": str(term)})
    for note in fos.notes:
        lines.append(f"  note: {note}")
    _emit(args, {
        "build": args.build,
        "terms": [str(t) for t in fos.terms],
        "terms_structured": [t.to_json() for t in fos.terms],
        "entries": payload,
        "incomplete": fos.incomplete,
        "notes": list(fos.notes),
    }, "\n".join(lines))
    return EXIT_OK


def cmd_dseries(args, doc: InputDocument) -> int:
    word = parse_word(args.word, args.rank)
    res = derived_depth(word, args.max)
    text = f"depth = {res.value}" if res.exact else f"depth >= {res.value}"
    _emit(args, {
        "word": str(word), "rank": args.rank,
        "depth": res.value, "exact": res.exact,
    }, text)
    return EXIT_OK


def cmd_solvable(args, doc: InputDocument) -> int:
    node = doc.resolve(args.build)
    deg = solvability_upper_bound(node)
    text = f"solvable upper bound: {deg}"
    for n in deg.notes:
        text += f"\nnote: {n}"
    _emit(args, {
        "build": args.build,
        "level": deg.display(),
        "rational_only": deg.rational_only,
        "assumed": deg.assumed,
        "notes": list(deg.notes),
    }, text)
    return EXIT_OK if deg.known() else EXIT_HYPOTHESIS


def cmd_verdict(args, doc: InputDocument) -> int:
    v = verdict_for(doc.resolve(args.build), doc.axioms, sharp_constant=args.sharp_constant)
    _emit(args, {"build": args.build, **v.to_json()}, v.transcript())
    if v.failed_hypotheses() or v.conclusion == INCONCLUSIVE and not v.all_certified():
        return EXIT_HYPOTHESIS
    return EXIT_OK


def cmd_expand(args, doc: InputDocument) -> int:
    node = doc.resolve(args.build)
    out = expand_clones(node, args.level)
    text = json.dumps(node_to_json(out), sort_keys=True, indent=2)
    _emit(args, {"build": args.build, "level": args.level,
                 "tree": node_to_json(out)}, text)
    return EXIT_OK


def cmd_canon(args, doc: InputDocument) -> int:
    node = doc.resolve(args.build)
    text = json.dumps(node_to_json(node), sort_keys=True, indent=2)
    _emit(args, {"build": args.build, "tree": node_to_json(node)}, text)
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="concord",
        description="exact knot/link concordance obstruction calculator",
    )
    ap.add_argument("--doc", help="JSON input document")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alex", help="Alexander polynomial of a knot")
    p.add_argument("knot")
    p.set_defaults(fn=cmd_alex)

    p = sub.add_parser("sig", help="Levine signature function")
    p.add_argument("knot")
    p.add_argument("--csv", help="write sampled values to a CSV file")
    p.add_argument("--samples", type=int, help="CSV grid points (default 360; needs --csv)")
    p.set_defaults(fn=cmd_sig)

    p = sub.add_parser("rho0", help="certified signature integral")
    p.add_argument("knot")
    p.add_argument("--tol", help="certified radius, e.g. 1e-9")
    p.set_defaults(fn=cmd_rho0)

    p = sub.add_parser("arf", help="Arf invariant")
    p.add_argument("knot")
    p.set_defaults(fn=cmd_arf)

    p = sub.add_parser("submodules", help="isotropy lattice of the Alexander module")
    p.add_argument("knot")
    p.set_defaults(fn=cmd_submodules)

    p = sub.add_parser("fos", help="first-order signature set")
    p.add_argument("build")
    p.set_defaults(fn=cmd_fos)

    p = sub.add_parser("dseries", help="derived-series depth of a free word")
    p.add_argument("word")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--max", type=int, default=5)
    p.set_defaults(fn=cmd_dseries)

    p = sub.add_parser("solvable", help="best provable filtration level")
    p.add_argument("build")
    p.set_defaults(fn=cmd_solvable)

    p = sub.add_parser("verdict", help="slice/solvability obstruction verdict")
    p.add_argument("build")
    p.add_argument("--sharp-constant", action="store_true",
                   help="cite the depth-independent bound constant "
                        "(doubling rule only)")
    p.set_defaults(fn=cmd_verdict)

    p = sub.add_parser("expand", help="clone expansion of a doubling tower")
    p.add_argument("build")
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("canon", help="validate and echo the canonical tree")
    p.add_argument("build")
    p.set_defaults(fn=cmd_canon)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        doc = load_document(args.doc)
        return args.fn(args, doc)
    except (DocumentError, ConstructionError, MissingAlexClass,
            UnsupportedModule, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (ResourceCapExceeded, DegreeCapExceeded) as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
