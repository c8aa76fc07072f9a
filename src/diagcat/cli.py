"""Command-line interface.

Subcommands: `model inspect`, `char-group`, `axioms check`,
`paren encode|decode|count`, `stab qpolys|is-stable|defining-degree|degrees-equal`.

Exit codes: 0 success, 1 mathematical failure (failed axiom, unknown at cap),
2 usage or parse error. JSON output is byte-identical for identical inputs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction

from . import abelian, axioms, diagrep, laurent, paren, stab
from .field import ExactField, parse_field


class UsageError(ValueError):
    pass


def _nonnegative(text: str) -> int:
    """argparse type of a count or bound: an int >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _emit(payload: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(text)


def _load_group_file(path: str) -> laurent.SubgroupPresentation:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise UsageError(f"group file {path} is not a JSON object")
    if data.get("schema") != 1:
        raise UsageError(f"unsupported schema in {path}")
    for key in ("field", "n"):
        if key not in data:
            raise UsageError(f"group file {path} has no {key!r}")
    field = parse_field(data["field"])
    n = int(data["n"])
    texts = data.get("generators", [])
    gens = tuple(laurent.parse_element(field, n, g) for g in texts)
    # a subgroup contains the identity: every generator vanishes at (I, I)
    eye = [[field.one() if i == j else field.zero() for j in range(n)] for i in range(n)]
    for text, g in zip(texts, gens):
        value = laurent.evaluate_at_point(g, eye, eye)
        if value != field.zero():
            raise UsageError(
                f"group file {path}: generator {text!r} is {value} at the "
                "identity, so its zero set is not a subgroup"
            )
    weights = None
    if "weights" in data and data["weights"] is not None:
        group = abelian.parse_group(data["weights"]["group"])
        weights = tuple(
            abelian.parse_element(group, e) for e in data["weights"]["elements"]
        )
        if len(weights) != n:
            raise UsageError("weights must list one character per matrix row")
    name = data.get("name", "")
    ideal = laurent.LaurentIdeal(field, n, gens, name)
    return laurent.SubgroupPresentation(field, n, ideal, weights, name)


def _load_matrix(field: ExactField, path: str):
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([field.of(Fraction(tok)) for tok in line.split(",")])
    if not rows:
        raise UsageError(f"matrix file {path} is empty")
    return rows


def _resolve_presentation(args) -> laurent.SubgroupPresentation:
    if getattr(args, "group_file", None):
        return _load_group_file(args.group_file)
    if getattr(args, "catalog", None):
        field = parse_field(getattr(args, "field", None) or "Q")
        cat = laurent.catalog(field)
        if args.catalog not in cat:
            raise UsageError(
                f"unknown catalog group {args.catalog!r}; "
                f"choices: {', '.join(sorted(cat))}"
            )
        return cat[args.catalog]
    raise UsageError("need --group-file or --catalog")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_model_inspect(args) -> int:
    field = parse_field(args.field)
    group = abelian.parse_group(args.group)
    axioms.bounds(args.max_dim, args.max_len)  # same bound check as `axioms check`
    if args.hom:
        src = diagrep.parse_object(group, args.hom[0])
        tgt = diagrep.parse_object(group, args.hom[1])
        hs = diagrep.hom_space(field, src, tgt)
        payload = {
            "schema": 1,
            "field": str(field),
            "group": str(group),
            "source": diagrep.object_json(src),
            "target": diagrep.object_json(tgt),
            "dimension": hs.dim,
            "basis": [diagrep.morphism_json(f) for f in hs.basis],
        }
        text = (
            f"Hom({diagrep.format_object(src)}, {diagrep.format_object(tgt)}) "
            f"has dimension {hs.dim}"
        )
        _emit(payload, args.json, text)
        return 0
    if group.is_finite:
        objects = diagrep.enumerate_objects(group, args.max_dim, args.max_len)
    else:
        elems = _bounded_elements(group, args.coord_bound)
        objects = diagrep.objects_from(elems, args.max_dim, args.max_len)
    entries = [
        {
            "object": str(b),
            "sort": list(b.sort),
            "weights": [str(w) for w in diagrep.isotypic_weights(b)],
            "dual": str(diagrep.dual_data(field, b).dual),
        }
        for b in itertools.islice(objects, args.limit)
    ]
    payload = {
        "schema": 1,
        "field": str(field),
        "group": str(group),
        "max_dim": args.max_dim,
        "max_len": args.max_len,
        "objects": entries,
        "count": len(entries),
    }
    lines = [f"model over {field} with character group {group}"]
    for entry in payload["objects"]:
        lines.append(
            f"  {entry['object']}  sort={tuple(entry['sort'])}"
            f"  dual={entry['dual']}"
        )
    _emit(payload, args.json, "\n".join(lines))
    return 0


def _bounded_elements(group, bound):
    ranges = []
    for _ in range(group.rank):
        ranges.append(range(-bound, bound + 1))
    for d in group.torsion:
        ranges.append(range(d))
    return [group.element(c) for c in itertools.product(*ranges)]


def cmd_char_group(args) -> int:
    group = abelian.parse_group(args.group)
    if group.is_finite:
        elems = group.elements()
    else:
        elems = _bounded_elements(group, args.bound)
    check = diagrep.character_group_check(group, elems)
    payload = {
        "schema": 1,
        "group": str(group),
        "elements_checked": len(elems),
        "pairs_checked": check.checked_pairs,
        "isomorphism_verified": check.ok,
        "failures": list(check.failures),
    }
    verdict = "pass" if check.ok else "FAIL"
    text = (
        f"extracted character group of the model over {group}: "
        f"table on {len(elems)} elements ({check.checked_pairs} pairs) -> {verdict}"
    )
    _emit(payload, args.json, text)
    return 0 if check.ok else 1


def cmd_axioms_check(args) -> int:
    field = parse_field(args.field)
    group = abelian.parse_group(args.group)
    bound = axioms.bounds(args.max_dim, args.max_len)
    model = None
    if args.mutate:
        model = axioms.mutated_model(field, group, bound, args.mutate)
    report = axioms.check_axioms(field, group, bound, model)
    _emit(report.to_json(), args.json, axioms.report_to_text(report))
    return 0 if report.all_pass else 1


def cmd_paren_encode(args) -> int:
    pattern = paren.parse_pattern(args.pattern)
    code = paren.encode_pattern(pattern, args.pad_to)
    payload = {
        "schema": 1,
        "pattern": paren.format_pattern(pattern),
        "bits": code,
        "blocks": paren.format_bits(code),
    }
    _emit(payload, args.json, paren.format_bits(code))
    return 0


def cmd_paren_decode(args) -> int:
    pattern = paren.decode_pattern(args.bits)
    payload = {
        "schema": 1,
        "pattern": paren.format_pattern(pattern),
        "groups": len(pattern.slots),
        "slots": list(pattern.slots),
    }
    _emit(payload, args.json, paren.format_pattern(pattern))
    return 0


def cmd_paren_count(args) -> int:
    shapes = paren.enumerate_shapes(args.leaves)
    payload = {
        "schema": 1,
        "leaves": args.leaves,
        "count": len(shapes),
        "catalan_index": args.leaves - 1,
    }
    _emit(payload, args.json, str(len(shapes)))
    return 0


def cmd_stab_qpolys(args) -> int:
    field = parse_field(args.field)
    shape = stab.parse_shape(args.shape)
    matrix = _load_matrix(field, args.matrix)
    pivots = tuple(int(p) for p in args.pivots.split(","))
    prob = stab.StabilizerProblem(
        shape, args.n, pivots, tuple(tuple(r) for r in matrix), field
    )
    qs = stab.stabilizer_polys(prob)
    payload = {
        "schema": 1,
        "shape": str(shape),
        "n": args.n,
        "pivot_rows": list(pivots),
        "polynomials": [laurent.format_element(q) for q in qs],
    }
    _emit(payload, args.json, "\n".join(payload["polynomials"]) or "(none)")
    return 0


def cmd_stab_is_stable(args) -> int:
    field = parse_field(args.field)
    group = abelian.parse_group(args.group)
    obj = diagrep.parse_object(group, args.object)
    shape = stab.parse_shape(args.shape)
    matrix = _load_matrix(field, args.matrix)
    stable = stab.is_stable(field, obj, shape, matrix)
    payload = {
        "schema": 1,
        "object": str(obj),
        "shape": str(shape),
        "stable": stable,
    }
    _emit(payload, args.json, "stable" if stable else "not stable")
    return 0


def cmd_stab_defining_degree(args) -> int:
    pres = _resolve_presentation(args)
    result = stab.defining_degree(pres, args.dmax, args.cap)
    payload = {
        "schema": 1,
        "group": pres.name or "(unnamed)",
        "status": result.status,
        "defining_degree": result.degree,
        "minimality_certified": result.minimality_certified,
        "slices_exact": result.slices_exact,
        "cap": result.cap,
        "witnesses_verified": result.witness_ok() if result.status == "found" else None,
        "refuted_degrees": [
            {"d": r.d, "definitive": r.definitive} for r in result.refutations
        ],
    }
    if result.status == "found":
        text = str(result.degree)
    elif result.status == "exceeds":
        text = f"exceeds {args.dmax}"
    else:
        text = f"unknown at cap {args.cap}"
    _emit(payload, args.json, text)
    return 0 if result.status == "found" else 1


def cmd_stab_degrees_equal(args) -> int:
    pres = _resolve_presentation(args)
    result = stab.degrees_equal_check(pres, args.d, args.dprime, args.cap)
    payload = {
        "schema": 1,
        "group": pres.name or "(unnamed)",
        "d": args.d,
        "d_prime": args.dprime,
        "status": result.status,
    }
    _emit(payload, args.json, result.status)
    return 0 if result.status in ("equal", "not_equal") else 1


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="diagcat",
        description=(
            "Exact models of diagonalizable group representation categories: "
            "axiom checking, character extraction, parenthesization codecs, "
            "stabilizer polynomials and defining degrees."
        ),
    )
    sub = top.add_subparsers(dest="command", required=True)

    model = sub.add_parser("model", help="inspect the canonical model")
    model_sub = model.add_subparsers(dest="subcommand", required=True)
    inspect = model_sub.add_parser("inspect", help="list objects of the fragment")
    inspect.add_argument("--field", required=True)
    inspect.add_argument("--group", required=True)
    inspect.add_argument("--max-dim", type=int, default=2, dest="max_dim")
    inspect.add_argument("--max-len", type=int, default=2, dest="max_len")
    inspect.add_argument("--coord-bound", type=_nonnegative, default=2, dest="coord_bound")
    inspect.add_argument("--limit", type=_nonnegative, default=100)
    inspect.add_argument(
        "--hom",
        nargs=2,
        metavar=("SRC", "TGT"),
        default=None,
        help="show the morphism space between two objects (S-expressions)",
    )
    inspect.add_argument("--json", action="store_true")
    inspect.set_defaults(fn=cmd_model_inspect)

    cg = sub.add_parser("char-group", help="extract and verify the character group")
    cg.add_argument("--group", required=True)
    cg.add_argument("--bound", type=_nonnegative, default=3)
    cg.add_argument("--json", action="store_true")
    cg.set_defaults(fn=cmd_char_group)

    axp = sub.add_parser("axioms", help="axiom checking")
    ax_sub = axp.add_subparsers(dest="subcommand", required=True)
    check = ax_sub.add_parser("check", help="check the 27 axioms on a fragment")
    check.add_argument("--field", required=True)
    check.add_argument("--group", required=True)
    check.add_argument("--max-dim", type=int, default=2, dest="max_dim")
    check.add_argument("--max-len", type=int, default=2, dest="max_len")
    check.add_argument(
        "--mutate", default=None, choices=sorted(axioms.MUTATIONS), help=argparse.SUPPRESS
    )
    check.add_argument("--json", action="store_true")
    check.set_defaults(fn=cmd_axioms_check)

    pp = sub.add_parser("paren", help="parenthesization codec")
    pp_sub = pp.add_subparsers(dest="subcommand", required=True)
    enc = pp_sub.add_parser("encode")
    enc.add_argument("--pattern", required=True)
    enc.add_argument("--pad-to", type=int, default=None, dest="pad_to")
    enc.add_argument("--json", action="store_true")
    enc.set_defaults(fn=cmd_paren_encode)
    dec = pp_sub.add_parser("decode")
    dec.add_argument("--bits", required=True)
    dec.add_argument("--json", action="store_true")
    dec.set_defaults(fn=cmd_paren_decode)
    cnt = pp_sub.add_parser("count")
    cnt.add_argument("--leaves", type=int, required=True)
    cnt.add_argument("--json", action="store_true")
    cnt.set_defaults(fn=cmd_paren_count)

    st = sub.add_parser("stab", help="stabilizers and defining degrees")
    st_sub = st.add_subparsers(dest="subcommand", required=True)
    qp = st_sub.add_parser("qpolys")
    qp.add_argument("--shape", required=True)
    qp.add_argument("--n", type=int, required=True)
    qp.add_argument("--pivots", required=True, help="comma-separated 1-based rows")
    qp.add_argument("--matrix", required=True, help="CSV file, s rows of r entries")
    qp.add_argument("--field", default="Q")
    qp.add_argument("--json", action="store_true")
    qp.set_defaults(fn=cmd_stab_qpolys)
    ist = st_sub.add_parser("is-stable")
    ist.add_argument("--shape", required=True)
    ist.add_argument("--object", required=True, help="S-expression of weight multisets")
    ist.add_argument("--group", required=True)
    ist.add_argument("--matrix", required=True)
    ist.add_argument("--field", default="Q")
    ist.add_argument("--json", action="store_true")
    ist.set_defaults(fn=cmd_stab_is_stable)
    dd = st_sub.add_parser("defining-degree")
    dd.add_argument("--group-file", default=None, dest="group_file")
    dd.add_argument("--catalog", default=None)
    dd.add_argument("--field", default=None)
    dd.add_argument("--dmax", type=_nonnegative, default=4)
    dd.add_argument("--cap", type=int, default=8)
    dd.add_argument("--json", action="store_true")
    dd.set_defaults(fn=cmd_stab_defining_degree)
    de = st_sub.add_parser("degrees-equal")
    de.add_argument("--group-file", default=None, dest="group_file")
    de.add_argument("--catalog", default=None)
    de.add_argument("--field", default=None)
    de.add_argument("--d", type=_nonnegative, required=True)
    de.add_argument("--dprime", type=_nonnegative, required=True)
    de.add_argument("--cap", type=int, default=8)
    de.add_argument("--json", action="store_true")
    de.set_defaults(fn=cmd_stab_degrees_equal)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
