"""Command-line front-end: compile, eval, separate, stats.

Exit codes: 0 success (or same orbit), 1 different orbit, 2 usage/parse
errors (malformed spec or separator files included), 3 compile ceiling
exceeded.
"""

import argparse
import json
import sys

from .compiler import (CellCapError, CompileError, CompiledSeparator, GroupSpec,
                       OrbitParams, RepSpec, compile_separator, evaluate,
                       signature_hash, stats)
from .field import QQ, FieldError, PrimeField, field_from_json
from .polynomials import PolynomialParseError
from .slp import ProgramError

EXIT_SAME = 0
EXIT_DIFFERENT = 1
EXIT_ERROR = 2
EXIT_CEILING = 3


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise CompileError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")


def _parse_field(text):
    if text == "rational":
        return QQ
    try:
        p = int(text)
    except ValueError:
        raise FieldError(f"--field must be 'rational' or a prime, got {text!r}")
    return PrimeField(p)


def _resolve_field(args, params_obj):
    if getattr(args, "field", None):
        return _parse_field(args.field)
    if params_obj and params_obj.get("field") is not None:
        return field_from_json(params_obj["field"])
    return QQ


def _parse_point(text, field):
    return [field.parse(tok) for tok in text.split(",")]


def cmd_compile(args):
    params_obj = _load_json(args.params) if args.params else {}
    if not isinstance(params_obj, dict):
        raise CompileError(f"{args.params}: the params file must be a JSON object")
    field = _resolve_field(args, params_obj)
    group = GroupSpec.from_json_dict(_load_json(args.group), field)
    rep = RepSpec.from_json_dict(_load_json(args.rep), group, field)
    params = OrbitParams(max_orbit_dim=params_obj.get("r"),
                         bound_override=params_obj.get("bound_override"))
    sep = compile_separator(group, rep, params)
    sep.save(args.out)
    meta = sep.meta
    print(f"wrote {args.out}")
    print(f"field: {sep.program.field!r}")
    print(f"degree bound d_max = {meta['d_max']}")
    print(f"signature length |C| = {meta['signature_length']}")
    print(f"program length = {len(sep.program)}")
    return EXIT_SAME


def cmd_eval(args):
    sep = CompiledSeparator.load(args.separator)
    field = sep.program.field
    point = _parse_point(args.point, field)
    sig = evaluate(sep, point)
    if args.json:
        print(json.dumps({"field": field.to_json(),
                          "signature": [field.fmt(v) for v in sig]}))
    else:
        print(",".join(field.fmt(v) for v in sig))
    return EXIT_SAME


def cmd_separate(args):
    sep = CompiledSeparator.load(args.separator)
    field = sep.program.field
    p = _parse_point(args.p, field)
    q = _parse_point(args.q, field)
    sig_p = evaluate(sep, p)
    sig_q = evaluate(sep, q)
    if sig_p == sig_q:
        print(f"SAME-ORBIT {signature_hash(sep, sig_p)}")
        return EXIT_SAME
    print(f"DIFFERENT-ORBIT p={signature_hash(sep, sig_p)} "
          f"q={signature_hash(sep, sig_q)}")
    return EXIT_DIFFERENT


def cmd_stats(args):
    sep = CompiledSeparator.load(args.separator)
    report = stats(sep)
    if args.json:
        print(json.dumps(report, sort_keys=True))
        return EXIT_SAME
    print(f"program length     {report['instruction_total']}")
    counts = report["census"]
    print("census             " + "  ".join(
        f"{name}={counts[name]}" for name in
        ("add", "sub", "mul", "qinv", "const", "recall")))
    print(f"signature length   {report['signature_length']}")
    print(f"degree bound       {report['d_max']}")
    print("phase totals       " + "  ".join(
        f"{k}={v}" for k, v in sorted(report["phase_totals"].items())))
    for rec in report["iterations"]:
        phases = "  ".join(f"{k}={v}" for k, v in rec["phases"].items())
        print(f"iteration {rec['i']}:  matrix {rec['rows']}x"
              f"{rec['tracked_cols'] + rec['ideal_cols']}"
              f"  signature +{rec['sig_len']}  {phases}")
    return EXIT_SAME


def build_parser():
    parser = argparse.ArgumentParser(
        prog="orbitslp",
        description="Compile group actions into branch-free orbit-separating "
                    "programs; evaluate signatures and decide orbit membership.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a separator from spec files")
    p.add_argument("--group", required=True, help="group spec JSON")
    p.add_argument("--rep", required=True, help="representation spec JSON")
    p.add_argument("--params", help="params JSON (r, bound_override, field)")
    p.add_argument("--field", help="'rational' or a prime p")
    p.add_argument("--out", required=True, help="output separator file")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("eval", help="evaluate a signature at a point")
    p.add_argument("separator", help="compiled separator file")
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("separate", help="decide whether two points share an orbit")
    p.add_argument("separator", help="compiled separator file")
    p.add_argument("--p", required=True, help="first point")
    p.add_argument("--q", required=True, help="second point")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("stats", help="instruction census of a separator")
    p.add_argument("separator", help="compiled separator file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CellCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CEILING
    except (CompileError, FieldError, ProgramError, PolynomialParseError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
