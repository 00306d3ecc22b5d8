"""Command line front end: group info, excess reports, theorem suites, repros.

Exit status is 0 exactly when every requested check passed and every golden
diff was empty.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .descriptors import CoxeterDescriptor, parse_descriptor
from .elements import GuardExceeded, effective_guard, element_from_word
from .excess import CSV_HEADER, excess_report, involutions_inverting
from .parabolic import generator_subsets, parabolic_context
from .repro import EXAMPLES, run_example
from .rootsystem import build_root_system, save_root_system
from .signedperm import parse as parse_cycles
from .signedperm import to_root_perm
from .verify import make_config, run_suite, theorem_names


def _descriptor_from_args(args) -> CoxeterDescriptor:
    token = args.type
    if token is None:
        raise SystemExit("error: --type is required")
    try:
        if args.rank is None and args.m is None and any(ch.isdigit() for ch in token):
            return parse_descriptor(token)
        if token == "I2":
            if args.m is None:
                raise SystemExit("error: --m is required for I2")
            return CoxeterDescriptor("I2", 2, args.m)
        if args.rank is None:
            return parse_descriptor(token)
        return CoxeterDescriptor(token, args.rank)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _descriptor_list(args) -> list[CoxeterDescriptor]:
    if args.type and "," in args.type:
        if args.rank is not None or args.m is not None:
            raise SystemExit("error: give either a comma list or --rank/--m, not both")
        try:
            return [parse_descriptor(tok) for tok in args.type.split(",") if tok.strip()]
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
    return [_descriptor_from_args(args)]


def _write_out(args, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)


def _parse_parabolic(value: str):
    if value in ("all", "maximal"):
        return value
    try:
        return tuple(sorted(int(tok) - 1 for tok in value.replace(",", " ").split()))
    except ValueError:
        raise SystemExit(f"error: cannot parse parabolic selection {value!r}")


def _guard(args) -> int:
    try:
        return effective_guard(args.guard)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _system(desc: CoxeterDescriptor, guard: int):
    try:
        return build_root_system(desc, guard)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _cmd_group_info(args) -> int:
    desc = _descriptor_from_args(args)
    guard = _guard(args)
    rs = _system(desc, guard)
    info = {
        "descriptor": desc.name,
        "rank": rs.rank,
        "positive_roots": rs.num_positive,
        "order": rs.order(),
        "reflections": rs.num_positive,
        "longest_element_length": rs.num_positive,
        "enumerable_under_guard": rs.order() <= guard,
        "guard": guard,
    }
    if args.format == "json":
        print(json.dumps(info, indent=1, sort_keys=True))
    else:
        for k in ("descriptor", "rank", "positive_roots", "order", "reflections",
                  "longest_element_length", "enumerable_under_guard"):
            print(f"{k}: {info[k]}")
    if args.out:
        save_root_system(rs, args.out)
        print(f"root system written to {args.out}", file=sys.stderr)
    return 0


def _parse_word(value: str, rank: int) -> tuple[int, ...]:
    """1-based generator numbers, space or comma separated, to 0-based."""
    try:
        word = tuple(int(tok) - 1 for tok in value.replace(",", " ").split())
    except ValueError:
        raise SystemExit(f"error: cannot parse word {value!r}")
    bad = sorted({r + 1 for r in word if not 0 <= r < rank})
    if bad:
        raise SystemExit(f"error: generators {bad} out of range 1..{rank}")
    return word


def _cmd_excess(args) -> int:
    desc = _descriptor_from_args(args)
    if args.element is None and args.word is None:
        raise SystemExit("error: --element or --word is required")
    if args.element is not None and desc.family not in ("A", "B", "D"):
        raise SystemExit("error: cycle-notation elements need family A, B or D")
    guard = _guard(args)
    rs = _system(desc, guard)
    if args.word is not None:
        w = element_from_word(rs, _parse_word(args.word, rs.rank))
    else:
        try:
            sp = parse_cycles(args.element, desc.degree)
            w = to_root_perm(sp, rs)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
    contexts = []
    if args.parabolic is not None:
        subsets = generator_subsets(rs, _parse_parabolic(args.parabolic))
        try:
            contexts = [parabolic_context(rs, J) for J in subsets]
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
        if len(contexts) == 1 and not contexts[0].contains(w):
            raise SystemExit("error: element is not in the requested parabolic subgroup")
    report = excess_report(rs, w, tuple(contexts), involutions_inverting(rs, w, guard))
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CSV_HEADER)
        writer.writerows(report.csv_rows())
        _write_out(args, buf.getvalue().rstrip("\n"))
    else:
        _write_out(args, json.dumps(report.to_json_dict(), indent=1, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    descriptors = _descriptor_list(args)
    theorems = tuple(args.theorem) if args.theorem else ("all",)
    try:
        config = make_config(
            descriptors,
            theorems=theorems,
            parabolic=_parse_parabolic(args.parabolic),
            guard=args.guard,
            strategy=args.strategy,
        )
        result = run_suite(config)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(result.csv_rows())
        _write_out(args, buf.getvalue().rstrip("\n"))
    else:
        _write_out(args, result.to_json())
    for check in result.checks:
        line = f"[{check.status:4s}] {check.theorem} on {check.descriptor}"
        if check.status == "pass":
            line += f" ({check.passes} checks)"
        elif check.status == "fail":
            line += f" ({check.failures} failures)"
        else:
            line += f" ({check.reason})"
        print(line, file=sys.stderr)
    return 0 if result.failures_total == 0 else 1


def _cmd_repro(args) -> int:
    try:
        result = run_example(args.example)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if args.format == "json":
        _write_out(args, json.dumps(result.to_json_dict(), indent=1, sort_keys=True))
    else:
        lines = [f"example: {result.example}"]
        lines += [f"  {k}: {v}" for k, v in sorted(result.details.items())]
        if result.ok:
            lines.append("ok: recomputed values match the golden data")
        else:
            lines.append("MISMATCH:")
            lines += [f"  {d}" for d in result.diffs]
        _write_out(args, "\n".join(lines))
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxex",
        description="excess statistics and inverting involutions in finite Coxeter groups")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out="write the report to this path"):
        p.add_argument("--type", help="family letter or compact name (B, B3, I2(6))")
        p.add_argument("--rank", type=int, help="rank for families A/B/D")
        p.add_argument("--m", type=int, help="m for dihedral I2(m)")
        p.add_argument("--guard", type=int, default=None,
                       help="cost guard of enumerations, and of root-system builds "
                            "above the default (default 10^7 or $COXEX_GUARD)")
        p.add_argument("--out", help=out)

    group = sub.add_parser("group", help="root system and group information")
    gsub = group.add_subparsers(dest="group_command", required=True)
    ginfo = gsub.add_parser("info", help="sizes, rank, longest element")
    common(ginfo, out="write the root system as JSON to this path "
                      "(coxex.load_root_system reads it)")
    ginfo.add_argument("--format", choices=["text", "json"], default="text")
    ginfo.set_defaults(func=_cmd_group_info)

    exc = sub.add_parser("excess", help="excess report for one element")
    common(exc)
    which = exc.add_mutually_exclusive_group()
    which.add_argument("--element", help='cycle notation, e.g. "(+2 +3 +5)" (A, B, D)')
    which.add_argument("--word",
                       help='product of 1-based generators, e.g. "1 2 3" (any family)')
    exc.add_argument("--parabolic", help='"all", "maximal" or 1-based indices "1 2 3"')
    exc.add_argument("--format", choices=["json", "csv"], default="json")
    exc.set_defaults(func=_cmd_excess)

    ver = sub.add_parser("verify", help="run theorem suites exhaustively")
    common(ver)
    ver.add_argument("--theorem", action="append",
                     help=f"theorem name or 'all'; known: {', '.join(theorem_names())}")
    ver.add_argument("--parabolic", default="all",
                     help='"all", "maximal" or 1-based indices "1 2 3"')
    ver.add_argument("--strategy", choices=["direct", "maximal-reduction"],
                     default="direct")
    ver.add_argument("--format", choices=["json", "csv"], default="json")
    ver.set_defaults(func=_cmd_verify)

    rep = sub.add_parser("repro", help="recompute a golden worked example")
    rep.add_argument("example", choices=sorted(EXAMPLES))
    rep.add_argument("--format", choices=["text", "json"], default="text")
    rep.add_argument("--out", help="write the report to this path")
    rep.set_defaults(func=_cmd_repro)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GuardExceeded as exc:  # one line, from any command
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
