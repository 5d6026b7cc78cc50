"""Command-line driver.

Subcommands: list-characters, lvalue, bessel, verify, suite, positivity.
Exit status: 0 when every requested verification passes, 1 when any case
fails its tolerance, 2 on usage or hypothesis errors (the message names
the violated clause).
"""

from __future__ import annotations

import argparse
import json
import sys

from .bessel import bessel_I, bessel_J, bessel_K, bessel_Y
from .characters import enumerate_characters
from .errors import TblabError
from .identities import (
    IdentityCase,
    THEOREMS,
    default_cases,
    positivity_scan,
    report_record,
    run_suite,
    verify,
    write_reports,
)
from .specfun import dirichlet_L


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tblab",
        description="verification laboratory for character-twisted Bessel-series identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list-characters", help="enumerate the characters mod q")
    p.add_argument("--q", type=int, required=True)

    p = sub.add_parser("lvalue", help="evaluate L(s, chi)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--char", type=int, required=True, metavar="IDX")
    p.add_argument("--s", type=str, required=True, metavar="RE[,IM]")

    p = sub.add_parser("bessel", help="evaluate a Bessel function")
    p.add_argument("--kind", choices=["K", "I", "J", "Y"], required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--x", type=float, required=True)

    p = sub.add_parser("verify", help="verify one identity instance")
    p.add_argument("--theorem", required=True, metavar="ID")
    p.add_argument("--q", type=int)
    p.add_argument("--char", type=int, dest="char_index")
    p.add_argument("--p", type=int)
    p.add_argument("--char2", type=int, dest="char2_index")
    p.add_argument("--k", type=int)
    p.add_argument("--nu", type=float)
    p.add_argument("--a", type=float)
    p.add_argument("--x", type=float)
    p.add_argument("--N", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--f", type=str)
    p.add_argument("--tol", type=float)
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.add_argument("--out", type=str)

    p = sub.add_parser("suite", help="run registered verification cases")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true")
    group.add_argument("--filter", type=str, metavar="PREFIX")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.add_argument("--out", type=str)

    p = sub.add_parser("positivity", help="scan L(1, chi) for real primitive chi")
    p.add_argument("--qmax", type=int, default=50)

    return parser


def _parse_s(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise TblabError(f"cannot parse s = {text!r}; expected re or re,im")


def _case_from_args(args) -> IdentityCase:
    if args.theorem not in THEOREMS:
        raise TblabError(
            f"unknown theorem id {args.theorem!r}; valid ids: "
            + ", ".join(sorted(THEOREMS)))
    fields = {}
    for name in ("q", "char_index", "p", "char2_index", "k", "nu",
                 "a", "x", "N", "alpha", "beta", "f"):
        val = getattr(args, name)
        if val is not None:
            fields[name] = val
    return IdentityCase(theorem=args.theorem, **fields)


def _print_report(report) -> None:
    case = report.case
    verdict = "pass" if report.passed else "FAIL"
    print(f"{case.theorem} {case.params()}")
    print(f"  lhs = {report.lhs:.15g}")
    print(f"  rhs = {report.rhs:.15g}")
    print(f"  abs_err = {report.abs_err:.3e}  rel_err = {report.rel_err:.3e}  "
          f"tol = {report.tol:.1e}  terms = {report.lhs_terms}+{report.rhs_terms}  "
          f"[{verdict}] ({report.wall_ms:.0f} ms)")


def _emit_records(reports, path: str | None) -> None:
    """Structured output: JSON lines into path, or onto stdout."""
    if path:
        write_reports(reports, path, fmt="jsonl")
    else:
        for rec in map(report_record, reports):
            print(json.dumps(rec, sort_keys=True, allow_nan=False))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except TblabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "list-characters":
        for chi in enumerate_characters(args.q):
            print(f"index {chi.index}: {chi.parity}, order {chi.order}, "
                  f"conductor {chi.conductor}, "
                  f"{'primitive' if chi.is_primitive else 'imprimitive'}"
                  + (", principal" if chi.is_principal else ""))
        return 0

    if args.command == "lvalue":
        chars = enumerate_characters(args.q)
        if not 0 <= args.char < len(chars):
            raise TblabError(
                f"character index {args.char} out of range (phi({args.q}) = {len(chars)})")
        s = _parse_s(args.s)
        val = dirichlet_L(s, chars[args.char])
        print(f"L({s:g}, chi({args.q},{args.char})) = {val:.15g}  [hurwitz-em]")
        return 0

    if args.command == "bessel":
        fn = {"K": bessel_K, "I": bessel_I, "J": bessel_J, "Y": bessel_Y}[args.kind]
        print(f"{args.kind}_{args.nu:g}({args.x:g}) = {fn(args.nu, args.x):.15g}")
        return 0

    if args.command == "verify":
        case = _case_from_args(args)
        report = verify(case, tol=args.tol)
        if args.format == "structured":
            _emit_records([report], args.out)
        else:
            _print_report(report)
        return 0 if report.passed else 1

    if args.command == "suite":
        selector = "all" if args.all else args.filter
        cases = default_cases(selector)
        if not cases:
            print("no cases match the filter")
            return 0
        reports = run_suite(selector, workers=args.workers)
        if args.format == "structured":
            _emit_records(reports, args.out)
        else:
            for report in reports:
                _print_report(report)
        failed = sum(not r.passed for r in reports)
        print(f"{len(reports)} cases, {len(reports) - failed} passed, {failed} failed")
        return 0 if failed == 0 else 1

    if args.command == "positivity":
        rows = positivity_scan(args.qmax)
        bad = 0
        for q, idx, val in rows:
            mark = "" if val > 0 else "  <-- NOT POSITIVE"
            print(f"q={q:3d} index={idx:2d}  L(1,chi) = {val:.12f}{mark}")
            bad += val <= 0
        print(f"{len(rows)} real primitive characters, all positive: {bad == 0}")
        return 0 if bad == 0 else 1

    raise TblabError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
