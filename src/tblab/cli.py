"""Command-line driver.

Subcommands: list-characters, lvalue, bessel, verify, suite, positivity.
Exit status: 0 when every requested verification passes, 1 when any case
fails its tolerance, 2 on usage or hypothesis errors (the message names
the violated clause).
"""

from __future__ import annotations

import argparse
import re
import sys

from .bessel import bessel_I, bessel_J, bessel_K, bessel_Y
from .characters import enumerate_characters
from .errors import TblabError
from .identities import (
    _PARAM_TYPES,
    IdentityCase,
    _get_char,
    positivity_scan,
    run_suite,
    verify,
    write_reports,
)
from .specfun import dirichlet_L


# verify's flags are IdentityCase's parameter fields, each typed by the T
# of its annotation T | None and named --<field> but for these two
_FLAG_NAMES = {"char_index": "--char", "char2_index": "--char2"}

# argparse takes a word after a flag for an option when it starts with "-"
# and is not a plain number, as "-1.7,3", "-1e-3" and "-inf" are; such a
# word is joined to the flag before, "--s=-1.7,3", so tblab parses it
_SIGNED_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _join_signed_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _SIGNED_VALUE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


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
    for name, kind in _PARAM_TYPES.items():
        p.add_argument(_FLAG_NAMES.get(name, "--" + name), dest=name, type=kind)
    p.add_argument("--tol", type=float)
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.add_argument("--out", type=str)

    p = sub.add_parser("suite", help="run registered verification cases")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true")
    group.add_argument("--filter", type=str, metavar="PREFIX")
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.add_argument("--out", type=str)

    p = sub.add_parser("positivity", help="scan L(1, chi) for real primitive chi")
    p.add_argument("--qmax", type=int, default=50)

    return parser


def _parse_s(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) <= 2:
            return complex(*map(float, parts))
    except ValueError:
        pass
    raise TblabError(f"cannot parse s = {text!r}; expected re or re,im")


def _echo(value: float | complex) -> str:
    """value in :g if that reads back as value, else its shortest round-trip repr."""
    return f"{value:g}" if type(value)(f"{value:g}") == value else repr(value).strip("()")


def _case_from_args(args) -> IdentityCase:
    return IdentityCase(args.theorem, **{name: getattr(args, name) for name in _PARAM_TYPES})


def _print_report(report) -> None:
    case = report.case
    verdict = "pass" if report.passed else "FAIL"
    print(f"{case.theorem} {case.params()}")
    if report.error is not None:
        print(f"  error: {report.error}  [{verdict}] ({report.wall_ms:.0f} ms)")
        return
    print(f"  lhs = {report.lhs:.15g}")
    print(f"  rhs = {report.rhs:.15g}")
    print(f"  abs_err = {report.abs_err:.3e}  rel_err = {report.rel_err:.3e}  "
          f"tol = {report.tol:.1e}  terms = {report.lhs_terms}+{report.rhs_terms}  "
          f"[{verdict}] ({report.wall_ms:.0f} ms)")


def _emit(reports, args) -> None:
    """The records as JSON lines into --out if given, whatever --format
    says; onto stdout the text reports, or the records if there is no --out."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_reports(reports, fh)
    if args.format == "text":
        for report in reports:
            _print_report(report)
    elif not args.out:
        write_reports(reports, sys.stdout)


def main(argv=None) -> int:
    args = _build_parser().parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
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
        chi = _get_char(args.q, args.char, "lvalue")
        s = _parse_s(args.s)
        val = dirichlet_L(s, chi)
        print(f"L({_echo(s)}, chi({args.q},{args.char})) = {val:.15g}")
        return 0

    if args.command == "bessel":
        fn = {"K": bessel_K, "I": bessel_I, "J": bessel_J, "Y": bessel_Y}[args.kind]
        print(f"{args.kind}_{_echo(args.nu)}({_echo(args.x)}) = {fn(args.nu, args.x):.15g}")
        return 0

    if args.command == "verify":
        case = _case_from_args(args)
        report = verify(case, tol=args.tol)
        _emit([report], args)
        return 0 if report.passed else 1

    if args.command == "suite":
        reports = run_suite("all" if args.all else args.filter)
        if not reports:
            print("no cases match the filter")
            return 0
        _emit(reports, args)
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
