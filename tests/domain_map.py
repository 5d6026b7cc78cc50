"""The domain map: every registered point outside voronoi at neighbouring parameters.

Run it from the repository root as

    PYTHONPATH=src python3 tests/domain_map.py > MAP.jsonl

It takes no flags.  It verifies each of the 125 registered points outside
the voronoi section with x, and then a where the point has one, scaled by
2^u for u = -2, -1, 1, 2 (720 points), each at its section's default
tolerance.  Each point's record goes to standard output as one line of
strict JSON, through identities.write_reports; a point refused with a
TblabError is a failed record whose "error" names it.  Standard error
gets a summary: per theorem, the points, the passes, the refusals by
error class and the worst err/tol with its point, where err is what
verify's pass rule compares (identities._graded_err); then the passes,
refusals and failures per section.  A TBL_MAX_TERMS that is not a
positive integer fails the map once, with exit status 2, before any
point runs.

Two maps, say of two commits, diff as two suite outputs do:

    python3 tests/compare_suite.py OLD.jsonl NEW.jsonl

The name does not start with test_, so pytest does not collect it;
tests/test_domain_map.py runs one theorem's grid.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from collections import Counter

from tblab import identities
from tblab.errors import DomainError, term_cap
from tblab.identities import IdentityCase, VerificationReport

SCALES = tuple(2.0 ** u for u in (-2, -1, 1, 2))


def grid(tid: str) -> list[IdentityCase]:
    """Theorem tid's registered points, each with x scaled by each of
    SCALES, and then a, if the point has one."""
    cases = []
    for case in identities.default_cases([tid]):
        for field in ("x", "a"):
            value = getattr(case, field)
            if value is not None:
                cases += [dataclasses.replace(case, **{field: value * f}) for f in SCALES]
    return cases


def run(cases: list[IdentityCase]) -> list[VerificationReport]:
    """A report for each case at its section's default tolerance; a case
    refused with a TblabError gets a failed report whose error names it."""
    return [identities._report(
        case, identities.DEFAULT_TOLERANCES[identities.THEOREMS[case.theorem].section])
        for case in cases]


def _err_over_tol(report: VerificationReport) -> float:
    """What verify's pass rule compares with tol, over tol; nan if refused."""
    section = identities.THEOREMS[report.case.theorem].section
    return identities._graded_err(section, report.lhs, report.abs_err, report.rel_err) / report.tol


def summary(reports: list[VerificationReport]) -> list[str]:
    """One line per theorem, in report order, then one per section."""
    by_tid: dict[str, list[VerificationReport]] = {}
    for report in reports:
        by_tid.setdefault(report.case.theorem, []).append(report)
    lines = []
    sections: dict[str, Counter] = {}
    for tid, group in by_tid.items():
        passed = sum(r.passed for r in group)
        refused = Counter(r.error.split(":")[0] for r in group if r.error is not None)
        count = sections.setdefault(identities.THEOREMS[tid].section, Counter())
        count.update(points=len(group), passed=passed, refused=sum(refused.values()))
        line = f"{tid}: {len(group)} points, {passed} passed"
        if refused:
            line += ", refused " + ", ".join(f"{n} {cls}" for cls, n in sorted(refused.items()))
        scored = [(_err_over_tol(r), r) for r in group if r.error is None]
        scored = [(ratio, r) for ratio, r in scored if not math.isnan(ratio)]
        if scored:
            ratio, worst = max(scored, key=lambda pair: pair[0])
            line += (f"; worst err/tol {ratio:.3g} at "
                     f"{json.dumps(worst.case.params(), sort_keys=True)}")
        lines.append(line)
    for section, count in sections.items():
        failed = count["points"] - count["passed"] - count["refused"]
        lines.append(f"{section}: {count['points']} points, {count['passed']} passed, "
                     f"{count['refused']} refused, {failed} failed")
    return lines


def main(argv: list[str]) -> int:
    if argv:
        print("usage: domain_map.py (it takes no flags)", file=sys.stderr)
        return 2
    try:
        term_cap()  # a bad TBL_MAX_TERMS fails the map, not each point
    except DomainError as exc:
        print(f"domain_map.py: {exc}", file=sys.stderr)
        return 2
    tids = [tid for tid, entry in identities.THEOREMS.items() if entry.section != "voronoi"]
    reports = run([case for tid in tids for case in grid(tid)])
    identities.write_reports(reports, sys.stdout)
    for line in summary(reports):
        print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
