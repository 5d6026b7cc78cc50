"""Diff two `tblab suite --all --format structured` outputs, ignoring wall_ms.

Run it from the repository root as

    python3 tests/compare_suite.py OLD.jsonl NEW.jsonl

Records are matched by theorem id and parameters.  For each record that
differs in anything but wall_ms it prints |delta lhs|/|lhs| and
|delta rhs|/|lhs| (|lhs| from the old record), abs_err old -> new, any
change of pass or terms, and the names of the other fields that changed.
A record present in one file only is listed too.  When more than one
record moved, a line for each theorem-id prefix (T4, C4, ...) with moved
records follows: how many moved, how many of them have a smaller abs_err
(closer: the rhs moved toward the lhs) and how many a larger one
(farther), and the largest |delta lhs|/|lhs| and |delta rhs|/|lhs| among
them, so that a change at the rounding level can be quoted by one number.
Where the lhs is exact (the finite sums of the voronoi section), closer
is closer to the truth.  Lines that are not JSON objects, such as the
count line that `suite` prints after the records on standard output, are
skipped.  The exit status is 0 when every record is identical apart from
wall_ms, 1 when any differs, and 2, naming the file, when an input file
cannot be read or holds no record.

The name does not start with test_, so pytest does not collect it.
"""

from __future__ import annotations

import json
import math
import sys


def _load(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("{"):
                rec = json.loads(line)
                rec.pop("wall_ms", None)
                out[rec["theorem_id"], json.dumps(rec["params"], sort_keys=True)] = rec
    return out


def _side(rec: dict, name: str) -> complex:
    re, im = rec[f"{name}_re"], rec[f"{name}_im"]
    return complex(math.nan if re is None else re, math.nan if im is None else im)


def _moves(old: dict, new: dict) -> tuple[float, float]:
    """|delta lhs|/|lhs| and |delta rhs|/|lhs|, |lhs| from the old record."""
    scale = abs(_side(old, "lhs"))
    return tuple(abs(_side(new, side) - _side(old, side)) / scale for side in ("lhs", "rhs"))


def _abs_err(rec: dict) -> float:
    return math.nan if rec["abs_err"] is None else rec["abs_err"]


def _describe(old: dict, new: dict) -> str:
    dlhs, drhs = _moves(old, new)
    parts = [f"|dlhs|/|lhs| = {dlhs:.3e}", f"|drhs|/|lhs| = {drhs:.3e}",
             f"abs_err {_abs_err(old):.3e} -> {_abs_err(new):.3e}"]
    for field in ("pass", "terms"):
        if old[field] != new[field]:
            parts.append(f"{field} {old[field]} -> {new[field]}")
    others = sorted(k for k in old.keys() | new.keys()
                    if k not in ("abs_err", "pass", "terms")
                    and not k.startswith(("lhs_", "rhs_"))
                    and old.get(k) != new.get(k))
    if others:
        parts.append("also changed: " + ", ".join(others))
    return "  ".join(parts)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: compare_suite.py OLD.jsonl NEW.jsonl", file=sys.stderr)
        return 2
    loaded = []
    for path in argv:
        try:
            records = _load(path)
        except OSError as err:
            print(f"compare_suite.py: cannot read {path}: {err.strerror}", file=sys.stderr)
            return 2
        if not records:
            print(f"compare_suite.py: {path} holds no record", file=sys.stderr)
            return 2
        loaded.append(records)
    old, new = loaded
    # theorem-id prefix -> (dlhs, drhs, change of abs_err) of each moved
    # record, None for a record in one file only
    moves: dict[str, list] = {}
    for key in sorted(old.keys() | new.keys()):
        tid, params = key
        if key not in new or key not in old:
            print(f"{tid} {params}: only in {'old' if key in old else 'new'}")
            moves.setdefault(tid.split("_")[0], []).append(None)
        elif old[key] != new[key]:
            print(f"{tid} {params}: {_describe(old[key], new[key])}")
            moves.setdefault(tid.split("_")[0], []).append(
                (*_moves(old[key], new[key]), _abs_err(new[key]) - _abs_err(old[key])))
    moved = sum(map(len, moves.values()))
    if moved > 1:  # for one record this would repeat its line
        for prefix, found in sorted(moves.items()):
            paired = [move for move in found if move]
            largest = [f"{max(col):.3e}" for col in list(zip(*paired))[:2]] or ["n/a"] * 2
            closer, farther = (sum(move[2] < 0 for move in paired),
                               sum(move[2] > 0 for move in paired))
            print(f"{prefix}: {len(found)} moved ({closer} closer, {farther} farther), "
                  f"largest |dlhs|/|lhs| = {largest[0]}, |drhs|/|lhs| = {largest[1]}")
    print(f"{len(old.keys() | new.keys())} records, {moved} differ apart from wall_ms")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
