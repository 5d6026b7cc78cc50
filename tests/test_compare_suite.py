"""tests/compare_suite.py: the diff of two structured suite outputs."""

import json

from compare_suite import main

RECORDS = [
    {"theorem_id": "T2_1", "params": {"q": 4, "char_index": 1, "k": 0, "nu": 0.6},
     "lhs_re": 2.8274229725521702, "lhs_im": 0.0, "rhs_re": 2.827422972552151,
     "rhs_im": 3.2e-17, "abs_err": 1.9e-14, "rel_err": 6.8e-15, "pass": True,
     "terms": 5096, "wall_ms": 2.6},
    {"theorem_id": "C3_1", "params": {"q": 5, "char_index": 2, "x": 0.21},
     "lhs_re": -0.125, "lhs_im": 0.5, "rhs_re": -0.125, "rhs_im": 0.5,
     "abs_err": 0.0, "rel_err": 0.0, "pass": True, "terms": 1000, "wall_ms": 0.7},
]


def _write(path, records, count_line=True):
    lines = [json.dumps(rec) for rec in records]
    if count_line:  # as `suite` prints after the records
        lines.append(f"{len(records)} cases, {len(records)} passed, 0 failed")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_identical_records_apart_from_wall_ms_exit_zero(tmp_path, capsys):
    new = [dict(rec, wall_ms=rec["wall_ms"] * 3) for rec in RECORDS]
    assert main([_write(tmp_path / "old", RECORDS), _write(tmp_path / "new", new)]) == 0
    assert capsys.readouterr().out == "2 records, 0 differ apart from wall_ms\n"


def test_a_moved_rhs_is_printed_and_exits_one(tmp_path, capsys):
    new = [dict(RECORDS[0], rhs_re=RECORDS[0]["rhs_re"] * (1 + 1e-13)), RECORDS[1]]
    assert main([_write(tmp_path / "old", RECORDS), _write(tmp_path / "new", new)]) == 1
    first, last = capsys.readouterr().out.splitlines()
    assert first.startswith("T2_1 ") and "|dlhs|/|lhs| = 0.000e+00" in first
    moved = float(first.split("|drhs|/|lhs| = ")[1].split()[0])
    assert abs(moved - 1e-13) < 2e-15  # 1e-13 of rhs, rounded to rhs's ulp
    assert last == "2 records, 1 differ apart from wall_ms"


def test_a_record_in_one_file_only_is_printed_and_exits_one(tmp_path, capsys):
    old = _write(tmp_path / "old", RECORDS, count_line=False)
    assert main([old, _write(tmp_path / "new", RECORDS[:1])]) == 1
    first, last = capsys.readouterr().out.splitlines()
    assert first.startswith("C3_1 ") and first.endswith(": only in old")
    assert last == "2 records, 1 differ apart from wall_ms"
