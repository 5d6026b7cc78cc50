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


def test_moved_records_are_summarised_by_theorem_prefix(tmp_path, capsys):
    old = RECORDS + [dict(RECORDS[0], params=dict(RECORDS[0]["params"], k=2))]
    new = [dict(old[0], rhs_re=old[0]["rhs_re"] * (1 + 1e-13)),
           dict(old[1], lhs_re=old[1]["lhs_re"] + 2e-12 * abs(-0.125 + 0.5j)),
           dict(old[2], lhs_re=old[2]["lhs_re"] * (1 + 3e-12)),
           dict(RECORDS[1], theorem_id="P1_1")]
    assert main([_write(tmp_path / "old", old), _write(tmp_path / "new", new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8  # four records, three prefixes, the count
    c3, p1, t2 = lines[4:7]
    assert c3 == ("C3: 1 moved (0 closer, 0 farther), "
                  "largest |dlhs|/|lhs| = 2.000e-12, |drhs|/|lhs| = 0.000e+00")
    # a record in one file only counts, but has no ratios
    assert p1 == ("P1: 1 moved (0 closer, 0 farther), "
                  "largest |dlhs|/|lhs| = n/a, |drhs|/|lhs| = n/a")
    head, drhs = t2.rsplit(" = ", 1)
    assert head == ("T2: 2 moved (0 closer, 0 farther), "
                    "largest |dlhs|/|lhs| = 3.000e-12, |drhs|/|lhs|")
    assert abs(float(drhs) - 1e-13) < 2e-15  # 1e-13 of rhs, rounded to rhs's ulp
    assert lines[7] == "4 records, 4 differ apart from wall_ms"


def test_a_missing_file_exits_two_and_is_named(tmp_path, capsys):
    # exit 1 means records moved, so a file that cannot be read must not say so
    missing = str(tmp_path / "missing.jsonl")
    assert main([_write(tmp_path / "old", RECORDS), missing]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"compare_suite.py: cannot read {missing}: No such file or directory\n"


def test_a_file_without_records_exits_two_and_is_named(tmp_path, capsys):
    # an empty file, or one with only suite's count line, compares nothing
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    counted = _write(tmp_path / "counted", [])
    for files, named in [([str(empty), str(empty)], str(empty)),
                         ([_write(tmp_path / "old", RECORDS), counted], counted)]:
        assert main(files) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"compare_suite.py: {named} holds no record\n"


def test_abs_err_of_each_moved_record_and_its_trend_by_prefix(tmp_path, capsys):
    # the rhs of T2_1 moves toward its lhs, that of T2_1 k = 2 away from it,
    # and C3_1's error is not finite after the move: neither closer nor farther
    old = RECORDS + [dict(RECORDS[0], params=dict(RECORDS[0]["params"], k=2))]
    new = [dict(old[0], rhs_re=old[0]["lhs_re"], abs_err=0.0),
           dict(old[1], rhs_re=1.0, abs_err=None),
           dict(old[2], rhs_re=old[2]["rhs_re"] - 1e-12, abs_err=1.2e-12)]
    assert main([_write(tmp_path / "old", old), _write(tmp_path / "new", new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6  # three records, two prefixes, the count
    assert "abs_err 0.000e+00 -> nan" in lines[0] and lines[0].startswith("C3_1 ")
    assert "abs_err 1.900e-14 -> 0.000e+00" in lines[1]
    assert "abs_err 1.900e-14 -> 1.200e-12" in lines[2]
    assert all("also changed: abs_err" not in line for line in lines[:3])
    assert lines[3].startswith("C3: 1 moved (0 closer, 0 farther), ")
    assert lines[4].startswith("T2: 2 moved (1 closer, 1 farther), ")
