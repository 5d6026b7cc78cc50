"""tests/domain_map.py: one theorem's grid of neighbouring points."""

import io
import json

import domain_map
from tblab import identities


def test_grid_scales_x_then_a():
    points = identities.THEOREMS["T2_13"].points
    cases = domain_map.grid("T2_13")
    assert len(cases) == 8 * len(points)
    first = points[0]
    assert [(c.a, c.x) for c in cases[:8]] == (
        [(first["a"], first["x"] * f) for f in (0.25, 0.5, 2.0, 4.0)]
        + [(first["a"] * f, first["x"]) for f in (0.25, 0.5, 2.0, 4.0)])


def test_one_theorem_grid_gives_strict_json_records_and_a_summary():
    cases = domain_map.grid("P1_1")  # no a: x alone is scaled
    assert len(cases) == 4 * len(identities.THEOREMS["P1_1"].points)
    reports = domain_map.run(cases)
    out = io.StringIO()
    identities.write_reports(reports, out)
    records = [json.loads(line, parse_constant=lambda name: 1 / 0)
               for line in out.getvalue().splitlines()]
    assert [rec["params"] for rec in records] == [case.params() for case in cases]
    # x = 0.75 * 4 is a positive integer, which P1_1 excludes
    refused = [rec for rec in records if "error" in rec]
    assert [rec["params"] for rec in refused] == [{"N": 2, "nu": 0.3, "x": 3.0}]
    assert refused[0]["error"].startswith("ExcludedParameter: ") and not refused[0]["pass"]
    lines = domain_map.summary(reports)
    assert lines[0].startswith(
        "P1_1: 16 points, 15 passed, refused 1 ExcludedParameter; worst err/tol ")
    assert lines[1:] == ["classical: 16 points, 15 passed, 1 refused, 0 failed"]


def test_flags_are_refused(capsys):
    assert domain_map.main(["--all"]) == 2
    assert capsys.readouterr().out == ""


def test_a_bad_term_cap_fails_the_map_once(monkeypatch, capsys):
    monkeypatch.setenv("TBL_MAX_TERMS", "many")
    assert domain_map.main([]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "TBL_MAX_TERMS must be a positive integer" in err
