import json
import math

import pytest

from tblab.cli import main


def test_list_characters(capsys):
    assert main(["list-characters", "--q", "8"]) == 0
    out = capsys.readouterr().out
    assert "index 0" in out and "principal" in out
    assert out.count("primitive") >= 2


def test_lvalue(capsys):
    assert main(["lvalue", "--q", "4", "--char", "1", "--s", "1"]) == 0
    out = capsys.readouterr().out
    assert f"{math.pi / 4:.8f}"[:8] in out


def test_bessel(capsys):
    assert main(["bessel", "--kind", "K", "--nu", "0.5", "--x", "1"]) == 0
    assert "0.4610685" in capsys.readouterr().out


def test_verify_pass_exit_zero(capsys):
    rc = main(["verify", "--theorem", "T2_13", "--q", "5", "--char", "2",
               "--a", "1", "--x", "0.3"])
    assert rc == 0
    assert "[pass]" in capsys.readouterr().out


def test_verify_excluded_parameter_exit_two(capsys):
    # q*x = 1 exactly is an excluded parameter
    rc = main(["verify", "--theorem", "T3_1", "--q", "5", "--char", "2",
               "--nu", "0.3", "--N", "1", "--x", "0.2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "must not be a positive integer" in err


def test_verify_hypothesis_violation_exit_two(capsys):
    rc = main(["verify", "--theorem", "T2_13", "--q", "5", "--char", "1",
               "--a", "1", "--x", "0.3"])
    assert rc == 2
    assert "even" in capsys.readouterr().err


def test_unknown_theorem_lists_valid_ids(capsys):
    rc = main(["verify", "--theorem", "T2_99", "--q", "5", "--char", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "valid ids" in err and "T2_13" in err


def test_suite_structured_output(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    rc = main(["suite", "--filter", "T2_13", "--format", "structured",
               "--out", str(out)])
    assert rc == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) >= 3
    assert all(rec["pass"] for rec in records)
    assert {"theorem_id", "params", "lhs_re", "rel_err", "wall_ms"} <= set(records[0])
    capsys.readouterr()


def test_suite_deterministic_output(tmp_path, capsys):
    outs = []
    for i in range(2):
        path = tmp_path / f"r{i}.jsonl"
        assert main(["suite", "--filter", "C3_1", "--format", "structured",
                     "--out", str(path)]) == 0
        recs = [json.loads(line) for line in path.read_text().splitlines()]
        for rec in recs:
            rec.pop("wall_ms")
        outs.append(recs)
        capsys.readouterr()
    assert outs[0] == outs[1]


def test_positivity(capsys):
    assert main(["positivity", "--qmax", "12"]) == 0
    out = capsys.readouterr().out
    assert "all positive: True" in out


def test_max_terms_env(monkeypatch, capsys):
    monkeypatch.setenv("TBL_MAX_TERMS", "100")
    rc = main(["verify", "--theorem", "T2_13", "--q", "5", "--char", "2",
               "--a", "1", "--x", "0.3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "tail bound" in err and "after 100 terms" in err


@pytest.mark.parametrize("value, theorem", [
    ("abc", ["--theorem", "T2_13", "--q", "5", "--char", "2", "--a", "1", "--x", "0.3"]),
    ("-5", ["--theorem", "T2_13", "--q", "5", "--char", "2", "--a", "1", "--x", "0.3"]),
    ("0", ["--theorem", "T4_1", "--q", "5", "--char", "2", "--nu", "0.25",
           "--alpha", "0.5", "--beta", "3.4", "--f", "exp"]),
])
def test_max_terms_env_must_be_a_positive_integer(monkeypatch, capsys, value, theorem):
    monkeypatch.setenv("TBL_MAX_TERMS", value)
    assert main(["verify", *theorem]) == 2
    err = capsys.readouterr().err
    assert "TBL_MAX_TERMS" in err and repr(value) in err
