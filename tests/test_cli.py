import json
import math
import warnings

import pytest

from tblab.cli import main


def test_list_characters(capsys):
    assert main(["list-characters", "--q", "8"]) == 0
    out = capsys.readouterr().out
    assert "index 0" in out and "principal" in out
    assert out.count("primitive") >= 2


def test_list_characters_past_the_term_budget_exits_two(monkeypatch, capsys):
    monkeypatch.setenv("TBL_MAX_TERMS", "100")
    assert main(["list-characters", "--q", "101"]) == 2
    assert "term budget of 100" in capsys.readouterr().err


def test_lvalue(capsys):
    assert main(["lvalue", "--q", "4", "--char", "1", "--s", "1"]) == 0
    out = capsys.readouterr().out
    assert f"{math.pi / 4:.8f}"[:8] in out


def test_lvalue_left_of_the_reflection_line_for_an_imprimitive_character(capsys):
    # L(s, chi_0 mod 128) = zeta(s) (1 - 2^{-s}), from mpmath at 30 digits
    assert main(["lvalue", "--q", "128", "--char", "0", "--s", "-5.984,-4.448"]) == 0
    got = complex(capsys.readouterr().out.rsplit("= ", 1)[1])
    value = complex(-12.6081680816974, 28.3236979548176)
    assert abs(got - value) < 1e-13 * abs(value)


@pytest.mark.parametrize("argv, rc", [
    (["lvalue", "--q", "5", "--char", "1", "--s", "-1.7,3"], 0),
    (["lvalue", "--q", "5", "--char", "1", "--s", "-1e-3"], 0),
    (["bessel", "--kind", "K", "--nu", "-1e1", "--x", "1"], 0),
    (["bessel", "--kind", "K", "--nu", "-inf", "--x", "1"], 2),
    (["verify", "--theorem", "T2_13", "--q", "5", "--char", "2", "--a", "1", "--x", "-1e-3"], 2),
    (["lvalue", "--q", "5", "--char", "1", "--s", "-nan"], 2),
])
def test_a_value_after_its_flag_may_start_with_a_minus_sign(capsys, argv, rc):
    # argparse alone reads "-1.7,3", "-1e-3" or "-inf" as an unknown option
    # and exits 2 with "expected one argument"; tblab reads the word as
    # the flag's value, as it reads "--s=-1.7,3", and refuses it itself
    assert main(argv) == rc
    spaced = capsys.readouterr()
    assert "expected one argument" not in spaced.err
    assert spaced.err.startswith("error: ") if rc else spaced.err == ""
    assert main([*argv[:-2], f"{argv[-2]}={argv[-1]}"]) == rc
    assert capsys.readouterr() == spaced


def test_bessel(capsys):
    assert main(["bessel", "--kind", "K", "--nu", "0.5", "--x", "1"]) == 0
    assert "0.4610685" in capsys.readouterr().out


def test_bessel_negative_integer_order(capsys):
    # J_{-1}(1) = -J_1(1), from mpmath at 30 digits
    assert main(["bessel", "--kind", "J", "--nu", "-1", "--x", "1"]) == 0
    got = float(capsys.readouterr().out.rsplit("= ", 1)[1])
    assert abs(got + 0.440050585744933) < 5e-14


def test_bessel_negative_order(capsys):
    # Y_{-5.7}(1) = sin(5.7 pi) J_{5.7}(1) + cos(5.7 pi) Y_{5.7}(1), from
    # mpmath at 30 digits
    assert main(["bessel", "--kind", "Y", "--nu", "-5.7", "--x", "1"]) == 0
    got = float(capsys.readouterr().out.rsplit("= ", 1)[1])
    assert abs(got + 744.243038783772) < 5e-14 * 744.243038783772


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


@pytest.mark.parametrize("args, field", [
    (["--theorem", "T2_2", "--q", "4", "--char", "1", "--k", "0", "--a", "1",
      "--x", "0.3", "--nu", "0.6"], "nu"),
    (["--theorem", "C3_1", "--q", "5", "--char", "2", "--x", "0.21",
      "--nu", "0.3", "--N", "3"], "N"),
])
def test_verify_unread_parameter_exit_two(capsys, args, field):
    assert main(["verify", *args]) == 2
    err = capsys.readouterr().err
    assert "does not take" in err and field in err


def test_bessel_order_too_large_for_the_asymptotic_branch(capsys):
    assert main(["bessel", "--kind", "K", "--nu", "10", "--x", "19"]) == 2
    assert "asymptotic" in capsys.readouterr().err


@pytest.mark.parametrize("kind, nu, x", [
    ("K", "20", "1e-15"),  # 6.4e322
    ("Y", "20", "1e-15"),
    ("Y", "200", "1"),  # 1e430
    ("I", "0.5", "800"),  # 1e346
])
def test_bessel_outside_the_double_range_exit_two(capsys, kind, nu, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the test
        assert main(["bessel", "--kind", kind, "--nu", nu, "--x", x]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1  # one line, no traceback


@pytest.mark.parametrize("kind", ["J", "I"])
def test_bessel_below_the_double_range_underflows(capsys, kind):
    # Gamma(201) overflows on its own, but J_200(1) and I_200(1), about
    # 8e-436, only underflow to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bessel", "--kind", kind, "--nu", "200", "--x", "1"]) == 0
    assert capsys.readouterr().out == f"{kind}_200(1) = 0\n"


@pytest.mark.parametrize("argv", [
    ["lvalue", "--q", "5", "--char", "1", "--s", "abc"],
    ["lvalue", "--q", "5", "--char", "1", "--s", "nan"],
    ["lvalue", "--q", "5", "--char", "1", "--s", "inf"],
    ["lvalue", "--q", "7", "--char", "1", "--s=-1e300"],  # (2 pi/7)^s in the reflection
    ["lvalue", "--q", "5", "--char", "1", "--s", "0,1e9"],  # a head past the term budget
    ["verify", "--theorem", "T2_1", "--q", "4", "--char", "1", "--k", "0", "--nu", "0.6",
     "--a", "1", "--x", "inf"],
    ["verify", "--theorem", "T2_1", "--q", "4", "--char", "1", "--k", "0", "--nu", "0.6",
     "--a", "inf", "--x", "0.75"],
    ["verify", "--theorem", "T3_1", "--q", "5", "--char", "2", "--nu", "0.3", "--N", "1",
     "--x", "inf"],
    ["verify", "--theorem", "T4_1", "--q", "5", "--char", "2", "--nu", "0.25", "--alpha", "0.5",
     "--beta", "inf", "--f", "exp"],
    # finite input whose intermediate values leave the double range: the
    # kernel series' tail bound, the excluded clause's a^2 q x, the shift
    # c of the closed tail, and the term count (45 / 4 pi sqrt x)^2
    ["verify", "--theorem", "T2_1", "--q", "4", "--char", "1", "--k", "0", "--nu", "400",
     "--a", "1", "--x", "0.75"],
    ["verify", "--theorem", "T2_13", "--q", "5", "--char", "2", "--a", "1e200", "--x", "1e200"],
    ["verify", "--theorem", "T2_1", "--q", "4", "--char", "1", "--k", "0", "--nu", "0.6",
     "--a", "1e160", "--x", "0.75"],
    ["verify", "--theorem", "T2_1", "--q", "4", "--char", "1", "--k", "0", "--nu", "0.6",
     "--a", "1e300", "--x", "1e300"],
    ["verify", "--theorem", "C3_1", "--q", "5", "--char", "2", "--x", "1e-320"],
    # the Cohen tail's Q^w at Q = x < 1, and the head's x^{2j-1} at x > 1
    ["verify", "--theorem", "P1_1", "--nu", "0.3", "--N", "400", "--x", "0.3"],
    ["verify", "--theorem", "P1_1", "--nu", "0.3", "--N", "2000", "--x", "1.9"],
    # an order whose ln Gamma(nu + 1) leaves the double range
    ["bessel", "--kind", "I", "--nu", "1e308", "--x", "1"],
])
def test_non_finite_or_overflowing_input_exit_two(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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


def test_suite_reports_raising_cases_and_goes_on(monkeypatch, capsys):
    # every T2 case runs out of a 100-term budget; each is reported
    monkeypatch.setenv("TBL_MAX_TERMS", "100")
    assert main(["suite", "--filter", "T2", "--format", "structured"]) == 1
    *lines, summary = capsys.readouterr().out.splitlines()
    records = [json.loads(line) for line in lines]
    assert summary == f"{len(records)} cases, 0 passed, {len(records)} failed"
    assert len({rec["theorem_id"] for rec in records}) == 15
    assert all(rec["error"].startswith("ConvergenceError: ") for rec in records)


def test_lvalue_index_out_of_range_exits_two(capsys):
    assert main(["lvalue", "--q", "5", "--char", "4", "--s", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "character index 4 out of range (phi(5) = 4)" in captured.err


T2_13 = ["--theorem", "T2_13", "--q", "5", "--char", "2", "--a", "1", "--x", "0.3"]


def test_verify_structured_output(tmp_path, capsys):
    assert main(["verify", *T2_13, "--format", "structured"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    record = json.loads(line)
    assert record["theorem_id"] == "T2_13" and record["pass"]
    assert record["params"] == {"q": 5, "char_index": 2, "a": 1.0, "x": 0.3}
    path = tmp_path / "report.jsonl"
    assert main(["verify", *T2_13, "--format", "structured", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    (saved,) = map(json.loads, path.read_text().splitlines())
    saved.pop("wall_ms"), record.pop("wall_ms")
    assert saved == record


@pytest.mark.parametrize("argv, count", [(["verify", *T2_13], 1),
                                         (["suite", "--filter", "T2_13"], 4)])
def test_out_writes_records_under_text_format(tmp_path, capsys, argv, count):
    # --out takes the records whatever --format says; stdout keeps the text
    path = tmp_path / "report.jsonl"
    assert main([*argv, "--out", str(path)]) == 0
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == count and all(rec["pass"] for rec in records)
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("T2_13 {") for line in lines) == count


def test_suite_text_output(capsys):
    assert main(["suite", "--filter", "T2_13"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "4 cases, 4 passed, 0 failed"
    assert sum(line.startswith("T2_13 {") for line in lines) == 4
    assert sum(line.endswith(" ms)") and "[pass]" in line for line in lines) == 4


def test_suite_filter_matching_no_case(capsys):
    assert main(["suite", "--filter", "ZZ"]) == 0
    assert capsys.readouterr().out == "no cases match the filter\n"


def test_suite_text_line_of_a_raising_case(monkeypatch, capsys):
    monkeypatch.setenv("TBL_MAX_TERMS", "100")
    assert main(["suite", "--filter", "T2_13"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "4 cases, 0 passed, 4 failed"
    errors = [line for line in lines if line.startswith("  error: ")]
    assert len(errors) == 4
    assert all("ConvergenceError: " in line and "[FAIL]" in line for line in errors)


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_suite_fewer_than_one_worker_exits_two(capsys, workers):
    assert main(["suite", "--filter", "T2_13", "--workers", workers]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "workers must be at least 1" in captured.err


def test_positivity(capsys):
    assert main(["positivity", "--qmax", "12"]) == 0
    out = capsys.readouterr().out
    assert "all positive: True" in out


def test_positivity_past_the_term_budget_exits_two(monkeypatch, capsys):
    monkeypatch.setenv("TBL_MAX_TERMS", "40")
    assert main(["positivity", "--qmax", "45"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the value table mod 45 needs 45 terms, "
                            "over the term budget of 40\n")


def test_max_terms_env(monkeypatch, capsys):
    monkeypatch.setenv("TBL_MAX_TERMS", "100")
    rc = main(["verify", "--theorem", "T2_13", "--q", "5", "--char", "2",
               "--a", "1", "--x", "0.3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "tail bound" in err and "after 100 terms" in err


@pytest.mark.parametrize("case", [
    ["--theorem", "C3_1", "--q", "5", "--char", "2", "--x", "0.001"],
    ["--theorem", "T4_1", "--q", "5", "--char", "2", "--nu", "0.25",
     "--alpha", "0.5", "--beta", "3000.5", "--f", "exp"],
])
def test_sum_past_the_term_budget_exits_two(monkeypatch, capsys, case):
    monkeypatch.setenv("TBL_MAX_TERMS", "1000")
    assert main(["verify", *case]) == 2
    assert "term budget of 1000" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("case", [
    ["--theorem", "T2_13", "--q", "5", "--char", "2", "--a", "1", "--x", "0.3"],
    ["--theorem", "T4_1", "--q", "5", "--char", "2", "--nu", "0.25",
     "--alpha", "0.5", "--beta", "3.4", "--f", "exp"],
])
def test_meaningless_tolerance_exits_two(capsys, case, tol):
    assert main(["verify", *case, f"--tol={tol}"]) == 2
    assert "tol must be a finite number > 0" in capsys.readouterr().err


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
