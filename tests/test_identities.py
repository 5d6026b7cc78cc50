import json
import math
from pathlib import Path

import numpy as np
import pytest

from tblab.characters import enumerate_characters
from tblab.errors import DomainError, ExcludedParameter, HypothesisError
from tblab.identities import (
    THEOREMS,
    IdentityCase,
    default_cases,
    positivity_scan,
    report_record,
    run_suite,
    verify,
    write_reports,
)
from tblab.specfun import dirichlet_L, gamma

PI = math.pi


def test_registry_covers_every_section():
    sections = {entry.section for entry in THEOREMS.values()}
    assert sections == {"sec2", "classical", "cohen", "cohen-half", "voronoi"}
    assert len([t for t in THEOREMS if t.startswith("T2_")]) == 15
    assert len([t for t in THEOREMS if t.startswith("T3_")]) == 8
    assert len([t for t in THEOREMS if t.startswith("T4_")]) == 8
    for entry in THEOREMS.values():
        assert len(entry.points) >= 2


def test_unknown_theorem():
    with pytest.raises(DomainError, match="valid ids"):
        verify(IdentityCase("T9_9"))
    with pytest.raises(DomainError):
        default_cases(["T9_9"])


def test_empty_filter():
    assert default_cases("Z") == []
    assert run_suite("Z") == []


def test_log_kernel_identity_example():
    report = verify(IdentityCase("T2_13", q=5, char_index=2, a=1.0, x=0.3))
    assert report.passed and report.rel_err < 1e-8


def test_positive_order_identity_example():
    report = verify(IdentityCase("T2_1", q=4, char_index=1, k=0, nu=0.6,
                                 a=1.0, x=0.75))
    assert report.passed and report.rel_err < 1e-10


def test_pole_term_gate():
    # k = 0 carries an extra x^{-nu/2-1} term proportional to L(1, chi);
    # dropping it breaks the identity by exactly that amount
    case = IdentityCase("T2_1", q=4, char_index=1, k=0, nu=0.6, a=1.0, x=0.75)
    report = verify(case)
    assert report.passed
    chi = enumerate_characters(4)[1]
    pole = (2.0 ** 1.6 / 1.0 ** 2.6 * gamma(1.6) * dirichlet_L(1.0, chi)
            * 0.75 ** (-0.6 / 2 - 1))
    assert abs(pole) > 1e3 * report.abs_err
    assert abs(report.lhs - (report.rhs - pole) - pole) <= report.abs_err + 1e-15
    # k = 2 passes without any such contribution
    assert verify(IdentityCase("T2_1", q=4, char_index=1, k=2, nu=0.6,
                               a=1.0, x=0.75)).passed


def test_two_character_corollary_consistency():
    # equal characters in the two-character identity reproduce the
    # chi(n) sigma_k(n) corollary value
    chi = enumerate_characters(5)[2]
    shared = dict(k=1, nu=0.6, a=1.0, x=0.75)
    r_two = verify(IdentityCase("T2_10", p=5, char_index=2, q=5, char2_index=2,
                                **shared))
    r_cor = verify(IdentityCase("C2_1", q=5, char_index=2, **shared))
    assert r_two.passed and r_cor.passed
    assert abs(r_two.rhs - r_cor.rhs) < 1e-10
    assert abs(r_two.lhs - r_cor.lhs) < 1e-10


def test_cohen_identity_and_N_stability():
    # the closed side must not depend on the truncation index N
    rhs = {}
    for N in (1, 2, 3):
        rep = verify(IdentityCase("T3_1", q=5, char_index=2, nu=0.3,
                                  x=0.21, N=N))
        assert rep.passed
        rhs[N] = rep.rhs
    assert abs(rhs[1] - rhs[2]) < 1e-9
    assert abs(rhs[2] - rhs[3]) < 1e-9


def test_half_order_corollary():
    rep = verify(IdentityCase("C3_1", q=5, char_index=2, x=0.21))
    assert rep.passed and rep.rel_err < 1e-9


def test_classical_baseline():
    rep = verify(IdentityCase("P1_1", nu=0.25, N=1, x=0.3))
    assert rep.passed and rep.rel_err < 1e-8


def test_residual_tracks_requested_tolerance():
    case = IdentityCase("T2_13", q=5, char_index=2, a=1.0, x=0.3)
    loose = verify(case, tol=1e-4)
    tight = verify(case, tol=1e-10)
    assert loose.rel_err < 1e-4
    assert tight.rel_err < 1e-10


def test_voronoi_finite_side_shifts_by_exact_term():
    # moving beta across the integer 4 adds exactly the j = 4 term
    from tblab.arith import BAR_TWISTED, DivisorSumSpec, divisor_sum
    from tblab.identities import TEST_FUNCTIONS, _finite_side
    chi = enumerate_characters(5)[2]
    spec = DivisorSumSpec(BAR_TWISTED, -0.25, chi)
    f = TEST_FUNCTIONS["exp"]
    before, n1 = _finite_side(f, 0.5, 3.4, spec, False)
    after, n2 = _finite_side(f, 0.5, 4.2, spec, False)
    assert n2 == n1 + 1
    expected = divisor_sum(spec, 4) * math.exp(-4.0)
    assert abs((after - before) - expected) < 1e-14


@pytest.mark.parametrize("n_terms", [1000, 3000, 20000])
@pytest.mark.parametrize("order", [1, 3])
def test_riesz_mean_sums_conditionally_convergent_series(n_terms, order):
    # both sums converge only conditionally; a Riesz mean over N terms
    # misses the limit by about order/N times the Abel sum of n a_n,
    # which is 1/2 in size for both
    from tblab.identities import _riesz_mean
    n = np.arange(1, n_terms + 1, dtype=float)
    theta = 1.0
    known = (
        ((-1.0) ** (n + 1) / n, math.log(2.0)),
        (np.cos(n * theta) / n, -math.log(2.0 * math.sin(theta / 2.0))),
    )
    for terms, limit in known:
        assert abs(_riesz_mean(terms, order) - limit) < order / n_terms


def test_kernel_series_mean_under_a_short_term_cap(monkeypatch):
    # a term cap shortens the kernel series but must not rescale it
    monkeypatch.setenv("TBL_MAX_TERMS", "3000")
    rep = verify(IdentityCase("T4_1", q=5, char_index=2, nu=0.25,
                              alpha=0.5, beta=3.4, f="exp"))
    assert rep.rhs_terms == 3000
    assert rep.passed, rep.rel_err


def test_every_registered_c4_point_passes():
    reports = run_suite("C4")
    assert len(reports) == 4
    for rep in reports:
        assert rep.passed, (rep.case, rep.rel_err)


def test_positivity_scan():
    rows = positivity_scan(50)
    assert all(val > 0 for _, _, val in rows)
    asdict = {q: val for q, _, val in rows}
    assert abs(asdict[3] - PI / (3 * math.sqrt(3))) < 1e-9
    assert abs(asdict[4] - PI / 4) < 1e-9
    with pytest.raises(DomainError):
        positivity_scan(2)


def test_report_schema_and_serialization(tmp_path):
    reports = run_suite(["T2_13"])
    rec = report_record(reports[0])
    assert set(rec) == {"theorem_id", "params", "lhs_re", "lhs_im", "rhs_re",
                        "rhs_im", "abs_err", "rel_err", "pass", "terms",
                        "wall_ms"}
    line_path = tmp_path / "report.jsonl"
    doc_path = tmp_path / "report.json"
    write_reports(reports, str(line_path), fmt="jsonl")
    write_reports(reports, str(doc_path), fmt="json")
    lines = line_path.read_text().splitlines()
    assert len(lines) == len(reports)
    doc = json.loads(doc_path.read_text())
    assert len(doc["reports"]) == len(reports)


def test_determinism_modulo_wall_ms(tmp_path):
    paths = []
    for i in range(2):
        p = tmp_path / f"run{i}.jsonl"
        write_reports(run_suite(["T3_2"]), str(p), fmt="jsonl")
        paths.append(p)
    rec0 = [json.loads(line) for line in paths[0].read_text().splitlines()]
    rec1 = [json.loads(line) for line in paths[1].read_text().splitlines()]
    for a, b in zip(rec0, rec1):
        a.pop("wall_ms"), b.pop("wall_ms")
        assert a == b


def test_parallel_runner_matches_sequential():
    seq = run_suite(["T2_13"])
    par = run_suite(["T2_13"], workers=2)
    assert [r.case for r in seq] == [r.case for r in par]
    for a, b in zip(seq, par):
        assert abs(a.lhs - b.lhs) < 1e-13 and abs(a.rhs - b.rhs) < 1e-13


GOLDEN = Path(__file__).parent / "data" / "registry_golden.jsonl"


def test_registry_matches_golden_records():
    # every registered point outside the voronoi section, against the
    # records of the hand-written evaluators the registry tables replaced
    golden = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    tids = [tid for tid, entry in THEOREMS.items() if entry.section != "voronoi"]
    reports = run_suite(tids)
    assert len(reports) == len(golden) == 125
    for rep, gold in zip(reports, golden):
        rec = report_record(rep)
        key = (gold["theorem_id"], gold["params"])
        assert (rec["theorem_id"], rec["params"]) == key
        assert (rec["pass"], rec["terms"]) == (gold["pass"], gold["terms"]), key
        lhs = complex(gold["lhs_re"], gold["lhs_im"])
        rhs = complex(gold["rhs_re"], gold["rhs_im"])
        assert abs(rep.lhs - lhs) <= 1e-14 * abs(lhs), key
        assert abs(rep.rhs - rhs) <= 1e-14 * abs(lhs), key


class TestHypothesisEnforcement:
    def test_parity_flip(self):
        with pytest.raises(HypothesisError, match="odd"):
            verify(IdentityCase("T2_1", q=5, char_index=2, k=0, nu=0.6,
                                a=1.0, x=0.75))
        with pytest.raises(HypothesisError, match="even"):
            verify(IdentityCase("T2_13", q=5, char_index=1, a=1.0, x=0.3))

    def test_k_parity_flip(self):
        with pytest.raises(HypothesisError, match="even integer"):
            verify(IdentityCase("T2_1", q=4, char_index=1, k=1, nu=0.6,
                                a=1.0, x=0.75))
        with pytest.raises(HypothesisError, match="odd integer"):
            verify(IdentityCase("T2_5", q=5, char_index=2, k=2, nu=0.6,
                                a=1.0, x=0.75))

    def test_k_minimum(self):
        with pytest.raises(HypothesisError, match=">= 2"):
            verify(IdentityCase("T2_3", q=4, char_index=1, k=0, nu=0.6,
                                a=1.0, x=0.75))

    def test_primitivity_flip(self):
        # the odd character mod 8 with conductor 4 is imprimitive
        with pytest.raises(HypothesisError, match="primitive"):
            verify(IdentityCase("T2_1", q=8, char_index=2, k=0, nu=0.6,
                                a=1.0, x=0.75))

    def test_principal_flip(self):
        with pytest.raises(HypothesisError, match="non-principal"):
            verify(IdentityCase("T2_13", q=5, char_index=0, a=1.0, x=0.3))

    def test_excluded_parameter(self):
        x = 16.0 * PI * PI / 5.0  # lands c exactly on 1
        with pytest.raises(ExcludedParameter):
            verify(IdentityCase("T2_13", q=5, char_index=2, a=1.0, x=x))
        with pytest.raises(ExcludedParameter):
            verify(IdentityCase("T3_1", q=5, char_index=2, nu=0.3, N=1, x=0.4))

    def test_voronoi_interval(self):
        with pytest.raises(ExcludedParameter, match="alpha"):
            verify(IdentityCase("T4_1", q=5, char_index=2, nu=0.25,
                                alpha=1.0, beta=3.4, f="exp"))
        with pytest.raises(HypothesisError, match="between 0 and 1/2"):
            verify(IdentityCase("T4_1", q=5, char_index=2, nu=0.7,
                                alpha=0.5, beta=3.4, f="exp"))

    def test_integer_nu_rejected_for_cohen(self):
        with pytest.raises(HypothesisError, match="integer"):
            verify(IdentityCase("T3_1", q=5, char_index=2, nu=1.0, N=1, x=0.21))

    def test_N_floor(self):
        with pytest.raises(HypothesisError, match="floor"):
            verify(IdentityCase("P1_1", nu=2.5, N=0, x=0.45))

    def test_unknown_test_function(self):
        with pytest.raises(DomainError, match="test function"):
            verify(IdentityCase("T4_1", q=5, char_index=2, nu=0.25,
                                alpha=0.5, beta=3.4, f="sinc"))

    def test_unread_parameter_rejected(self):
        # T2_2 is the nu = 0 form; C3_1 fixes nu = 1/2 and has no N
        with pytest.raises(DomainError, match=r"T2_2 does not take .* nu$"):
            verify(IdentityCase("T2_2", q=4, char_index=1, k=0, a=1.0, x=0.3,
                                nu=0.6))
        with pytest.raises(DomainError, match=r" nu, N$"):
            verify(IdentityCase("C3_1", q=5, char_index=2, x=0.21, nu=0.3, N=3))
        # a one-character entry reads only its own modulus field
        with pytest.raises(DomainError, match=r"\) p$"):
            verify(IdentityCase("C3_1", q=5, char_index=2, x=0.21, p=5))


def test_zero_lhs_record_is_strict_json(tmp_path):
    # an interval holding no integer makes the finite side exactly 0
    from tblab.identities import VerificationReport
    case = IdentityCase("T4_1", q=5, char_index=2, nu=0.25, alpha=0.2,
                        beta=0.7, f="exp")
    report = VerificationReport(case, 0j, 2e-4 + 0j, 2e-4, math.inf,
                                0, 20000, True, 1e-3, 1.0)
    assert report_record(report)["rel_err"] is None

    def refuse(name):
        raise AssertionError(f"non-strict JSON constant {name}")

    for fmt in ("jsonl", "json"):
        path = tmp_path / f"zero.{fmt}"
        write_reports([report], str(path), fmt=fmt)
        rec = json.loads(path.read_text(), parse_constant=refuse)
        if fmt == "json":
            rec = rec["reports"][0]
        assert rec["rel_err"] is None and rec["lhs_re"] == 0.0
