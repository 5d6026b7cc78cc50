import io
import json
import math
import numbers
import re
from pathlib import Path

import numpy as np
import pytest

from tblab import identities
from tblab.arith import DivisorSumSpec, divisor_sum
from tblab.characters import TRIVIAL, enumerate_characters, gauss_sum
from tblab.errors import ConvergenceError, DomainError, ExcludedParameter, HypothesisError
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
from tblab.series import SeriesResult
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


def _stages(terms):
    """The SeriesResults of an evaluator's term list, each checked to sit
    as the part of a (prefactor, part) pair, never as a plain value."""
    found = []
    for term in terms:
        assert not isinstance(term, (SeriesResult, list))
        if isinstance(term, tuple):
            pref, part = term
            assert isinstance(pref, numbers.Number)
            if isinstance(part, list):
                found += _stages(part)
            else:
                assert isinstance(part, SeriesResult)
                found.append(part)
        else:
            assert isinstance(term, numbers.Number)
    return found


@pytest.mark.parametrize("tid", sorted(THEOREMS))
def test_every_stage_keeps_its_prefactor(tid):
    # items of a term list are plain numbers or (prefactor, part) pairs;
    # every stage result stays the part of its pair, and the sum of the
    # list is the rhs and terms verify reports
    entry = THEOREMS[tid]
    for point in entry.points:
        case = IdentityCase(tid, **point)
        terms = entry.evaluate(**identities._check(entry, case))
        stages = _stages(terms)
        assert stages
        report = verify(case)
        assert identities._closed_side(terms) == (report.rhs, report.rhs_terms)
        assert report.rhs_terms == sum(stage.terms for stage in stages)


def test_closed_side_sums_in_list_order():
    closed_side = identities._closed_side
    assert closed_side([1e16, 1.0, -1e16]) == (0.0, 0)  # regrouped it would be 1.0
    assert closed_side([-1e16, 1e16, 1.0]) == (1.0, 0)
    # a nested list is summed before its prefactor multiplies it, and the
    # terms of its stages add to those outside it
    inner = [3.0, (0.5, SeriesResult(4.0, 7, 0.0))]
    assert closed_side([1.0, (2.0, inner), (-1.0, SeriesResult(2.0, 5, 0.0))]) == (9.0, 12)
    assert closed_side([(1j, [(2.0, [1.0, (1.0, SeriesResult(1.0, 3, 0.0))])])]) == (4j, 3)


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
    from tblab.identities import TEST_FUNCTIONS, _finite_side
    chi = enumerate_characters(5)[2]
    spec = DivisorSumSpec(-0.25, TRIVIAL, chi)
    f = TEST_FUNCTIONS["exp"]
    before, n1 = _finite_side(f, 0.5, 3.4, spec, False)
    after, n2 = _finite_side(f, 0.5, 4.2, spec, False)
    assert n2 == n1 + 1
    expected = divisor_sum(spec, 4) * math.exp(-4.0)
    assert abs((after - before) - expected) < 1e-14


def _stated_finite_sum(case):
    """(g, prefactor, over_j) of a summation formula's finite sum
    prefactor * sum_{alpha<j<beta} f(j) g(j) j^{-over_j}, as its theorem
    states it."""
    nu, q = case.nu, case.q
    if case.theorem in ("T4_1", "T4_2", "T4_3", "T4_4"):
        chi = enumerate_characters(q)[case.char_index]
        tau = gauss_sum(chi).value
        if case.theorem in ("T4_1", "T4_3"):  # the bar twist, over j for an odd chi
            return DivisorSumSpec(-nu, TRIVIAL, chi), q ** (1 - nu / 2) / tau, chi.is_odd
        return DivisorSumSpec(-nu, chi, TRIVIAL), q ** (1 + nu / 2) / tau, False
    # T4_5..T4_8, and C4_1, C4_2 with chi1 = chi2 and p = q
    p = case.p or q
    chi1 = enumerate_characters(p)[case.char_index]
    chi2 = enumerate_characters(q)[case.char2_index if case.p else case.char_index]
    pref = p ** (1 - nu / 2) * q ** (1 + nu / 2) / (gauss_sum(chi1).value
                                                    * gauss_sum(chi2).value)
    return DivisorSumSpec(-nu, chi2, chi1), pref, chi1.is_odd


@pytest.mark.parametrize("theorem", [f"T4_{i}" for i in range(1, 9)] + ["C4_1", "C4_2"])
def test_voronoi_divisor_side_is_its_brute_force_sum(theorem):
    # verify's lhs against the finite sum written out term by term, with
    # each f_z(j) from its divisors
    for case in default_cases([theorem]):
        g, pref, over_j = _stated_finite_sum(case)
        js = range(math.floor(case.alpha) + 1, math.ceil(case.beta))
        assert 0 < len(js) <= 5
        f = identities.TEST_FUNCTIONS[case.f]
        brute = pref * sum(complex(f(np.array([float(j)]))[0]) * divisor_sum(g, j)
                           / (j if over_j else 1) for j in js)
        assert abs(verify(case).lhs - brute) <= 1e-14 * abs(brute), case


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


# a sum whose length the parameters fix: 12,831 terms at x = 0.001, and
# 3,000 coefficients below beta = 3000.5
_LONG_SUMS = (IdentityCase("C3_1", q=5, char_index=2, x=0.001),
              IdentityCase("T4_1", q=5, char_index=2, nu=0.25, alpha=0.5, beta=3000.5,
                           f="exp"))


@pytest.mark.parametrize("case", _LONG_SUMS, ids=lambda c: c.theorem)
def test_sum_past_the_term_budget_fails_before_allocating(monkeypatch, case):
    def refuse(spec, count):
        raise AssertionError(f"coefficient_array({count}) ran past the budget")

    monkeypatch.setenv("TBL_MAX_TERMS", "1000")
    monkeypatch.setattr("tblab.identities.coefficient_array", refuse)
    with pytest.raises(ConvergenceError, match="term budget of 1000"):
        verify(case)


_SEC2_CASE = IdentityCase("T2_13", q=5, char_index=2, a=1.0, x=0.3)
_VORONOI_CASE = IdentityCase("T4_1", q=5, char_index=2, nu=0.25, alpha=0.5, beta=3.4,
                             f="exp")


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("case", [_SEC2_CASE, _VORONOI_CASE], ids=lambda c: c.theorem)
def test_tolerance_must_be_finite_and_positive(case, tol):
    with pytest.raises(DomainError, match="tol must be a finite number > 0"):
        verify(case, tol)


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


def test_positivity_scan_refuses_a_q_max_that_is_not_an_int():
    with pytest.raises(DomainError, match="q_max must be of type int"):
        positivity_scan(4.5)


def test_positivity_scan_refuses_a_q_max_past_the_budget_before_scanning(monkeypatch):
    monkeypatch.setenv("TBL_MAX_TERMS", "40")
    scanned = []
    monkeypatch.setattr(identities, "enumerate_characters", scanned.append)
    with pytest.raises(ConvergenceError, match="term budget of 40"):
        positivity_scan(45)
    assert scanned == []


def _jsonl(reports, **loads) -> list[dict]:
    fh = io.StringIO()
    write_reports(reports, fh)
    return [json.loads(line, **loads) for line in fh.getvalue().splitlines()]


def test_report_schema_and_serialization():
    reports = run_suite(["T2_13"])
    rec = report_record(reports[0])
    assert set(rec) == {"theorem_id", "params", "lhs_re", "lhs_im", "rhs_re",
                        "rhs_im", "abs_err", "rel_err", "pass", "terms",
                        "wall_ms"}
    assert _jsonl(reports) == [json.loads(json.dumps(report_record(r))) for r in reports]


def test_determinism_modulo_wall_ms():
    rec0, rec1 = (_jsonl(run_suite(["T3_2"])) for _ in range(2))
    for a, b in zip(rec0, rec1):
        a.pop("wall_ms"), b.pop("wall_ms")
        assert a == b


def test_parallel_runner_matches_sequential():
    seq = run_suite(["T2_13"])
    par = run_suite(["T2_13"], workers=2)
    assert [r.case for r in seq] == [r.case for r in par]
    for a, b in zip(seq, par):
        assert abs(a.lhs - b.lhs) < 1e-13 and abs(a.rhs - b.rhs) < 1e-13


class _InProcessPool:
    """A stand-in for ProcessPoolExecutor that records max_workers and
    maps in this process, starting none."""

    requested = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize("workers, pools", [(64, [4]), (3, [3]), (1, [])])
def test_parallel_runner_starts_no_more_processes_than_cases(monkeypatch, workers, pools):
    monkeypatch.setattr(identities, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "requested", [])
    reports = run_suite(["T2_13"], workers=workers)  # 4 cases
    assert len(reports) == 4 and all(r.passed for r in reports)
    assert _InProcessPool.requested == pools



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

    @pytest.mark.parametrize("theorem, point, message", [
        ("C3_5", dict(q=5, char_index=2, x=0.08, nu=0.25, N=1), "q^2*x = 2"),
        ("C3_6", dict(p=4, char_index=1, x=0.125, nu=0.25, N=1), "p^2*x = 2"),
        ("T3_1", dict(q=5, char_index=2, x=0.4, nu=0.25, N=1), "q*x = 2"),
        ("T3_5", dict(p=5, char_index=2, q=7, char2_index=2, x=2 / 35, nu=0.25, N=1),
         "p*q*x = 2"),
        ("P1_1", dict(x=2.0, nu=0.25, N=1), "x = 2"),
        ("T2_13", dict(q=5, char_index=2, a=1.0, x=16 * PI * PI / 5),
         "a^2*q*x/(16*pi^2) = 1"),
        ("T2_12", dict(p=5, char_index=2, q=8, char2_index=1, a=1.0, x=16 * PI * PI / 40),
         "a^2*p*q*x/(16*pi^2) = 1"),
    ], ids=["C3_5", "C3_6", "T3_1", "T3_5", "P1_1", "T2_13", "T2_12"])
    def test_each_excluded_clause_is_named(self, theorem, point, message):
        # each point puts its clause's expression on an integer
        with pytest.raises(ExcludedParameter,
                           match=f"^{re.escape(message)} must not be a positive integer$"):
            verify(IdentityCase(theorem, **point))

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


def test_zero_lhs_record_is_strict_json():
    # an interval holding no integer makes the finite side exactly 0
    from tblab.identities import VerificationReport
    case = IdentityCase("T4_1", q=5, char_index=2, nu=0.25, alpha=0.2,
                        beta=0.7, f="exp")
    report = VerificationReport(case, 0j, 2e-4 + 0j, 2e-4, math.inf,
                                0, 20000, True, 1e-3, 1.0)
    assert report_record(report)["rel_err"] is None

    def refuse(name):
        raise AssertionError(f"non-strict JSON constant {name}")

    (rec,) = _jsonl([report], parse_constant=refuse)
    assert rec["rel_err"] is None and rec["lhs_re"] == 0.0


def test_run_suite_reports_a_raising_case_as_failed(monkeypatch):
    # under a 100-term budget every T2_13 case raises ConvergenceError; the
    # suite reports each as a failed case that names the error class
    monkeypatch.setenv("TBL_MAX_TERMS", "100")
    reports = run_suite("T2_13")
    assert len(reports) == len(THEOREMS["T2_13"].points)
    for r in reports:
        assert not r.passed and r.error.startswith("ConvergenceError: ")
        record = report_record(r)
        assert record["error"] == r.error and record["lhs_re"] is None
        json.dumps(record, allow_nan=False)


def test_report_record_has_no_error_field_unless_raised():
    record = report_record(verify(IdentityCase("T2_13", q=5, char_index=2, a=1.0, x=0.3)))
    assert "error" not in record and record["pass"]
