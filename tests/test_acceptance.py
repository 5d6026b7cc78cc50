"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with `pytest -s` to see them all)
and asserts both the tolerance and its runtime budget.
"""

import math
import time

import numpy as np

from tblab.bessel import (
    JY_CUT,
    K_ASYM_CUT,
    bessel_I,
    bessel_J,
    bessel_K,
    bessel_Y,
)
from tblab.characters import enumerate_characters, gauss_sum
from tblab.errors import ExcludedParameter, HypothesisError
from tblab.identities import IdentityCase, positivity_scan, run_suite, verify
from tblab.series import QuadratureSpec, adaptive_integral
from tblab.specfun import (
    dirichlet_L,
    functional_equation_residual,
    generalized_bernoulli,
)

PI = math.pi


def _report(number: int, name: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"\nacceptance {number} ({name}): {verdict} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_character_gauss_invariants():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for q in range(1, 31):
        for chi in enumerate_characters(q):
            if not chi.is_primitive:
                continue
            tau = gauss_sum(chi).value
            worst = max(worst, abs(abs(tau) ** 2 - q))
            if not chi.is_principal:
                prod = tau * gauss_sum(chi.conjugate()).value
                expected = -q if chi.is_odd else q
                worst = max(worst, abs(prod - expected))
            count += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    _report(1, "character/Gauss invariants", ok,
            f"{count} primitive characters q<=30, worst residual {worst:.2e}, "
            f"{elapsed:.2f}s")


def test_criterion_2_l_function_continuation():
    t0 = time.perf_counter()
    worst_b = 0.0
    for q in range(1, 21):
        for chi in enumerate_characters(q):
            for n in range(1, 7):
                err = abs(dirichlet_L(1.0 - n, chi)
                          + generalized_bernoulli(n, chi) / n)
                worst_b = max(worst_b, err)
    # 30-point (s, chi) grid inside the direct-continuation window
    chars = [enumerate_characters(q)[i] for q, i in
             ((3, 1), (4, 1), (5, 1), (5, 2), (7, 2), (8, 1))]
    svals = [-1.2, -0.4, 0.25, 0.8, complex(1.6, 1.0)]
    worst_f = 0.0
    for chi in chars:
        for s in svals:
            worst_f = max(worst_f, functional_equation_residual(s, chi))
    elapsed = time.perf_counter() - t0
    ok = worst_b < 1e-9 and worst_f < 1e-9 and elapsed < 5.0
    _report(2, "L continuation", ok,
            f"Bernoulli agreement {worst_b:.2e}, functional-equation residual "
            f"{worst_f:.2e} on {len(chars) * len(svals)} points, {elapsed:.2f}s")


def test_criterion_3_bessel_layer():
    t0 = time.perf_counter()
    worst_half = 0.0
    for x in np.geomspace(0.1, 100.0, 40):
        kh = math.sqrt(PI / (2 * x)) * math.exp(-x)
        worst_half = max(
            worst_half,
            abs(bessel_K(0.5, x) - kh) / kh,
            abs(bessel_J(0.5, x) - math.sqrt(2 / (PI * x)) * math.sin(x)),
            abs(bessel_Y(0.5, x) + math.sqrt(2 / (PI * x)) * math.cos(x)),
            abs(bessel_I(0.5, x) - math.sqrt(2 / (PI * x)) * math.sinh(x))
            / max(1.0, math.sqrt(2 / (PI * x)) * math.sinh(x)),
        )
    worst_int = 0.0
    for x in np.linspace(0.4, 12.0, 10):
        T = math.acosh(1 + 50.0 / x)
        quad = adaptive_integral(lambda t: math.exp(-x * math.cosh(t)),
                                 QuadratureSpec(0.0, T, tol=1e-13))
        worst_int = max(worst_int, abs(bessel_K(0.0, float(x)) - quad))
    worst_w = 0.0
    h = 1e-5
    for nu, x in ((0.0, 1.0), (0.25, 3.0), (0.5, 7.5), (1.0, 2.2), (1.3, 2.0),
                  (0.25, 16.0), (0.75, 5.5), (1.7, 9.0), (0.1, 0.7), (2.0, 4.4)):
        yp = (bessel_Y(nu, x + h) - bessel_Y(nu, x - h)) / (2 * h)
        jp = (bessel_J(nu, x + h) - bessel_J(nu, x - h)) / (2 * h)
        wron = bessel_J(nu, x) * yp - jp * bessel_Y(nu, x)
        worst_w = max(worst_w, abs(wron - 2 / (PI * x)))
    from tblab.bessel import (
        _ascending, _jy_hankel_arr, _k_asym_arr, _k_bridge_arr, _y_bridge_arr)
    worst_c = 0.0
    for nu in (0.0, 0.25, 0.5, 1.0, 1.3):
        jh, yh = (float(v[0]) for v in _jy_hankel_arr(nu, np.array([JY_CUT])))
        worst_c = max(
            worst_c,
            abs(float(_k_bridge_arr(nu, np.array([K_ASYM_CUT]))[0])
                - float(_k_asym_arr(nu, np.array([K_ASYM_CUT]))[0])),
            abs(float(_ascending(nu, np.array([JY_CUT]), -1.0)[0]) - jh),
            abs(float(_y_bridge_arr(nu, np.array([JY_CUT]))[0]) - yh),
        )
    elapsed = time.perf_counter() - t0
    ok = (worst_half < 1e-11 and worst_int < 1e-10 and worst_w < 1e-9
          and worst_c < 1e-9 and elapsed < 5.0)
    _report(3, "Bessel layer", ok,
            f"half-order {worst_half:.2e}, K0-integral {worst_int:.2e}, "
            f"Wronskian {worst_w:.2e}, branch continuity {worst_c:.2e}, "
            f"{elapsed:.2f}s")


def _suite_stats(reports):
    failures = [r for r in reports if not r.passed]
    worst = max((min(r.rel_err, r.abs_err) for r in reports), default=0.0)
    return failures, worst


def test_criterion_4_weight_k_suite():
    t0 = time.perf_counter()
    reports = run_suite("T2") + run_suite("C2")
    elapsed = time.perf_counter() - t0
    failures, worst = _suite_stats(reports)
    per_theorem = {}
    for r in reports:
        per_theorem.setdefault(r.case.theorem, 0)
        per_theorem[r.case.theorem] += 1
    ok = (not failures and elapsed < 60.0
          and all(n >= 3 for n in per_theorem.values())
          and all(r.rel_err < 1e-8 or r.abs_err < 1e-8 * abs(r.lhs) + 1e-14
                  for r in reports))
    _report(4, "weight-k identity suite", ok,
            f"{len(reports)} cases over {len(per_theorem)} identities, "
            f"worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_cohen_suite():
    t0 = time.perf_counter()
    reports = run_suite("T3")
    half = run_suite(["C3_1", "C3_2", "C3_3", "C3_4"])
    equal_char = run_suite(["C3_5", "C3_6"])
    failures, worst = _suite_stats(reports + half + equal_char)
    # N-independence of the closed side
    n_drift = 0.0
    for tid, params in (("T3_1", dict(q=5, char_index=2, nu=0.25, x=0.21)),
                        ("T3_4", dict(q=3, char_index=1, nu=0.45, x=0.41)),
                        ("T3_6", dict(p=3, char_index=1, q=4, char2_index=1,
                                      nu=0.3, x=0.11))):
        r1 = verify(IdentityCase(tid, N=1, **params))
        r2 = verify(IdentityCase(tid, N=2, **params))
        n_drift = max(n_drift, abs(r1.rhs - r2.rhs))
    elapsed = time.perf_counter() - t0
    worst_half = max(min(r.rel_err, r.abs_err) for r in half)
    ok = (not failures and n_drift < 1e-9 and worst_half < 1e-9
          and elapsed < 120.0)
    _report(5, "Cohen-type suite", ok,
            f"{len(reports)} theorem cases + {len(half)} elementary "
            f"specializations + {len(equal_char)} equal-character cases, "
            f"worst {worst:.2e}, N-drift {n_drift:.2e}, "
            f"half-order worst {worst_half:.2e}, {elapsed:.1f}s")


def test_criterion_6_summation_formula_suite():
    t0 = time.perf_counter()
    reports = run_suite("T4")
    elapsed = time.perf_counter() - t0
    failures, worst = _suite_stats(reports)
    combos = {(r.case.theorem, r.case.f, (r.case.alpha, r.case.beta))
              for r in reports}
    ok = (not failures and elapsed < 600.0
          and len(combos) == 8 * 3 * 2)
    _report(6, "summation-formula suite", ok,
            f"{len(reports)} cases (8 identities x 3 test functions x 2 "
            f"intervals), worst residual {worst:.2e}, {elapsed:.0f}s")


def test_criterion_7_positivity():
    t0 = time.perf_counter()
    rows = positivity_scan(50)
    spot = {3: PI / (3 * math.sqrt(3)), 4: PI / 4,
            5: 2 / math.sqrt(5) * math.log((1 + math.sqrt(5)) / 2)}
    worst_spot = max(abs(val - spot[q]) for q, _, val in rows if q in spot)
    all_positive = all(val > 0 for _, _, val in rows)
    elapsed = time.perf_counter() - t0
    ok = all_positive and worst_spot < 1e-9
    _report(7, "positivity scan", ok,
            f"{len(rows)} real primitive characters q<=50 all positive, "
            f"spot-value error {worst_spot:.2e}, {elapsed:.2f}s")


def _flip_cases():
    """Per identity: mutations violating exactly one hypothesis clause."""
    flips = []

    def add(tid, desc, **params):
        flips.append((tid, desc, IdentityCase(tid, **params)))

    odd1 = dict(q=4, char_index=1)
    even1 = dict(q=5, char_index=2)
    # wrong parity / principal / imprimitive / k parity / k floor
    add("T2_1", "even chi where odd required", q=5, char_index=2, k=0, nu=0.6, a=1.0, x=0.75)
    add("T2_1", "odd k where even required", k=1, nu=0.6, a=1.0, x=0.75, **odd1)
    add("T2_1", "imprimitive chi", q=8, char_index=2, k=0, nu=0.6, a=1.0, x=0.75)
    add("T2_2", "even chi where odd required", q=5, char_index=2, k=0, a=1.0, x=0.75)
    add("T2_2", "odd k", k=3, a=1.0, x=0.75, **odd1)
    add("T2_3", "k below minimum", k=0, nu=0.6, a=1.0, x=0.75, **odd1)
    add("T2_3", "even chi", q=5, char_index=2, k=2, nu=0.6, a=1.0, x=0.75)
    add("T2_4", "k below minimum", k=0, a=1.0, x=0.75, **odd1)
    add("T2_5", "odd chi where even required", q=4, char_index=1, k=1, nu=0.6, a=1.0, x=0.75)
    add("T2_5", "even k where odd required", k=2, nu=0.6, a=1.0, x=0.75, **even1)
    add("T2_5", "principal chi", q=5, char_index=0, k=1, nu=0.6, a=1.0, x=0.75)
    add("T2_6", "odd chi", q=4, char_index=1, k=1, a=1.0, x=0.75)
    add("T2_6", "even k", k=2, a=1.0, x=0.75, **even1)
    add("T2_7", "imprimitive even chi", q=15, char_index=None, k=1, nu=0.6, a=1.0, x=0.75)
    add("T2_8", "odd chi", q=4, char_index=1, k=1, a=1.0, x=0.75)
    add("T2_9", "even chi1 where odd required", p=5, char_index=2, q=4, char2_index=1, a=1.0, x=0.75)
    add("T2_9", "excluded shift parameter", p=3, char_index=1, q=4, char2_index=1,
        a=1.0, x=16 * PI * PI / 12.0)
    add("T2_10", "mixed parities where matched required", p=5, char_index=2,
        q=4, char2_index=1, k=1, nu=0.6, a=1.0, x=0.75)
    add("T2_10", "even k", p=5, char_index=2, q=7, char2_index=2, k=2, nu=0.6, a=1.0, x=0.75)
    add("T2_11", "mixed parities", p=5, char_index=2, q=4, char2_index=1, k=1, a=1.0, x=0.75)
    add("T2_12", "odd chi2", p=5, char_index=2, q=4, char2_index=1, a=1.0, x=0.75)
    add("T2_12", "excluded shift parameter", p=5, char_index=2, q=8, char2_index=1,
        a=1.0, x=16 * PI * PI / 40.0)
    add("T2_13", "odd chi", q=5, char_index=1, a=1.0, x=0.3)
    add("T2_13", "principal chi", q=5, char_index=0, a=1.0, x=0.3)
    add("T2_13", "excluded shift parameter", a=1.0, x=16 * PI * PI / 5.0, **even1)
    add("T2_14", "matched parities where mixed required", p=5, char_index=2,
        q=7, char2_index=2, k=0, nu=0.6, a=1.0, x=0.75)
    add("T2_14", "odd k", p=5, char_index=2, q=4, char2_index=1, k=1, nu=0.6, a=1.0, x=0.75)
    add("T2_15", "matched parities", p=3, char_index=1, q=4, char2_index=1, k=0, a=1.0, x=0.75)
    add("C2_1", "principal chi", q=5, char_index=0, k=1, nu=0.6, a=1.0, x=0.75)
    add("C2_1", "even k", k=2, nu=0.6, a=1.0, x=0.75, **even1)
    add("C2_2", "imprimitive chi", q=8, char_index=2, k=1, a=1.0, x=0.75)
    add("P1_1", "integer nu", nu=1.0, N=1, x=0.3)
    add("P1_1", "N below floor", nu=2.5, N=0, x=0.45)
    add("P1_1", "excluded integer x", nu=0.25, N=1, x=2.0)
    for tid in ("T3_1", "T3_2"):
        add(tid, "odd chi where even required", q=5, char_index=1, nu=0.25, N=1, x=0.21)
        add(tid, "excluded q*x", nu=0.25, N=1, x=0.4, **even1)
    for tid in ("T3_3", "T3_4"):
        add(tid, "even chi where odd required", q=5, char_index=2, nu=0.25, N=1, x=0.21)
        add(tid, "integer nu", q=5, char_index=1, nu=2.0, N=2, x=0.21)
    add("T3_5", "odd chi2", p=5, char_index=2, q=4, char2_index=1, nu=0.25, N=1, x=0.021)
    add("T3_5", "excluded p*q*x", p=5, char_index=2, q=7, char2_index=2, nu=0.25, N=1, x=2.0 / 35)
    add("T3_6", "even chi1", p=5, char_index=2, q=4, char2_index=1, nu=0.25, N=1, x=0.11)
    add("T3_7", "swapped parities", p=4, char_index=1, q=5, char2_index=2, nu=0.25, N=1, x=0.061)
    add("T3_8", "swapped parities", p=5, char_index=2, q=4, char2_index=1, nu=0.25, N=1, x=0.081)
    add("C3_1", "odd chi", q=5, char_index=1, x=0.21)
    add("C3_2", "excluded q*x", x=0.4, **even1)
    add("C3_3", "even chi", q=5, char_index=2, x=0.21)
    add("C3_4", "excluded q*x", q=4, char_index=1, x=0.5)
    add("C3_5", "odd chi", q=5, char_index=1, nu=0.25, N=1, x=0.021)
    add("C3_6", "even chi", p=5, char_index=2, nu=0.25, N=1, x=0.051)
    for tid, good in (("T4_1", even1), ("T4_2", even1),
                      ("T4_3", dict(q=5, char_index=1)), ("T4_4", dict(q=5, char_index=1))):
        wrong = dict(q=5, char_index=1 if good == even1 else 2)
        add(tid, "wrong parity", nu=0.25, alpha=0.5, beta=3.4, f="exp", **wrong)
        add(tid, "nu outside (0, 1/2)", nu=0.6, alpha=0.5, beta=3.4, f="exp", **good)
        add(tid, "integer endpoint", nu=0.25, alpha=1.0, beta=3.4, f="exp", **good)
    add("T4_5", "odd chi2", p=5, char_index=2, q=4, char2_index=1,
        nu=0.25, alpha=0.5, beta=3.4, f="exp")
    add("T4_6", "even chi1", p=5, char_index=2, q=4, char2_index=1,
        nu=0.25, alpha=0.5, beta=3.4, f="exp")
    add("T4_7", "swapped parities", p=4, char_index=1, q=5, char2_index=2,
        nu=0.25, alpha=0.5, beta=3.4, f="exp")
    add("T4_8", "swapped parities", p=5, char_index=2, q=4, char2_index=1,
        nu=0.25, alpha=0.5, beta=3.4, f="exp")
    add("C4_1", "odd chi", q=5, char_index=1, nu=0.25, alpha=0.5, beta=3.4, f="exp")
    add("C4_1", "integer endpoint", q=5, char_index=2, nu=0.25, alpha=0.5, beta=3.0, f="exp")
    add("C4_2", "even chi", q=5, char_index=2, nu=0.25, alpha=0.5, beta=3.4, f="exp")
    return flips


def test_criterion_8_hypothesis_enforcement():
    t0 = time.perf_counter()
    flips = _flip_cases()
    covered = set()
    silent = []
    for tid, desc, case in flips:
        covered.add(tid)
        if tid == "T2_7" and case.char_index is None:
            # locate an even imprimitive non-principal character mod 15
            chars = enumerate_characters(15)
            idx = next(c.index for c in chars
                       if c.is_even and not c.is_principal and not c.is_primitive)
            case = IdentityCase(**{**case.params(), "char_index": idx,
                                   "theorem": tid})
        try:
            verify(case)
            silent.append((tid, desc))
        except (HypothesisError, ExcludedParameter):
            pass
    from tblab.identities import THEOREMS
    missing = set(THEOREMS) - covered
    elapsed = time.perf_counter() - t0
    ok = not silent and not missing
    _report(8, "hypothesis enforcement", ok,
            f"{len(flips)} flips across {len(covered)} identities, "
            f"silent misverifications: {silent or 'none'}, "
            f"uncovered: {sorted(missing) or 'none'}, {elapsed:.1f}s")
