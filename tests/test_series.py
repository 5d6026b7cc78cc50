import math

import numpy as np
import pytest

from tblab.arith import (
    BAR_TWISTED,
    TWISTED,
    UNIT,
    DivisorSumSpec,
    coefficient_array,
)
from tblab.bessel import k_values
from tblab.characters import enumerate_characters
from tblab.errors import (
    ConvergenceError,
    DivergenceError,
    DomainError,
    ExcludedParameter,
    QuadratureError,
)
from tblab.series import (
    QuadratureSpec,
    SeriesParams,
    adaptive_integral,
    bessel_series,
    cohen_tail_series,
    log_kernel_series,
    oscillatory_kernel_integrals,
    shifted_power_series,
    voronoi_kernel,
)

PI = math.pi


@pytest.fixture(scope="module")
def chi5e():
    return enumerate_characters(5)[2]


@pytest.fixture(scope="module")
def unit():
    return DivisorSumSpec(UNIT)


class TestBesselSeries:
    def test_doubled_truncation_consistency(self, chi5e):
        spec = DivisorSumSpec(TWISTED, 0, chi5e)
        r1 = bessel_series(spec, SeriesParams(1.0, 4.0, 0.0, tol=1e-12))
        r2 = bessel_series(spec, SeriesParams(1.0, 4.0, 0.0, tol=1e-16,
                                              rel_tol=1e-16))
        assert abs(r1.value - r2.value) < 1e-12
        assert abs(r1.value - r2.value) <= r1.tail_bound + 1e-15

    def test_half_order_reduces_to_exponentials(self):
        # nu = 1/2, weight -1/2: each term is an elementary exponential
        triv = enumerate_characters(1)[0]
        spec = DivisorSumSpec(TWISTED, -0.5, triv)
        a, x = 2.0, 1.3
        r = bessel_series(spec, SeriesParams(a, x, 0.5, tol=1e-14))
        lam = a * math.sqrt(x)
        coefs = coefficient_array(spec, 4000)[1:].real
        ns = np.arange(1, 4001, dtype=float)
        elementary = np.sum(coefs * ns ** 0.25
                            * np.sqrt(PI / (2 * lam * np.sqrt(ns)))
                            * np.exp(-lam * np.sqrt(ns)))
        assert abs(r.value.real - elementary) < 1e-12

    def test_plain_divisor_function_brute_reference(self):
        triv = enumerate_characters(1)[0]
        spec = DivisorSumSpec(TWISTED, 0, triv)
        r = bessel_series(spec, SeriesParams(1.0, 1.0, 0.3, tol=1e-12))
        coefs = coefficient_array(spec, 10 ** 5)[1:].real
        ns = np.arange(1, 10 ** 5 + 1, dtype=float)
        brute = float(np.sum(coefs * ns ** 0.15 * k_values(0.3, np.sqrt(ns))))
        assert abs(r.value.real - brute) < 1e-11

    def test_budget_exhaustion(self, chi5e, monkeypatch):
        monkeypatch.setenv("TBL_MAX_TERMS", "500")
        spec = DivisorSumSpec(TWISTED, 0, chi5e)
        with pytest.raises(ConvergenceError):
            bessel_series(spec, SeriesParams(0.05, 0.05, 0.0, tol=1e-12))

    def test_hopeless_budget_fails_fast(self, unit, monkeypatch):
        # at x = 1e-7 the term bound has not begun to decay by the 10^6-term cap
        def refuse(*args, **kwargs):
            raise AssertionError("coefficients built for a hopeless series")

        monkeypatch.setattr("tblab.series.coefficient_array", refuse)
        with pytest.raises(ConvergenceError):
            bessel_series(unit, SeriesParams(1.0, 1e-7))

    def test_honest_certificate(self, chi5e):
        spec = DivisorSumSpec(TWISTED, -0.25, chi5e)
        r = bessel_series(spec, SeriesParams(0.6, 0.4, 0.25, tol=1e-10))
        coefs = coefficient_array(spec, 4 * r.terms)
        ns = np.arange(1, 4 * r.terms + 1, dtype=float)
        full = np.sum(coefs[1:] * ns ** 0.125
                      * k_values(0.25, 0.6 * math.sqrt(0.4) * np.sqrt(ns)))
        assert abs(r.value - full) <= r.tail_bound


class TestShiftedPowerSeries:
    def test_unit_weights_reduce_to_zeta(self, unit):
        r = shifted_power_series(unit, 2.0, 0.0)
        assert abs(r.value - PI * PI / 6) < 1e-13

    def test_difference_form_vanishes_at_zero_shift(self, chi5e):
        spec = DivisorSumSpec(BAR_TWISTED, 0, chi5e)
        r = shifted_power_series(spec, 1.0, 0.0, difference_form=True)
        assert r.value == 0

    def test_head_doubling(self, unit):
        r1 = shifted_power_series(unit, 1.25, 0.7)
        r2 = shifted_power_series(unit, 1.25, 0.7, head=2000)
        assert abs(r1.value - r2.value) < 1e-11

    def test_slow_exponent_brute_reference(self, unit):
        # p = 1.25 decays far too slowly for naive truncation; compare
        # against a 2e7-term sum completed by its integral tail
        r = shifted_power_series(unit, 1.25, 0.7)
        ns = np.arange(1, 2 * 10 ** 7, dtype=float)
        brute = np.sum((ns + 0.7) ** -1.25)
        tail = (ns[-1] + 0.7) ** -0.25 / 0.25
        assert abs(r.value.real - (brute + tail)) < 1e-8

    def test_difference_form_brute(self):
        chi3 = enumerate_characters(3)[1]
        spec = DivisorSumSpec(TWISTED, 2, chi3)
        r = shifted_power_series(spec, 3.0, 0.37, difference_form=True)
        coefs = coefficient_array(spec, 2 * 10 ** 6)[1:]
        ns = np.arange(1, 2 * 10 ** 6 + 1, dtype=float)
        brute = np.sum(coefs * (ns ** -3.0 - (ns + 0.37) ** -3.0))
        assert abs(r.value - brute) < 1e-11

    def test_divergent(self, unit):
        with pytest.raises(DivergenceError):
            shifted_power_series(unit, 1.0, 0.5)


class TestLogKernelSeries:
    def test_excluded_parameter(self, chi5e):
        spec = DivisorSumSpec(TWISTED, 0, chi5e)
        with pytest.raises(ExcludedParameter):
            log_kernel_series(spec, 2.0)

    def test_near_pole_expansion(self, unit):
        # n = 2 lies within 1e-3 c of c, so its head term comes from the
        # removable-singularity expansion
        c = 2.0005
        r = log_kernel_series(unit, c)
        ns = np.arange(1, 10 ** 6 + 1, dtype=float)
        brute = np.sum(np.log(ns / c) / (ns * ns - c * c))
        tail = (math.log(1e6 / c) + 1) / 1e6  # integral tail of log(t/c)/t^2
        assert abs(r.value.real - (brute + tail)) < 1e-9

    def test_unit_brute_reference(self, unit):
        r = log_kernel_series(unit, 0.5)
        ns = np.arange(1, 10 ** 6 + 1, dtype=float)
        brute = np.sum(np.log(ns / 0.5) / (ns * ns - 0.25))
        tail = (math.log(2e6) + 1) / 1e6  # integral tail of log(t/.5)/t^2
        assert abs(r.value.real - (brute + tail)) < 1e-9

    def test_twisted_brute_reference(self, chi5e):
        spec = DivisorSumSpec(TWISTED, 0, chi5e.conjugate())
        c = 3.2
        r = log_kernel_series(spec, c)
        coefs = coefficient_array(spec, 2 * 10 ** 6)[1:]
        ns = np.arange(1, 2 * 10 ** 6 + 1, dtype=float)
        brute = np.sum(coefs * np.log(ns / c) / (ns * ns - c * c))
        # the brute tail has the coefficient mean L(1, chi) per term
        from tblab.specfun import dirichlet_L
        mean = dirichlet_L(1.0, chi5e).real
        tail = mean * (math.log(2e6 / c) + 1.0) / 2e6
        assert abs(r.value - (brute + tail)) < 2e-7


class TestCohenTailSeries:
    def test_lhopital_near_coincidence(self, unit):
        # n = 3 lies within 1e-3 Q of Q, so its head term comes from the
        # difference-quotient expansion
        Q, w = 3.0004, 0.25 - 2
        r = cohen_tail_series(unit, 0.25, 1, Q)
        ns = np.arange(1, 10 ** 6 + 1, dtype=float)
        brute = np.sum((ns ** w - Q ** w) / (ns * ns - Q * Q))
        tail = -(Q ** w) / 1e6  # dominant integral tail
        assert abs(r.value.real - (brute + tail)) < 1e-9

    def test_excluded(self, unit):
        with pytest.raises(ExcludedParameter):
            cohen_tail_series(unit, 0.3, 1, 1.0)

    def test_divergent_combination(self, chi5e):
        spec = DivisorSumSpec(TWISTED, -0.5, chi5e)
        with pytest.raises(DivergenceError):
            cohen_tail_series(spec, 0.5, 0, 1.3, inner_power_offset=1)

    def test_unit_brute_reference(self, unit):
        r = cohen_tail_series(unit, 0.3, 1, 0.7)
        w = 0.3 - 2
        ns = np.arange(1, 10 ** 6 + 1, dtype=float)
        brute = np.sum((ns ** w - 0.7 ** w) / (ns * ns - 0.49))
        tail = -(0.7 ** w) / 1e6  # dominant integral tail
        assert abs(r.value.real - (brute + tail)) < 1e-9

    def test_twisted_brute_reference(self, chi5e):
        spec = DivisorSumSpec(BAR_TWISTED, -0.25, chi5e)
        r = cohen_tail_series(spec, 0.25, 1, 1.05)
        coefs = coefficient_array(spec, 2 * 10 ** 6)[1:]
        ns = np.arange(1, 2 * 10 ** 6 + 1, dtype=float)
        w = 0.25 - 2
        brute = np.sum(coefs * (ns ** w - 1.05 ** w) / (ns * ns - 1.05 ** 2))
        assert abs(r.value - brute) < 1e-8


class TestAdaptiveIntegral:
    def test_polynomial(self):
        val = adaptive_integral(lambda t: t * t, QuadratureSpec(0.5, 1.5))
        assert abs(val - 13.0 / 12.0) < 1e-13

    def test_log(self):
        val = adaptive_integral(lambda t: 1.0 / t, QuadratureSpec(1.0, 2.0))
        assert abs(val - math.log(2)) < 1e-12

    def test_oscillatory_against_dense_grid(self):
        val = adaptive_integral(lambda t: math.cos(40 * math.sqrt(t)),
                                QuadratureSpec(0.5, 3.0, tol=1e-12))
        ts = np.linspace(0.5, 3.0, 100001)
        dense = np.trapezoid(np.cos(40 * np.sqrt(ts)), ts)
        assert abs(val - dense) < 1e-9

    def test_depth_exhaustion(self):
        spec = QuadratureSpec(0.0, 1.0, tol=1e-14, max_depth=3)
        with pytest.raises(QuadratureError):
            adaptive_integral(lambda t: abs(t - 0.123456) ** -0.5 if t != 0.123456 else 1e8,
                              spec)


class TestVoronoiKernel:
    def test_half_order_closed_form(self):
        # nu = 1/2 collapses to elementary functions
        for variant, sgn_y, sgn_j, trig in (
                ("even-cos", -1, -1, "cos"), ("odd-sin", -1, +1, "sin"),
                ("plus-y-sin", +1, -1, "sin"), ("plus-y-cos", +1, +1, "cos")):
            a = PI / 4
            main = math.cos(a) if trig == "cos" else math.sin(a)
            cot = math.sin(a) if trig == "cos" else math.cos(a)
            for u in np.linspace(0.3, 40, 50):
                kh = math.sqrt(PI / (2 * u)) * math.exp(-u)
                yh = -math.sqrt(2 / (PI * u)) * math.cos(u)
                jh = math.sqrt(2 / (PI * u)) * math.sin(u)
                closed = (2 / PI * kh + sgn_y * yh) * main + sgn_j * jh * cot
                assert abs(voronoi_kernel(variant, 0.5, u) - closed) < 1e-11

    def test_large_argument_decay(self):
        u = 400.0
        for variant in ("even-cos", "odd-sin", "plus-y-sin", "plus-y-cos"):
            assert abs(voronoi_kernel(variant, 0.25, u)) < 1.0 / math.sqrt(u)

    def test_unknown_variant_fails(self):
        with pytest.raises(DomainError):
            voronoi_kernel("unmapped", 0.25, 1.0)
        with pytest.raises(DomainError):
            voronoi_kernel("even-cos", 0.25, -1.0)

    def test_oscillatory_integral_against_adaptive(self):
        f = lambda t: np.exp(-np.asarray(t, dtype=float))
        c = 4 * PI * math.sqrt(12.0 / 5.0)
        fast = oscillatory_kernel_integrals(f, 0.5, 3.4, 0.25, [c], -0.125, "even-cos")[0]
        slow = adaptive_integral(
            lambda t: math.exp(-t) * t ** -0.125 * voronoi_kernel("even-cos", 0.25, c * math.sqrt(t)),
            QuadratureSpec(0.5, 3.4, tol=1e-11))
        assert abs(fast - slow) < 1e-9


def test_tolerance_monotonicity(chi5e):
    # tightening tol never moves the result by more than the looser tol
    spec = DivisorSumSpec(TWISTED, 0, chi5e)
    loose = bessel_series(spec, SeriesParams(1.0, 2.0, 0.0, tol=1e-6, rel_tol=1e-6))
    tight = bessel_series(spec, SeriesParams(1.0, 2.0, 0.0, tol=1e-13, rel_tol=1e-13))
    assert abs(loose.value - tight.value) <= 1e-6
    l2 = log_kernel_series(spec, 0.8, tol=1e-6)
    t2 = log_kernel_series(spec, 0.8, tol=1e-13)
    assert abs(l2.value - t2.value) <= 1e-6


def test_term_cap_env(monkeypatch, chi5e):
    monkeypatch.setenv("TBL_MAX_TERMS", "300")
    spec = DivisorSumSpec(TWISTED, 0, chi5e)
    with pytest.raises(ConvergenceError):
        bessel_series(spec, SeriesParams(0.2, 0.3, 0.0, tol=1e-12))
