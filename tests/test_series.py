import itertools
import math
import warnings

import numpy as np
import pytest

from tblab import series
from tblab.arith import DivisorSumSpec, coefficient_array
from tblab.bessel import JY_CUT, K_ASYM_CUT, k_values
from tblab.characters import TRIVIAL, enumerate_characters
from tblab.errors import (
    ConvergenceError,
    DivergenceError,
    DomainError,
    ExcludedParameter,
    QuadratureError,
)
from tblab.identities import TEST_FUNCTIONS, IdentityCase, verify
from tblab.series import (
    VORONOI_VARIANTS,
    adaptive_integral,
    bessel_series,
    cohen_tail_series,
    log_kernel_series,
    oscillatory_kernel_integrals,
    shifted_power_series,
    voronoi_kernel_values,
    _bessel_tail_bound,
    _EndpointExpansion,
    _KernelInterpolant,
    _panel_integrals,
)

PI = math.pi


@pytest.fixture(scope="module")
def chi5e():
    return enumerate_characters(5)[2]


@pytest.fixture(scope="module")
def divisor_count():
    """d(n), both slots trivial: an argument or fail-fast check's series."""
    return DivisorSumSpec()


@pytest.fixture(scope="module")
def unit():
    """Coefficient 1 at every n: sigma_{-60}(n) = 1 + O(2^-60) rounds to
    1, and L(s + 60) L(s) = zeta(s) (1 + O(2^-60)), so the closed values
    below are those of sum_n n^{-s}."""
    return DivisorSumSpec(-60.0)


class TestBesselSeries:
    def test_doubled_truncation_consistency(self, chi5e):
        spec = DivisorSumSpec(0, chi5e)
        r1 = bessel_series(spec, 1.0, 4.0, 0.0, tol=1e-12)
        r2 = bessel_series(spec, 1.0, 4.0, 0.0, tol=1e-16)
        assert abs(r1.value - r2.value) < 1e-12
        assert abs(r1.value - r2.value) <= r1.tail_bound + 1e-15

    def test_half_order_reduces_to_exponentials(self):
        # nu = 1/2, weight -1/2: each term is an elementary exponential
        spec = DivisorSumSpec(-0.5)
        a, x = 2.0, 1.3
        r = bessel_series(spec, a, x, 0.5, tol=1e-14)
        lam = a * math.sqrt(x)
        coefs = coefficient_array(spec, 4000)[1:].real
        ns = np.arange(1, 4001, dtype=float)
        elementary = np.sum(coefs * ns ** 0.25
                            * np.sqrt(PI / (2 * lam * np.sqrt(ns)))
                            * np.exp(-lam * np.sqrt(ns)))
        assert abs(r.value.real - elementary) < 1e-12

    def test_plain_divisor_function_brute_reference(self):
        spec = DivisorSumSpec()
        r = bessel_series(spec, 1.0, 1.0, 0.3, tol=1e-12)
        coefs = coefficient_array(spec, 10 ** 5)[1:].real
        ns = np.arange(1, 10 ** 5 + 1, dtype=float)
        brute = float(np.sum(coefs * ns ** 0.15 * k_values(0.3, np.sqrt(ns))))
        assert abs(r.value.real - brute) < 1e-11

    def test_budget_exhaustion(self, chi5e, monkeypatch):
        monkeypatch.setenv("TBL_MAX_TERMS", "500")
        spec = DivisorSumSpec(0, chi5e)
        with pytest.raises(ConvergenceError):
            bessel_series(spec, 0.05, 0.05, 0.0, tol=1e-12)

    def test_hopeless_budget_fails_fast(self, divisor_count, monkeypatch):
        # at x = 1e-7 the term bound has not begun to decay by the 10^6-term cap
        def refuse(*args, **kwargs):
            raise AssertionError("coefficients built for a hopeless series")

        monkeypatch.setattr("tblab.series.coefficient_array", refuse)
        with pytest.raises(ConvergenceError):
            bessel_series(divisor_count, 1.0, 1e-7)

    def test_budget_refusal_builds_no_coefficient(self, chi5e, monkeypatch):
        # the tail bound at the budget decides before the sum: 10^-3.7 at
        # 300 terms, and T2_13's 10^-2.5 at the 10^6-term cap
        def refuse(*args, **kwargs):
            raise AssertionError("coefficients built for a refused series")

        monkeypatch.setattr("tblab.series.coefficient_array", refuse)
        with pytest.raises(ConvergenceError, match="above tolerance after 1000000 terms"):
            verify(IdentityCase("T2_13", q=5, char_index=2, a=0.03, x=1.0))
        monkeypatch.setenv("TBL_MAX_TERMS", "300")
        with pytest.raises(ConvergenceError, match="above tolerance after 300 terms"):
            bessel_series(DivisorSumSpec(0, chi5e), 1.0, 1.0)

    @pytest.mark.parametrize("k", [101, 171])
    def test_terms_past_the_double_range_fail_fast(self, k, monkeypatch):
        # T2_5's coefficients grow like n^k and leave the double range long
        # before the 10^6 terms its tail bound asks for, a bound that is
        # finite (about 1e240 at k = 101) once taken in logarithms
        def refuse(*args, **kwargs):
            raise AssertionError("coefficients built for terms outside the double range")

        monkeypatch.setattr("tblab.series.coefficient_array", refuse)
        with pytest.raises(DomainError, match="outside the double range"):
            verify(IdentityCase("T2_5", q=5, char_index=2, k=k, nu=0.6, a=1.0, x=0.75))

    def test_tail_bound_in_logarithms(self, divisor_count):
        # sqrt(256)^801 leaves the double range, the bound's logarithm does
        # not; inf means only that the term bound is not yet decaying
        assert _bessel_tail_bound(256, 0.0, 400.0, 500.0) == pytest.approx(-6881.69, abs=0.01)
        assert math.isinf(_bessel_tail_bound(256, 0.0, 400.0, 1.0))
        assert math.exp(_bessel_tail_bound(1024, 0.0, 0.0, 1.0)) == pytest.approx(
            3.989324986038387e-10, rel=1e-14)
        with pytest.raises(DomainError, match="outside the double range"):
            bessel_series(divisor_count, 500.0, 1.0, 400.0)  # no longer "not yet decaying"

    def test_honest_certificate(self, chi5e):
        spec = DivisorSumSpec(-0.25, chi5e)
        r = bessel_series(spec, 0.6, 0.4, 0.25, tol=1e-10)
        coefs = coefficient_array(spec, 4 * r.terms)
        ns = np.arange(1, 4 * r.terms + 1, dtype=float)
        full = np.sum(coefs[1:] * ns ** 0.125
                      * k_values(0.25, 0.6 * math.sqrt(0.4) * np.sqrt(ns)))
        assert abs(r.value - full) <= r.tail_bound


class TestShiftedPowerSeries:
    def test_unit_weights_reduce_to_zeta(self, unit):
        r = shifted_power_series(unit, 2.0, 0.0)
        assert abs(r.value - PI * PI / 6) < 1e-13
        mpmath = pytest.importorskip("mpmath")
        r = shifted_power_series(unit, 1.25, 0.7)
        assert abs(r.value - float(mpmath.zeta(1.25, 1.7))) < 1e-11

    def test_difference_form_vanishes_at_zero_shift(self, chi5e):
        spec = DivisorSumSpec(0, TRIVIAL, chi5e)
        r = shifted_power_series(spec, 1.0, 0.0, difference_form=True)
        assert r.value == 0

    def test_head_doubling(self, unit, monkeypatch):
        from tblab import series
        r1 = shifted_power_series(unit, 1.25, 0.7)
        monkeypatch.setattr(series, "DEFAULT_HEAD", 2 * series.DEFAULT_HEAD)
        r2 = shifted_power_series(unit, 1.25, 0.7)
        assert r2.terms > r1.terms
        assert abs(r1.value - r2.value) < 1e-11

    def test_slow_exponent_brute_reference(self, unit):
        # p = 1.25 decays far too slowly for naive truncation; compare
        # against a 2e7-term sum completed by its integral tail
        r = shifted_power_series(unit, 1.25, 0.7)
        ns = np.arange(1, 2 * 10 ** 7, dtype=float)
        brute = np.sum((ns + 0.7) ** -1.25)
        tail = (ns[-1] + 0.7) ** -0.25 / 0.25
        assert abs(r.value.real - (brute + tail)) < 1e-8

    def test_difference_form_brute(self, monkeypatch):
        chi3 = enumerate_characters(3)[1]
        spec = DivisorSumSpec(2, chi3)
        r = shifted_power_series(spec, 3.0, 0.37, difference_form=True)
        monkeypatch.setenv("TBL_MAX_TERMS", "2000000")  # for the brute-force reference
        coefs = coefficient_array(spec, 2 * 10 ** 6)[1:]
        ns = np.arange(1, 2 * 10 ** 6 + 1, dtype=float)
        brute = np.sum(coefs * (ns ** -3.0 - (ns + 0.37) ** -3.0))
        assert abs(r.value - brute) < 1e-11

    def test_divergent(self, divisor_count):
        with pytest.raises(DivergenceError):
            shifted_power_series(divisor_count, 1.0, 0.5)


class TestLogKernelSeries:
    def test_excluded_parameter(self, chi5e):
        spec = DivisorSumSpec(0, chi5e)
        with pytest.raises(ExcludedParameter):
            log_kernel_series(spec, 2.0)

    def test_weight_where_the_first_log_order_has_no_bound(self):
        # at weight 0.8 the first order's log part, sum_{n>D} sigma_0.8(n)
        # ln(n) n^{-2}, has no tail bound (sigma - 1/4 - w <= 1); a later
        # order stops the expansion.  sum_n sigma_w(n) n^{-s} = zeta(s)
        # zeta(s - w), expanded in (c/n)^2, gives the value
        mpmath = pytest.importorskip("mpmath")
        w, c = 0.8, 0.8
        r = log_kernel_series(DivisorSumSpec(w), c)
        with mpmath.workdps(30):
            def order(m):
                s = 2 * m + 2
                F = mpmath.zeta(s) * mpmath.zeta(s - w)
                dF = (mpmath.zeta(s, 1, 1) * mpmath.zeta(s - w)
                      + mpmath.zeta(s) * mpmath.zeta(s - w, 1, 1))
                return c ** (2 * m) * (-dF - math.log(c) * F)
            ref = float(mpmath.nsum(order, [0, mpmath.inf]))
        assert abs(r.value - ref) < 1e-13 * abs(ref)

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

    def test_twisted_brute_reference(self, chi5e, monkeypatch):
        spec = DivisorSumSpec(0, chi5e.conjugate())
        c = 3.2
        r = log_kernel_series(spec, c)
        monkeypatch.setenv("TBL_MAX_TERMS", "2000000")  # for the brute-force reference
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
        r = cohen_tail_series(unit, w, Q)
        ns = np.arange(1, 10 ** 6 + 1, dtype=float)
        brute = np.sum((ns ** w - Q ** w) / (ns * ns - Q * Q))
        tail = -(Q ** w) / 1e6  # dominant integral tail
        assert abs(r.value.real - (brute + tail)) < 1e-9

    def test_excluded(self, divisor_count):
        with pytest.raises(ExcludedParameter):
            cohen_tail_series(divisor_count, 0.3 - 2, 1.0)

    def test_divergent_combination(self, chi5e):
        spec = DivisorSumSpec(-0.5, chi5e)
        with pytest.raises(DivergenceError):
            cohen_tail_series(spec, 0.5 + 1, 1.3)

    def test_power_past_the_double_range(self, unit):
        # Q^w = 0.3^-799.7 is about 10^418: refused, not an OverflowError
        with pytest.raises(DomainError, match="outside the double range"):
            cohen_tail_series(unit, 0.3 - 800, 0.3)
        assert math.isfinite(cohen_tail_series(unit, 0.3 - 500, 0.3).value.real)

    def test_unit_brute_reference(self, unit):
        w = 0.3 - 2
        r = cohen_tail_series(unit, w, 0.7)
        ns = np.arange(1, 10 ** 6 + 1, dtype=float)
        brute = np.sum((ns ** w - 0.7 ** w) / (ns * ns - 0.49))
        tail = -(0.7 ** w) / 1e6  # dominant integral tail
        assert abs(r.value.real - (brute + tail)) < 1e-9

    def test_twisted_brute_reference(self, chi5e, monkeypatch):
        spec = DivisorSumSpec(-0.25, TRIVIAL, chi5e)
        w = 0.25 - 2
        r = cohen_tail_series(spec, w, 1.05)
        monkeypatch.setenv("TBL_MAX_TERMS", "2000000")  # for the brute-force reference
        coefs = coefficient_array(spec, 2 * 10 ** 6)[1:]
        ns = np.arange(1, 2 * 10 ** 6 + 1, dtype=float)
        brute = np.sum(coefs * (ns ** w - 1.05 ** w) / (ns * ns - 1.05 ** 2))
        assert abs(r.value - brute) < 1e-8


class TestAdaptiveIntegral:
    def test_polynomial(self):
        val = adaptive_integral(lambda t: t * t, 0.5, 1.5)
        assert abs(val - 13.0 / 12.0) < 1e-13

    def test_log(self):
        val = adaptive_integral(lambda t: 1.0 / t, 1.0, 2.0)
        assert abs(val - math.log(2)) < 1e-12

    def test_oscillatory_against_dense_grid(self):
        val = adaptive_integral(lambda t: np.cos(40 * np.sqrt(t)), 0.5, 3.0,
                                tol=1e-12)
        ts = np.linspace(0.5, 3.0, 100001)
        dense = np.trapezoid(np.cos(40 * np.sqrt(ts)), ts)
        assert abs(val - dense) < 1e-9

    def test_main_term_integrals_against_mpmath(self):
        # the Voronoi main terms int_alpha^beta f(t) t^p dt of the registry,
        # with the integrand _voronoi_single hands over, within 1e-15 of
        # mpmath at 30 digits, at no more than the 1,290 nodes that the
        # Gauss-Kronrod 7/15 rule took before
        mpmath = pytest.importorskip("mpmath")
        nu = 0.25
        exact = {"exp": lambda t: mpmath.exp(-t), "t2": lambda t: t * t,
                 "gauss": lambda t: mpmath.exp(-t * t / 4)}
        nodes = 0

        def integrand(f, p):
            def call(t):
                nonlocal nodes
                nodes += len(t)
                return f(t) * t ** p
            return call

        worst = 0.0
        with mpmath.workdps(30):
            for fname, (alpha, beta), p in itertools.product(
                    exact, [(0.5, 3.4), (1.3, 5.7)], (-nu, 0.0, -nu - 1.0)):
                val = adaptive_integral(integrand(TEST_FUNCTIONS[fname], p), alpha, beta,
                                        tol=1e-11)
                ref = mpmath.quad(lambda t: exact[fname](t) * t ** p, [alpha, beta])
                worst = max(worst, float(abs((val - ref) / ref)))
            # from close to the integrable singularity at t = 0
            val = adaptive_integral(lambda t: np.exp(-t) * t ** -0.25, 1e-8, 3.4, tol=1e-11)
            ref = mpmath.quad(lambda t: mpmath.exp(-t) * t ** -0.25, [1e-8, 3.4])
            worst = max(worst, float(abs((val - ref) / ref)))
        assert worst < 1e-15
        assert nodes <= 1290

    def test_integrand_takes_each_rule_once_on_its_16_nodes(self):
        # a cubic on [0, 1]: the rule on the interval and on each half, one
        # call each, at numpy's 16 Gauss-Legendre nodes mapped onto it
        seen = []

        def cubic(t):
            seen.append(np.array(t))
            return t ** 3

        assert abs(adaptive_integral(cubic, 0.0, 1.0) - 0.25) < 1e-15
        nodes = np.polynomial.legendre.leggauss(16)[0]
        expected = [(a + b) / 2 + (b - a) / 2 * nodes
                    for a, b in ((0.0, 1.0), (0.0, 0.5), (0.5, 1.0))]
        assert len(seen) == 3
        for got, want in zip(seen, expected):
            assert got.shape == (16,)
            assert np.max(np.abs(got - want)) < 1e-15

    def test_depth_exhaustion(self, monkeypatch):
        from tblab import series
        monkeypatch.setattr(series, "_MAX_DEPTH", 3)
        with pytest.raises(QuadratureError):
            adaptive_integral(lambda t: np.maximum(np.abs(t - 0.123456), 1e-16) ** -0.5,
                              0.0, 1.0, tol=1e-14)


class TestVoronoiKernel:
    def test_half_order_closed_form(self):
        # nu = 1/2 collapses to elementary functions
        for variant, sgn_y, sgn_j, trig in (
                ("even-cos", -1, -1, "cos"), ("odd-sin", -1, +1, "sin"),
                ("plus-y-sin", +1, -1, "sin"), ("plus-y-cos", +1, +1, "cos")):
            a = PI / 4
            main = math.cos(a) if trig == "cos" else math.sin(a)
            cot = math.sin(a) if trig == "cos" else math.cos(a)
            u = np.linspace(0.3, 40, 50)
            kh = np.sqrt(PI / (2 * u)) * np.exp(-u)
            yh = -np.sqrt(2 / (PI * u)) * np.cos(u)
            jh = np.sqrt(2 / (PI * u)) * np.sin(u)
            closed = (2 / PI * kh + sgn_y * yh) * main + sgn_j * jh * cot
            assert np.max(np.abs(voronoi_kernel_values(variant, 0.5, u) - closed)) < 1e-11

    def test_large_argument_decay(self):
        u = 400.0
        for variant in ("even-cos", "odd-sin", "plus-y-sin", "plus-y-cos"):
            assert abs(voronoi_kernel_values(variant, 0.25, np.array([u]))[0]) < 1.0 / math.sqrt(u)

    def test_unknown_variant_fails(self):
        with pytest.raises(DomainError):
            voronoi_kernel_values("unmapped", 0.25, np.array([1.0]))
        with pytest.raises(DomainError):
            voronoi_kernel_values("even-cos", 0.25, np.array([-1.0]))

    def test_oscillatory_integral_against_adaptive(self):
        c = 4 * PI * math.sqrt(12.0 / 5.0)
        fast = oscillatory_kernel_integrals(TEST_FUNCTIONS["exp"], 0.5, 3.4, 0.25, [c], -0.125,
                                            "even-cos")[0]
        slow = adaptive_integral(
            lambda t: np.exp(-t) * t ** -0.125 * voronoi_kernel_values("even-cos", 0.25,
                                                                     c * np.sqrt(t)),
            0.5, 3.4, tol=1e-11)
        assert abs(fast - slow) < 1e-9


@pytest.mark.parametrize("variant", sorted(VORONOI_VARIANTS))
@pytest.mark.parametrize("fname", ["exp", "t2", "gauss"])
@pytest.mark.parametrize("alpha, beta", [(0.5, 3.4), (1.3, 5.7)])
@pytest.mark.parametrize("nu, t_exp", [(0.25, -0.125), (0.25, -1.125), (0.45, 0.225)])
def test_hankel_expansion_against_quadrature(variant, fname, alpha, beta, nu, t_exp):
    # from least_scale on, where the expansion's truncation is largest and
    # K's endpoint series matters most
    f = TEST_FUNCTIONS[fname]
    expansion = _EndpointExpansion(f, alpha, beta, nu, t_exp)
    cs = np.array([1.0, 1.0125, 1.125, 1.3, 1.5]) * expansion.least_scale
    expanded = expansion.integrals(cs, variant)
    quadrature = _panel_integrals(f, alpha, beta, nu, cs, t_exp, variant)
    assert np.max(np.abs(expanded - quadrature)) < 1e-13


def test_endpoint_series_drops_only_orders_below_the_rounding_level(monkeypatch):
    # t2 needs all 28 orders at least_scale, and fewer as the scale grows;
    # the orders dropped move no integral by more than rounding
    expansion = _EndpointExpansion(TEST_FUNCTIONS["t2"], 1.3, 5.7, 0.25, -1.125)
    cs = expansion.least_scale * np.array([1.0, 1.5, 3.0, 10.0, 30.0])
    assert [expansion._orders(c) for c in cs] == [28, 15, 11, 8, 6]
    # K's terms carry e^{-c sqrt(alpha)}: six orders at least_scale, none at 3 times it
    damped = [expansion._orders(c, math.exp(-c * math.sqrt(1.3))) for c in cs]
    assert damped == [6, 3, 0, 0, 0]

    def each(variant):
        return np.array([expansion.integrals(cs[i:i + 1], variant)[0] for i in range(cs.size)])

    dropped = {variant: each(variant) for variant in VORONOI_VARIANTS}
    monkeypatch.setattr(series, "_ASYM_TINY", 0.0)
    for variant, got in dropped.items():
        assert np.all(np.abs(got - each(variant)) <= 2e-16 * expansion.lead * cs ** -1.5)


def test_panel_rule_table_is_numpys_rule():
    x, w = np.polynomial.legendre.leggauss(16)
    assert np.array_equal(series._PANEL_X, x) and np.array_equal(series._PANEL_W, w)


@pytest.mark.parametrize("variant", sorted(VORONOI_VARIANTS))
@pytest.mark.parametrize("nu", [0.05, 0.25, 0.45])
def test_kernel_interpolant_against_direct_values(variant, nu):
    # errors relative to the envelope sqrt(2/(pi u)).  On 6 <= u <= 14 the
    # direct J's ascending series carries its e^u eps cancellation
    # (test_oracle's J_SEAM_BOUND), which the interpolant inherits at its
    # points; past 14 both sides are within Hankel rounding of mpmath
    kernel = _KernelInterpolant(variant, nu, 1.0, 120.0)
    edges = kernel.edges
    assert {JY_CUT, K_ASYM_CUT} <= set(edges)
    assert np.all(np.diff(edges) <= np.minimum(series._CHEB_WIDTH, edges[:-1]))
    u = np.linspace(1.0, 120.0, 20001)
    err = np.abs(kernel(u) - voronoi_kernel_values(variant, nu, u)) * np.sqrt(PI * u / 2.0)
    assert np.max(err[u < 6.0]) <= 1.5e-14
    assert np.max(err[(u >= 6.0) & (u <= 14.0)]) <= 3.3e-11
    assert np.max(err[u > 14.0]) <= 7.8e-14
    # the coefficients have fallen to rounding by the last three
    outside = (edges[1:] <= 6.0) | (edges[:-1] >= 14.0)
    tails = np.max(np.abs(kernel.coefs[-3:]), axis=0) / np.max(np.abs(kernel.coefs), axis=0)
    assert np.max(tails[outside]) <= 1e-14


def test_kernel_interpolant_needs_a_positive_range():
    # a piece is no wider than its left end, so lo = 0 would never end
    for lo, hi in [(0.0, 1.0), (2.0, 1.0), (1.0, math.inf)]:
        with pytest.raises(DomainError):
            _KernelInterpolant("even-cos", 0.25, lo, hi)


def test_kernel_interpolant_reads_fixed_pieces():
    # the pieces do not depend on lo and hi: powers of 2 below 8, the
    # seams and the two edges that narrow into JY_CUT, then steps of 8
    assert _KernelInterpolant("even-cos", 0.25, 0.3, 20.0).edges.tolist() == [
        0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 13.0, 14.0, 16.0, 18.0, 24.0]
    assert _KernelInterpolant("odd-sin", 0.25, 12.5, 40.0).edges.tolist() == [
        12.0, 13.0, 14.0, 16.0, 18.0, 24.0, 32.0, 40.0]
    assert _KernelInterpolant("odd-sin", 0.25, 100.0, 101.0).edges.tolist() == [96.0, 104.0]


def test_hankel_expansion_refuses_a_truncated_sum():
    # at c sqrt(alpha) = 10 the last diagonal reaches 6e-2 of the leading term
    expansion = _EndpointExpansion(TEST_FUNCTIONS["exp"], 0.5, 3.4, 0.25, -0.125)
    assert 10.0 / math.sqrt(0.5) < expansion.least_scale < 40.0 / math.sqrt(0.5)
    with pytest.raises(DomainError, match="not certified"):
        expansion.integrals(np.array([10.0, 80.0]) / math.sqrt(0.5), "even-cos")


@pytest.mark.parametrize("f", [
    lambda t: np.exp(-np.asarray(t, dtype=float)),  # cannot take complex arguments
    lambda t: np.exp(-np.abs(t) ** 2 / 4.0),  # not analytic
])
def test_oscillatory_integrals_keep_quadrature_when_f_cannot_be_expanded(f):
    cs = np.array([100.0, 300.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", np.exceptions.ComplexWarning)
        assert _EndpointExpansion(f, 0.5, 3.4, 0.25, -0.125).least_scale == math.inf
        got = oscillatory_kernel_integrals(f, 0.5, 3.4, 0.25, cs, -0.125, "even-cos")
        assert np.array_equal(got, _panel_integrals(f, 0.5, 3.4, 0.25, cs, -0.125, "even-cos"))


def test_oscillatory_integrals_split_at_the_certificate():
    # one batch across least_scale gives what each regime gives alone
    f = TEST_FUNCTIONS["gauss"]
    expansion = _EndpointExpansion(f, 1.3, 5.7, 0.25, -1.125)
    cs = np.array([0.2, 1.01, 0.99, 10.0]) * expansion.least_scale
    both = oscillatory_kernel_integrals(f, 1.3, 5.7, 0.25, cs, -1.125, "odd-sin")
    far = cs >= expansion.least_scale
    near = _panel_integrals(f, 1.3, 5.7, 0.25, cs[~far], -1.125, "odd-sin")
    assert np.array_equal(both[~far], near)
    assert np.array_equal(both[far], expansion.integrals(cs[far], "odd-sin"))
    # on (3, 4) gauss varies too fast for the expansion at c sqrt(alpha)
    # = 45: the scales it does not certify stay with the quadrature
    cs = np.array([45.0, 2000.0]) / math.sqrt(3.0)
    expansion = _EndpointExpansion(f, 3.0, 4.0, 0.25, -0.125)
    assert cs[0] < expansion.least_scale < cs[1]
    got = oscillatory_kernel_integrals(f, 3.0, 4.0, 0.25, cs, -0.125, "even-cos")
    assert got[0] == _panel_integrals(f, 3.0, 4.0, 0.25, cs[:1], -0.125, "even-cos")[0]
    assert got[1] == expansion.integrals(cs[1:], "even-cos")[0]
    # on (20, 21) 64 points do not resolve it on the circles at all
    assert _EndpointExpansion(f, 20.0, 21.0, 0.25, -0.125).least_scale == math.inf
    with pytest.raises(DomainError):
        oscillatory_kernel_integrals(f, 0.0, 5.7, 0.25, cs, -1.125, "odd-sin")


def test_an_f_that_cannot_be_hashed_is_integrated_without_the_table():
    class Unhashable:
        __hash__ = None

        def __call__(self, t):
            return np.exp(-t)

    f = Unhashable()
    series._endpoint_expansion.cache_clear()
    expansion = _EndpointExpansion(f, 0.5, 3.4, 0.25, -0.125)
    cs = np.array([0.5, 0.9, 1.5, 4.0]) * expansion.least_scale
    got = oscillatory_kernel_integrals(f, 0.5, 3.4, 0.25, cs, -0.125, "plus-y-sin")
    far = cs >= expansion.least_scale
    assert np.array_equal(got[~far], _panel_integrals(f, 0.5, 3.4, 0.25, cs[~far], -0.125,
                                                      "plus-y-sin"))
    assert np.array_equal(got[far], expansion.integrals(cs[far], "plus-y-sin"))
    assert series._endpoint_expansion.cache_info().currsize == 0


def test_tolerance_monotonicity(chi5e):
    # tightening tol never moves the result by more than the looser tol
    spec = DivisorSumSpec(0, chi5e)
    loose = bessel_series(spec, 1.0, 2.0, 0.0, tol=1e-6)
    tight = bessel_series(spec, 1.0, 2.0, 0.0, tol=1e-13)
    assert abs(loose.value - tight.value) <= 1e-6
    l2 = log_kernel_series(spec, 0.8, tol=1e-6)
    t2 = log_kernel_series(spec, 0.8, tol=1e-13)
    assert abs(l2.value - t2.value) <= 1e-6


def test_term_cap_env(monkeypatch, chi5e):
    monkeypatch.setenv("TBL_MAX_TERMS", "300")
    spec = DivisorSumSpec(0, chi5e)
    with pytest.raises(ConvergenceError):
        bessel_series(spec, 0.2, 0.3, 0.0, tol=1e-12)
