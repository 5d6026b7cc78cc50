"""Bessel K, J and Y against mpmath at 30 digits.

The grid runs from x = 1e-7 up to and across the branch seams at 2, 14
and 18, over orders at, next to and between the integers, and on to
x = 5000 (K to 300, as it underflows to 0 from about 700 on), where the
expansions drop an argument after a few steps.  Orders 6 and 8 skip the
points just past the asymptotic cuts: there their expansions cannot
reach 1e-12 and raise DomainError instead.  K and Y are also checked at
1e-16 and at 1e-20, the least argument they take; below it they refuse.
One K-Bessel series, whose coefficients include zeros, is checked against
the 30-digit sum of the same terms.
"""

import math

import numpy as np
import pytest

from tblab.arith import DivisorSumSpec
from tblab.bessel import JY_CUT, K_ASYM_CUT, bessel_I, bessel_J, bessel_Y, jy_values, k_values
from tblab.characters import enumerate_characters
from tblab.errors import DomainError
from tblab.series import bessel_series

mpmath = pytest.importorskip("mpmath")

NUS = [0.0, 1e-9, 1e-6, 1e-3, 0.25, 0.5, 0.9995, 1.0, 1.000003, 1.0005,
       1.3, 2.0, 2.5, 3.0, 4.5, 6.0, 8.0]
XS = [1e-7, 1e-5, 1e-3, 0.01, 0.1, 0.5, 1.0, 1.5, 1.99, 2.0, 2.01, 3.0,
      5.0, 8.0, 11.0, 13.99, 14.0, 14.01, 16.0, 17.99, 18.0, 18.01, 25.0]
# far past the cuts
FAR_XS = [40.0, 100.0, 300.0, 1000.0, 5000.0]
K_FAR_XS = [40.0, 100.0, 300.0]
BOUND = 5e-14
# the ascending J series loses ~e^x eps to cancellation near its cut
J_SEAM_BOUND = 5e-12
# J at x <= 2 is checked up to order 30, where it is far below 1
J_ORDERS = NUS + [12.0, 20.0, 30.0]


def _grid(nu, cut, far=()):
    return np.array([x for x in XS if nu <= 5.0 or x < cut] + list(far))


@pytest.mark.parametrize("nu", NUS)
def test_k_relative_error(nu):
    xs = _grid(nu, K_ASYM_CUT, K_FAR_XS)
    with mpmath.workdps(30):
        ref = [mpmath.besselk(nu, x) for x in xs]
    got = k_values(nu, xs)
    worst = max(float(abs((g - r) / r)) for g, r in zip(got, ref))
    assert worst < BOUND


@pytest.mark.parametrize("nu", NUS)
def test_y_error(nu):
    # absolute error, relative where |Y| > 1
    xs = _grid(nu, JY_CUT + 1e-9, FAR_XS)
    with mpmath.workdps(30):
        ref = [mpmath.bessely(nu, x) for x in xs]
    got = jy_values(nu, xs)[1]
    worst = max(float(abs(g - r) / max(1, abs(r))) for g, r in zip(got, ref))
    assert worst < BOUND


@pytest.mark.parametrize("nu", J_ORDERS)
def test_j_relative_error(nu):
    # each argument stops at a term below 1e-17 of its own partial sum, so
    # J keeps its relative accuracy however small it is
    xs = np.array([x for x in XS if x <= 2.0])
    with mpmath.workdps(30):
        ref = [mpmath.besselj(nu, x) for x in xs]
    got = jy_values(nu, xs)[0]
    worst = max(float(abs((g - r) / r)) for g, r in zip(got, ref))
    assert worst < BOUND


@pytest.mark.parametrize("nu", NUS)
def test_j_far_past_the_cut(nu):
    xs = np.array(FAR_XS)
    with mpmath.workdps(30):
        ref = [mpmath.besselj(nu, x) for x in xs]
    got = jy_values(nu, xs)[0]
    worst = max(float(abs(g - r)) for g, r in zip(got, ref))
    assert worst < BOUND


@pytest.mark.parametrize("nu", NUS)
def test_j_at_the_seam(nu):
    xs = _grid(nu, JY_CUT + 1e-9)
    xs = xs[(xs > 13.0) & (xs < 15.0)]
    with mpmath.workdps(30):
        ref = [mpmath.besselj(nu, x) for x in xs]
    got = jy_values(nu, xs)[0]
    worst = max(float(abs(g - r)) for g, r in zip(got, ref))
    assert worst < J_SEAM_BOUND


@pytest.mark.parametrize("nu", [-1.0, -2.0, -3.0])
def test_negative_integer_orders(nu):
    # I_{-n} = I_n, and J_{-n}, Y_{-n} = (-1)^n (J_n, Y_n) (DLMF 10.27.1,
    # 10.4.1), where the ascending series would need Gamma(1 - n); at x = 1,
    # J_{-1} = -0.440050585744933, I_{-2} = 0.135747669767038 and
    # Y_{-1} = 0.781212821300289
    for f, ref in ((bessel_I, mpmath.besseli), (bessel_J, mpmath.besselj),
                   (bessel_Y, mpmath.bessely)):
        for x in (0.5, 1.0, 5.0, 20.0):
            with mpmath.workdps(30):
                value = float(ref(nu, x))
            assert abs(f(nu, x) - value) < BOUND * max(1, abs(value)), (f.__name__, x)


@pytest.mark.parametrize("nu", [-0.25, -0.5, -1.3, -2.5, -4.5, -5.7, -8.3])
def test_negative_orders(nu):
    # J_{-mu} = cos(mu pi) J_mu - sin(mu pi) Y_mu and Y_{-mu} = sin(mu pi) J_mu
    # + cos(mu pi) Y_mu (DLMF 10.4.7-10.4.8); Y_{-4.5}(1e-3) = 2.67e-17 needs
    # cos(4.5 pi) = 0 exactly.  Between 6 and 14 J_mu carries the ascending
    # series' loss near its cut.  Absolute error, relative where |value| > 1
    xs = np.array([x for x in XS + FAR_XS if x >= 1e-3 and (nu >= -5.0 or x <= JY_CUT
                                                              or x >= 40.0)])
    j, y = jy_values(nu, xs)
    for x, got_j, got_y in zip(xs, j, y):
        with mpmath.workdps(30):
            refs = mpmath.besselj(nu, x), mpmath.bessely(nu, x)
        bound = J_SEAM_BOUND if 6.0 <= x <= JY_CUT else BOUND
        for got, ref in zip((got_j, got_y), refs):
            assert float(abs(got - ref) / max(1, abs(ref))) < bound, x


@pytest.mark.parametrize("nu, x", [(3.0, 1e-15), (3.0, 1e-12), (12.5, 1e-15),
                                   (20.0, 1e-12), (45.0, 1e-5), (60.0, 1e-3)])
def test_large_order_over_tiny_argument(nu, x):
    # the integrands peak sharply near t = asinh(nu/x); at nu = 60 the factor
    # e^{nu t} alone would overflow
    xs = np.array([x])
    with mpmath.workdps(30):
        k_ref, y_ref = mpmath.besselk(nu, x), mpmath.bessely(nu, x)
    assert float(abs(k_values(nu, xs)[0] / k_ref - 1)) < BOUND
    assert float(abs(jy_values(nu, xs)[1][0] / y_ref - 1)) < BOUND


@pytest.mark.parametrize("x", [1e-16, 1e-20])
def test_k_and_y_at_tiny_arguments(x):
    xs = np.array([x])
    for nu in NUS:
        with mpmath.workdps(30):
            k_ref, y_ref = mpmath.besselk(nu, x), mpmath.bessely(nu, x)
        assert float(abs(k_values(nu, xs)[0] / k_ref - 1)) < BOUND, nu
        assert float(abs(jy_values(nu, xs)[1][0] / y_ref - 1)) < BOUND, nu


@pytest.mark.parametrize("x", [1e-21, 1e-100, 1e-320])
def test_k_and_y_refuse_arguments_below_1e_20(x):
    # K_0(1e-300) came out 1.1e-7 off, and K_0(1e-320) = 736.9 was refused
    # as outside the double range
    for values in (k_values, jy_values):
        with pytest.raises(DomainError, match="needs x >= 1e-20"):
            values(0.0, np.array([1.0, x]))


# The leading term exp(nu ln(x/2) - ln Gamma(nu+1)) of the ascending
# series differs two numbers near 740 here, whose rounding (740 eps, about
# 1.6e-13) becomes relative error in J; Y comes from Schlaefli's integral.
LARGE_ORDER_BOUND = 2e-13


@pytest.mark.parametrize("nu, x", [(175.0, 14.0), (180.0, 13.9), (200.0, 10.0)])
def test_orders_whose_gamma_overflows(nu, x):
    # Gamma(nu + 1) alone is above the double range, J and Y are not
    j, y = jy_values(nu, np.array([x]))
    with mpmath.workdps(30):
        j_ref, y_ref = mpmath.besselj(nu, x), mpmath.bessely(nu, x)
    assert float(abs(j[0] / j_ref - 1)) < LARGE_ORDER_BOUND
    assert float(abs(y[0] / y_ref - 1)) < LARGE_ORDER_BOUND


def _k_30_digits(nu, z):
    """K_nu(z) at 30 digits for a non-integer nu.  Below z = 52 mpmath's
    besselk leaves its asymptotic 2F0 for a route about 20 times slower;
    there (pi/2)(I_-nu - I_nu)/sin(nu pi) is taken at the 2z/ln 10 extra
    digits its difference cancels."""
    if z >= 52:
        return mpmath.besselk(nu, z)
    with mpmath.workdps(35 + int(2 * z / math.log(10))):
        k = mpmath.pi / 2 * (mpmath.besseli(-nu, z) - mpmath.besseli(nu, z)) / mpmath.sinpi(nu)
    return +k


def test_a_series_with_zero_coefficients_against_an_exact_sum():
    # C2_1's lhs with chi mod 4 in both slots, k = 3, nu = 0.25, a = 1,
    # x = 1.2: f(n) = chi(n) sigma_3(n) is an integer, 0 at every even n.
    # mpmath sums the same N terms at 30 digits, and the library's sum
    # must be within eps of the sum of the terms' magnitudes
    chi = enumerate_characters(4)[1]
    nu, a, x = 0.25, 1.0, 1.2
    r = bessel_series(DivisorSumSpec(3, chi, chi), a, x, nu)
    assert r.terms == 4096
    sigma = [0] * (r.terms + 1)
    for d in range(1, r.terms + 1):
        for m in range(d, r.terms + 1, d):
            sigma[m] += d ** 3
    with mpmath.workdps(30):
        lam = mpmath.mpf(a) * mpmath.sqrt(mpmath.mpf(x))
        terms = [int(chi.value(n).real) * sigma[n] * mpmath.mpf(n) ** (nu / 2)
                 * _k_30_digits(nu, lam * mpmath.sqrt(n))
                 for n in range(1, r.terms + 1) if chi.value(n) != 0]
        truth = mpmath.fsum(terms)
        magnitude = mpmath.fsum(abs(t) for t in terms)
    assert r.value.imag == 0.0
    assert abs(r.value.real - truth) <= np.finfo(float).eps * magnitude
