"""Bessel K, J and Y against mpmath at 30 digits.

The grid runs from x = 1e-7 up to and across the branch seams at 2, 14
and 18, over orders at, next to and between the integers, and on to
x = 5000 (K to 300, as it underflows to 0 from about 700 on), where the
expansions drop an argument after a few steps.  Orders 6 and 8 skip the
points just past the asymptotic cuts: there their expansions cannot
reach 1e-12 and raise DomainError instead.  K and Y are also checked at
1e-16 and at 1e-20, the least argument they take; below it they refuse.
"""

import numpy as np
import pytest

from tblab.bessel import JY_CUT, K_ASYM_CUT, bessel_I, bessel_J, bessel_Y, jy_values, k_values
from tblab.errors import DomainError

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
