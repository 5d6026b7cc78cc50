"""Bessel K, J and Y against mpmath at 30 digits.

The grid runs from x = 1e-7 up to and across the branch seams at 2, 14
and 18, over orders at, next to and between the integers.  Orders 6 and
8 are checked only below the asymptotic cuts: just past them their
expansions cannot reach 1e-12 and raise DomainError instead.
"""

import numpy as np
import pytest

from tblab.bessel import JY_CUT, K_ASYM_CUT, jy_values, k_values

mpmath = pytest.importorskip("mpmath")

NUS = [0.0, 1e-9, 1e-6, 1e-3, 0.25, 0.5, 0.9995, 1.0, 1.000003, 1.0005,
       1.3, 2.0, 2.5, 3.0, 4.5, 6.0, 8.0]
XS = [1e-7, 1e-5, 1e-3, 0.01, 0.1, 0.5, 1.0, 1.5, 1.99, 2.0, 2.01, 3.0,
      5.0, 8.0, 11.0, 13.99, 14.0, 14.01, 16.0, 17.99, 18.0, 18.01, 25.0]
BOUND = 5e-14
# the ascending J series loses ~e^x eps to cancellation near its cut
J_SEAM_BOUND = 5e-12
# J at x <= 2 is checked up to order 30, where it is far below 1
J_ORDERS = NUS + [12.0, 20.0, 30.0]


def _grid(nu, cut):
    return np.array([x for x in XS if nu <= 5.0 or x < cut])


@pytest.mark.parametrize("nu", NUS)
def test_k_relative_error(nu):
    xs = _grid(nu, K_ASYM_CUT)
    with mpmath.workdps(30):
        ref = [mpmath.besselk(nu, x) for x in xs]
    got = k_values(nu, xs)
    worst = max(float(abs((g - r) / r)) for g, r in zip(got, ref))
    assert worst < BOUND


@pytest.mark.parametrize("nu", NUS)
def test_y_error(nu):
    # absolute error, relative where |Y| > 1
    xs = _grid(nu, JY_CUT + 1e-9)
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
def test_j_at_the_seam(nu):
    xs = _grid(nu, JY_CUT + 1e-9)
    xs = xs[(xs > 13.0) & (xs < 15.0)]
    with mpmath.workdps(30):
        ref = [mpmath.besselj(nu, x) for x in xs]
    got = jy_values(nu, xs)[0]
    worst = max(float(abs(g - r)) for g, r in zip(got, ref))
    assert worst < J_SEAM_BOUND


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
