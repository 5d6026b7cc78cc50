import math

import numpy as np
import pytest

from tblab.bessel import (
    JY_CUT,
    K_ASYM_CUT,
    bessel_I,
    bessel_J,
    bessel_K,
    bessel_Y,
    jy_values,
    k_values,
)
from tblab.errors import DomainError
from tblab.series import QuadratureSpec, adaptive_integral


def k_half(x):
    return math.sqrt(math.pi / (2 * x)) * math.exp(-x)


class TestI:
    def test_at_zero(self):
        assert bessel_I(0.0, 0.0) == 1.0
        assert bessel_I(0.5, 0.0) == 0.0

    def test_half_order(self):
        x = 1.0
        closed = math.sqrt(2 / (math.pi * x)) * math.sinh(x)
        assert abs(bessel_I(0.5, x) - closed) < 1e-12
        assert abs(closed - 0.9376748) < 5e-7

    def test_recurrence(self):
        nu, x = 1.3, 2.0
        lhs = bessel_I(nu - 1, x) - bessel_I(nu + 1, x)
        assert abs(lhs - 2 * nu / x * bessel_I(nu, x)) < 1e-12


class TestK:
    def test_half_order_value(self):
        assert abs(bessel_K(0.5, 1.0) - 0.461068504448) < 1e-11
        for x in (0.1, 0.9, 7.0, 30.0, 100.0):
            assert abs(bessel_K(0.5, x) - k_half(x)) < 1e-11 * k_half(x)

    def test_integral_representation_oracle(self):
        # K_0(x) = int_0^inf exp(-x cosh t) dt by quadrature
        for x in (0.6, 2.0, 9.0):
            T = math.acosh(1 + 50.0 / x)
            quad = adaptive_integral(lambda t: math.exp(-x * math.cosh(t)),
                                     QuadratureSpec(0.0, T, tol=1e-13))
            assert abs(bessel_K(0.0, x) - quad) < 1e-10

    def test_even_symmetry(self):
        assert bessel_K(0.3, 1.7) == bessel_K(-0.3, 1.7)

    def test_monotone_decreasing_positive(self):
        xs = np.linspace(0.05, 60, 300)
        vals = k_values(0.0, xs)
        assert np.all(vals[:-1] > vals[1:])
        assert np.all(vals > 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_K(0.5, 0.0)

    def test_near_integer_routing(self):
        # orders next to an integer stay consistent with the integer order
        # (their accuracy is checked against mpmath in test_oracle.py)
        x = 1.3
        smooth = bessel_K(1.0 + 5e-4, x)
        assert abs(smooth - bessel_K(1.0, x)) < 1e-3 * bessel_K(1.0, x)


class TestJ:
    def test_at_zero(self):
        assert bessel_J(0.0, 0.0) == 1.0

    def test_half_order(self):
        x = 2.0
        closed = math.sqrt(2 / (math.pi * x)) * math.sin(x)
        assert abs(bessel_J(0.5, x) - closed) < 1e-12
        assert abs(closed - 0.5130161) < 5e-8


class TestY:
    def test_half_order(self):
        x = 2.0
        closed = -math.sqrt(2 / (math.pi * x)) * math.cos(x)
        assert abs(bessel_Y(0.5, x) - closed) < 1e-12
        assert abs(closed - 0.234785710406) < 1e-11

    def test_wronskian(self):
        h = 1e-5
        for nu, x in ((0.25, 3.0), (1.3, 2.0)):
            yp = (bessel_Y(nu, x + h) - bessel_Y(nu, x - h)) / (2 * h)
            jp = (bessel_J(nu, x + h) - bessel_J(nu, x - h)) / (2 * h)
            wron = bessel_J(nu, x) * yp - jp * bessel_Y(nu, x)
            assert abs(wron - 2 / (math.pi * x)) < 1e-9

    def test_log_singularity(self):
        assert bessel_Y(0.0, 1e-6) < -8

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_Y(0.25, -1.0)


def test_half_order_closed_forms_across_range():
    for x in np.geomspace(0.1, 100, 40):
        kc = k_half(x)
        assert abs(bessel_K(0.5, x) - kc) < 1e-11 * kc
        jc = math.sqrt(2 / (math.pi * x)) * math.sin(x)
        yc = -math.sqrt(2 / (math.pi * x)) * math.cos(x)
        ic = math.sqrt(2 / (math.pi * x)) * math.sinh(x)
        assert abs(bessel_J(0.5, x) - jc) < 1e-11
        assert abs(bessel_Y(0.5, x) - yc) < 1e-11
        assert abs(bessel_I(0.5, x) - ic) < 1e-11 * max(1.0, ic)


def test_branch_continuity_at_cutoffs():
    from tblab.bessel import (
        _ascending, _jy_hankel_arr, _k_asym_arr, _k_bridge_arr, _y_bridge_arr)
    for nu in (0.0, 0.25, 0.5, 1.0, 1.3):
        c = float(_k_bridge_arr(nu, np.array([K_ASYM_CUT]))[0])
        d = float(_k_asym_arr(nu, np.array([K_ASYM_CUT]))[0])
        assert abs(c - d) < 1e-9
        jh, yh = (float(v[0]) for v in _jy_hankel_arr(nu, np.array([JY_CUT])))
        assert abs(float(_ascending(nu, np.array([JY_CUT]), -1.0)[0]) - jh) < 1e-9
        assert abs(float(_y_bridge_arr(nu, np.array([JY_CUT]))[0]) - yh) < 1e-9


def test_vectorized_matches_scalar():
    xs = np.array([0.3, 1.9, 2.1, 6.0, 17.9, 18.1, 40.0, 300.0])
    kv = k_values(0.25, xs)
    for i, x in enumerate(xs):
        assert abs(kv[i] - bessel_K(0.25, float(x))) < 1e-14 * kv[i]
    jv, yv = jy_values(1.3, xs)
    for i, x in enumerate(xs):
        assert abs(jv[i] - bessel_J(1.3, float(x))) < 1e-13
        assert abs(yv[i] - bessel_Y(1.3, float(x))) < 1e-13


def test_asymptotic_branches_refuse_orders_too_large():
    # 4 nu^2 - 1 > 8x: the first term already grows, so the truncated sum
    # is the leading term alone (bessel_K(10, 19) would read 1.6e-9, not 2.0e-8)
    with pytest.raises(DomainError):
        bessel_K(10, 19)
    with pytest.raises(DomainError):
        jy_values(8, [15.0])
    # nu = 5 still reaches below 1e-12 of the leading term at both cuts
    assert np.all(np.isfinite(k_values(5, np.array([K_ASYM_CUT, 25.0]))))
    for x in (14.01, 18.0):
        assert all(np.isfinite(v[0]) for v in jy_values(5, [x]))
