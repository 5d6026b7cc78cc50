import math

import numpy as np
import pytest

from tblab import bessel
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
from tblab.series import adaptive_integral, oscillatory_kernel_integrals, voronoi_kernel_values


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
            quad = adaptive_integral(lambda t: np.exp(-x * np.cosh(t)),
                                     0.0, T, tol=1e-13)
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



def _reflected(nu, xs):
    """jy_values at order -nu < 0 by DLMF 10.4.7-10.4.8, the order taken
    in quarter turns from round(2 nu) as a whole."""
    n = round(2.0 * nu)
    rest = math.pi * (nu - 0.5 * n)
    sn, cn = math.sin(rest), math.cos(rest)
    for _ in range(n % 4):
        sn, cn = cn, -sn
    j, y = jy_values(nu, xs)
    return cn * j - sn * y, sn * j + cn * y


@pytest.mark.parametrize("nu", [0.25, 1.5, 2.0, 2.3, 5.7, 7.25, 11.75])
def test_a_negative_order_is_reduced_mod_two_to_the_same_bits(nu):
    xs = np.array([0.5, 3.0, 13.0, 500.0])
    for got, want in zip(jy_values(-nu, xs), _reflected(nu, xs)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("nu", [-1e308, -1.7976931348623157e308])
def test_a_negative_order_whose_double_overflows_is_refused(nu):
    # 2 nu is -inf: the reflected order's own refusal ends the call
    with pytest.raises(DomainError, match="too large"):
        jy_values(nu, [20.0])


@pytest.mark.parametrize("nu", [-1e308, -1.7976931348623157e308, 1.5e308])
def test_a_kernel_of_a_negative_order_whose_double_overflows_is_refused(nu):
    # past |nu| of about 1.14e308 the phase pi nu / 2 is itself infinite;
    # at -1e308 the kernel integrals' ascending series needs Gamma(1e308)
    with pytest.raises(DomainError, match="not finite"):
        voronoi_kernel_values("even-cos", nu, np.array([1.0, 20.0]))
    with pytest.raises(DomainError, match="not finite"):
        oscillatory_kernel_integrals(np.exp, 1.0, 2.0, nu, [1.0, 30.0, 500.0], 0.0, "even-cos")


@pytest.mark.parametrize("nu", [1e8, 1e20, 1e154])
def test_a_kernel_integral_of_a_large_order_is_refused(nu):
    # the Hankel coefficients a_k(nu) of the endpoint expansion overflow,
    # so no scale is left to it, and the panels refuse the kernel
    with pytest.raises(DomainError, match="outside the double range"):
        oscillatory_kernel_integrals(np.exp, 1.0, 2.0, nu, [1.0, 30.0, 500.0], 0.0, "even-cos")


def _k_asym_reference(nu, xb):
    """K's expansion as one loop over every argument, dead ones included,
    up to a global stop: the loop the windowed one must match bit for bit."""
    mu = 4.0 * nu * nu
    low = int(np.argmin(xb))
    least = 1.0
    d = np.ones_like(xb)
    alive = np.ones_like(xb, dtype=bool)
    prev = np.abs(d)
    acc = np.ones_like(xb)
    for k in range(1, 40):
        d = d * ((mu - (2 * k - 1) ** 2) / (8.0 * k)) / xb
        now = np.abs(d)
        alive &= now < prev
        if alive[low]:
            least = float(now[low])
        if not alive.any() or now.max() < 1e-17:
            break
        acc = np.where(alive, acc + d, acc)
        prev = now
    if least > 1e-12:
        raise DomainError(
            f"K: the asymptotic expansion at nu={nu}, x={xb[low]:g} stops at a "
            f"term {least:.1e} of its leading one; the order is too large for "
            f"this argument")
    return np.sqrt(0.5 * np.pi / xb) * np.exp(-xb) * acc


def _same_k(nu, xs):
    """k_values(nu, xs) equals the reference bit for bit, or both raise
    DomainError with the same text; True when they returned values."""
    try:
        want = _k_asym_reference(abs(nu), xs)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            k_values(nu, xs)
        assert str(got.value) == str(exc)
        return False
    got = k_values(nu, xs)
    assert got.tobytes() == want.tobytes(), nu
    return True


@pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 1.5, 2.5, 4.0, 9.0])
def test_k_expansion_pinned_bit_for_bit(nu):
    # the half-integer orders end their series with an exact zero term
    rng = np.random.default_rng(int(4 * nu))
    returned = 0
    for size in (1, 5, 8, 9, 40, 3000):
        for span in (2.0, 300.0, 5000.0):
            xs = K_ASYM_CUT + span * rng.random(size)  # unsorted
            returned += _same_k(nu, xs)
            returned += _same_k(-nu, xs[::-1].copy())
    assert returned  # not every case is a refusal


def test_k_expansion_pinned_on_a_kernel_series_array():
    # the ascending lam sqrt(n) arguments bessel_series sends, 16k of them
    xs = K_ASYM_CUT * np.sqrt(np.arange(1, 16385, dtype=float))
    for nu in (0.0, 1.0, 2.25, 5.0):
        assert _same_k(nu, xs)


def test_k_expansion_pinned_on_repeated_and_long_arrays():
    # ties among the arguments, at the cut too, and the 65,536-term
    # lam sqrt(n) array bessel_series sends when its tail bound needs 2^16
    rng = np.random.default_rng(11)
    tied = np.repeat(K_ASYM_CUT + 300.0 * rng.random(50), 4)
    rng.shuffle(tied)
    long = 18.5 * np.sqrt(np.arange(1, 65537, dtype=float))
    for nu in (0.0, 0.5, 1.0, 2.25, 4.0):
        for xs in (tied, np.full(7, 25.0), np.array([18.0, 19.5, 18.0, 18.0, 19.5]), long):
            assert _same_k(nu, xs)


def _on_gl_grid(lo, hi, xs, integrand):
    """int_lo^hi integrand(x, t) dt on bessel's grid, built as lo + an
    outer product, in _on_grid's blocks of arguments."""
    block = bessel._HOT_DOUBLES // bessel._GL_U.size
    out = np.empty_like(xs)
    for i in range(0, xs.size, block):
        b = slice(i, i + block)
        span = hi[b] - lo[b]
        t = lo[b, None] + np.outer(span, bessel._GL_U)
        out[b] = (integrand(xs[b, None], t) @ bessel._GL_W) * span
    return out


def test_k_quadrature_pinned_on_its_two_exponentials():
    # K's integrand, and Y's decaying one, as the sum of its two
    # exponentials: at nu = 0 that sum is one exponential times 2
    xs = np.concatenate([np.geomspace(1e-20, 17.99, 301), [0.5, 0.5, 17.0]])
    ys = np.concatenate([np.geomspace(1e-20, JY_CUT, 301), [0.5, 0.5, JY_CUT]])
    lifted = 0  # the orders whose grid's lower limit leaves 0 somewhere
    for nu in (0.0, 0.3, 2.5, 12.0):
        lo, hi = bessel._limits(nu, xs, np.arccosh)
        want = _on_gl_grid(lo, hi, xs, lambda x, t: np.exp(-x * np.cosh(t) + nu * t)
                           + np.exp(-x * np.cosh(t) - nu * t))
        assert k_values(nu, xs).tobytes() == (0.5 * want).tobytes(), nu
        lifted += lo.any()
        c = math.cos(math.pi * nu)
        osc = _on_gl_grid(np.zeros(ys.shape), np.full(ys.shape, math.pi), ys,
                          lambda x, t: np.sin(x * np.sin(t) - nu * t))
        tail = _on_gl_grid(*bessel._limits(nu, ys, np.arcsinh), ys,
                           lambda x, t: np.exp(-x * np.sinh(t) + nu * t)
                           + c * np.exp(-x * np.sinh(t) - nu * t))
        assert jy_values(nu, ys)[1].tobytes() == ((osc - tail) / math.pi).tobytes(), nu
    assert lifted


def test_k_expansion_refusal_keeps_its_text():
    # just past its cut: nu = 9 needs x > 40.4 for its first term to fall
    for xs in (np.array([19.0]), np.array([60.0, 40.0, 200.0, 41.0, 39.5, 90.0,
                                           45.0, 50.0, 33.0, 70.0])):
        assert not _same_k(9.0, xs)
    assert not _same_k(10.0, np.array([19.0]))


def _jy_hankel_reference(nu, xb):
    """J and Y from the Hankel expansions as one loop over every argument,
    dead ones included, up to a global stop once every term is below 1e-17:
    the loop the windowed one must match to within such a term."""
    mu = 4.0 * nu * nu
    low = int(np.argmin(xb))
    least = 1.0
    d = np.ones_like(xb)
    alive = np.ones_like(xb, dtype=bool)
    prev = np.abs(d)
    p, q = np.ones_like(xb), np.zeros_like(xb)
    for k in range(1, 40):
        d = d * ((mu - (2 * k - 1) ** 2) / (8.0 * k)) / xb
        now = np.abs(d)
        alive &= now < prev
        if alive[low]:
            least = float(now[low])
        if not alive.any() or now.max() < 1e-17:
            break
        sgn = 1.0 if k % 4 in (0, 1) else -1.0
        if k % 2 == 1:
            q = np.where(alive, q + sgn * d, q)
        else:
            p = np.where(alive, p + sgn * d, p)
        prev = now
    if least > 1e-12:
        raise DomainError(
            f"J/Y: the asymptotic expansion at nu={nu}, x={xb[low]:g} stops at a "
            f"term {least:.1e} of its leading one; the order is too large for "
            f"this argument")
    omega = xb - (0.5 * nu + 0.25) * np.pi
    amp = np.sqrt(2.0 / (np.pi * xb))
    cw, sw = np.cos(omega), np.sin(omega)
    return amp * (p * cw - q * sw), amp * (p * sw + q * cw)


@pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 1.5, 2.5, 4.0])
def test_hankel_expansion_pinned(nu):
    # an argument now stops at its own first term below 1e-17 instead of
    # at the global stop, which moves J and Y by less than such a term
    rng = np.random.default_rng(int(4 * nu) + 100)
    for size in (1, 5, 8, 9, 40, 3000):
        for span in (2.0, 300.0, 5000.0):
            xs = JY_CUT + span * rng.random(size)  # unsorted
            for got, want in zip(jy_values(nu, xs), _jy_hankel_reference(nu, xs)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-16)


def test_hankel_expansion_refusal_keeps_its_text():
    # just past its cut: nu = 8 needs x > 31.9 for its first term to fall
    for xs in (np.array([15.0]), np.array([60.0, 40.0, 200.0, 41.0, 15.0, 90.0,
                                           45.0, 50.0, 33.0, 70.0])):
        with pytest.raises(DomainError) as want:
            _jy_hankel_reference(8.0, xs)
        with pytest.raises(DomainError) as got:
            jy_values(8.0, xs)
        assert str(got.value) == str(want.value)


def test_gauss_legendre_table_is_numpys_rule():
    # the table holds leggauss(128)'s output; another LAPACK may round
    # its end weights differently, which are 1.4e-11 off their exact values
    x, w = np.polynomial.legendre.leggauss(128)
    np.testing.assert_allclose(bessel._GL_NODES, x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(bessel._GL_WEIGHTS, w, rtol=1e-10)
