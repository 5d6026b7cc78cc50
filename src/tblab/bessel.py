"""Bessel functions I, K, J, Y of real order nu >= 0 on positive reals.

Branch layout per function:

* I: ascending power series everywhere (terms summed until they fall
  below 1e-17 of the partial sum).
* K: the I-difference form (pi/2)(I_{-nu}-I_nu)/sin(pi nu) below
  K_SERIES_CUT, the monotone integral representation
  int_0^inf exp(-x cosh t) cosh(nu t) dt on a fixed Gauss-Legendre grid
  in the mid range, and the superasymptotic expansion beyond K_ASYM_CUT.
  The I-difference loses eps*e^{2x} to cancellation, which caps its use
  near x ~ 5 in doubles; the bridge covers the gap to the asymptotic
  regime.
* J/Y: ascending series (Y through the J_{+-nu} combination) below
  JY_CUT, Hankel amplitude/phase expansions beyond.

Integer and near-integer orders: within 1e-8 of an integer the integer
(logarithmic/digamma) series is used; distances in [1e-8, 1e-3] are
filled by quadratic extrapolation in nu from clean offsets, since the
1/sin(pi nu) forms are catastrophically ill-conditioned there.
K is even in nu, so only |nu| is ever evaluated.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "K_SERIES_CUT",
    "K_ASYM_CUT",
    "JY_CUT",
    "bessel_I",
    "bessel_K",
    "bessel_J",
    "bessel_Y",
    "k_values",
    "jy_values",
]

# The I-difference form loses eps*e^{2x} to cancellation, so it hands over
# to the integral representation early; the asymptotic series takes over
# once its superasymptotic error e^{-2x} clears double precision.
K_SERIES_CUT = 2.0
K_ASYM_CUT = 18.0
JY_CUT = 14.0

_INT_EXACT = 1e-8
_INT_RICH = 1e-3
_RICH_H = 7.5e-4


def _i_series(nu: float, x: float) -> float:
    """Ascending series for I_nu, any real nu (not a negative integer)."""
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    x2 = 0.25 * x * x
    term = (0.5 * x) ** nu / math.gamma(nu + 1.0)
    acc = term
    n = 1
    while True:
        term *= x2 / (n * (nu + n))
        acc += term
        if abs(term) < 1e-17 * abs(acc) or n > 600:
            return acc
        n += 1


def _harmonic_psi(n: int) -> float:
    # psi(n+1) = -gamma + sum_{k<=n} 1/k
    acc = -0.5772156649015328606
    for k in range(1, n + 1):
        acc += 1.0 / k
    return acc


def _k_int_series(n: int, x: float) -> float:
    """K_n(x) by the logarithmic series with digamma terms."""
    xh = 0.5 * x
    x2 = xh * xh
    acc = 0.0
    if n > 0:
        # finite sum: (1/2)(x/2)^{-n} sum_{k<n} ((n-k-1)!/k!)(-x^2/4)^k
        term = 0.5 * xh ** (-n) * math.factorial(n - 1)
        acc += term
        for k in range(1, n):
            term *= -x2 / (k * (n - k))
            acc += term
    acc += (-1.0) ** (n + 1) * math.log(xh) * _i_series(float(n), x)
    # (-1)^n (1/2)(x/2)^n sum_k (psi(k+1)+psi(n+k+1)) (x^2/4)^k /(k!(n+k)!)
    coef = (-1.0) ** n * 0.5 * xh ** n / math.factorial(n)
    p1, p2 = _harmonic_psi(0), _harmonic_psi(n)
    term = coef
    acc += term * (p1 + p2)
    k = 1
    while True:
        term *= x2 / (k * (n + k))
        p1 += 1.0 / k
        p2 += 1.0 / (n + k)
        inc = term * (p1 + p2)
        acc += inc
        if abs(inc) < 1e-17 * max(abs(acc), 1e-300) or k > 400:
            return acc
        k += 1


def _near_int_nodes(m: int) -> list[float]:
    # every node keeps |nu - m| >= 2h > _INT_RICH, outside this zone
    h = _RICH_H
    if m == 0:
        return [2 * h, 3 * h, 4 * h, 5 * h]
    return [m + k * h for k in (-4, -3, -2, 2, 3, 4)]


def _lagrange(xs, ys, t):
    acc = 0.0
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        w = yi
        for j, xj in enumerate(xs):
            if j != i:
                w *= (t - xj) / (xi - xj)
        acc += w
    return acc


def _k_small(nu: float, x: float) -> float:
    d = nu - round(nu)
    if abs(d) < _INT_EXACT:
        return _k_int_series(round(nu), x)
    if abs(d) < _INT_RICH:
        m = round(nu)
        nodes = _near_int_nodes(m)
        vals = [_k_small(t, x) for t in nodes]
        if m == 0:
            # K is even in nu: interpolate in nu^2, anchored by the exact
            # integer-series value at nu = 0
            us = [0.0] + [t * t for t in nodes]
            vs = [_k_int_series(0, x)] + vals
            return _lagrange(us, vs, nu * nu)
        return _lagrange(nodes, vals, nu)
    return (0.5 * math.pi) * (_i_series(-nu, x) - _i_series(nu, x)) \
        / math.sin(math.pi * nu)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(96)
# mapped to [0, 1]
_GL_U = 0.5 * (_GL_NODES + 1.0)
_GL_W = 0.5 * _GL_WEIGHTS


def _k_bridge_arr(nu: float, xs: np.ndarray) -> np.ndarray:
    """Integral representation on a fixed Gauss-Legendre grid, vectorized.

    The upper limit T = acosh(1 + 45/x) puts the discarded tail below
    e^{-45} relative to the result.
    """
    T = np.arccosh(1.0 + 45.0 / xs)
    t = np.outer(T, _GL_U)
    vals = np.exp(-xs[:, None] * np.cosh(t)) * np.cosh(nu * t)
    return (vals @ _GL_W) * T


def _k_asym_arr(nu: float, xb: np.ndarray) -> np.ndarray:
    """The superasymptotic expansion of K_nu, each series stopped before
    its smallest term."""
    mu = 4.0 * nu * nu
    term = np.ones_like(xb)
    acc = np.ones_like(xb)
    alive = np.ones_like(xb, dtype=bool)
    prev = np.abs(term)
    for k in range(1, 40):
        term = term * ((mu - (2 * k - 1) ** 2) / (8.0 * k)) / xb
        now = np.abs(term)
        alive &= now < prev
        if not alive.any() or now.max() < 1e-17:
            break
        acc = np.where(alive, acc + term, acc)
        prev = now
    return np.sqrt(0.5 * np.pi / xb) * np.exp(-xb) * acc


def bessel_I(nu: float, x: float) -> float:
    """Modified Bessel function I_nu(x), nu >= 0, x >= 0."""
    if x < 0:
        raise DomainError(f"bessel_I needs x >= 0, got {x}")
    return _i_series(nu, x)


def bessel_K(nu: float, x: float) -> float:
    """Modified Bessel function K_nu(x), x > 0; even in nu."""
    if x <= 0:
        raise DomainError(f"bessel_K needs x > 0, got {x}")
    return float(k_values(nu, np.array([x]))[0])


def k_values(nu: float, xs: np.ndarray) -> np.ndarray:
    """Vectorized K_nu over an array of positive arguments."""
    xs = np.asarray(xs, dtype=float)
    if np.any(xs <= 0):
        raise DomainError("k_values needs x > 0")
    nu = abs(nu)
    out = np.empty_like(xs)
    small = xs <= K_SERIES_CUT
    mid = (xs > K_SERIES_CUT) & (xs < K_ASYM_CUT)
    big = xs >= K_ASYM_CUT
    if small.any():
        out[small] = [_k_small(nu, float(x)) for x in xs[small]]
    if mid.any():
        out[mid] = _k_bridge_arr(nu, xs[mid])
    if big.any():
        out[big] = _k_asym_arr(nu, xs[big])
    return out


def _j_series(nu: float, x: float) -> float:
    """Ascending series for J_nu, any real nu (not a negative integer)."""
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    x2 = 0.25 * x * x
    term = (0.5 * x) ** nu / math.gamma(nu + 1.0)
    acc = term
    n = 1
    while True:
        term *= -x2 / (n * (nu + n))
        acc += term
        if abs(term) < 1e-17 * max(abs(acc), 1e-12) or n > 600:
            return acc
        n += 1


def _jy_hankel_arr(nu: float, xb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(J_nu, Y_nu) from the Hankel amplitude/phase expansions, each
    series stopped before its smallest term."""
    mu = 4.0 * nu * nu
    d = np.ones_like(xb)
    p = np.ones_like(xb)
    q = np.zeros_like(xb)
    alive = np.ones_like(xb, dtype=bool)
    prev = np.abs(d)
    for k in range(1, 40):
        d = d * ((mu - (2 * k - 1) ** 2) / (8.0 * k)) / xb
        now = np.abs(d)
        alive &= now < prev
        if not alive.any() or now.max() < 1e-17:
            break
        sgn = 1.0 if k % 4 in (0, 1) else -1.0
        if k % 2 == 1:
            q = np.where(alive, q + sgn * d, q)
        else:
            p = np.where(alive, p + sgn * d, p)
        prev = now
    del d, prev, now  # free them before both results are built at once
    omega = xb - (0.5 * nu + 0.25) * np.pi
    amp = np.sqrt(2.0 / (np.pi * xb))
    cw, sw = np.cos(omega), np.sin(omega)
    return amp * (p * cw - q * sw), amp * (p * sw + q * cw)


def _y_int_series(n: int, x: float) -> float:
    xh = 0.5 * x
    x2 = xh * xh
    acc = 2.0 / math.pi * math.log(xh) * _j_series(float(n), x)
    if n > 0:
        term = xh ** (-n) / math.pi * math.factorial(n - 1)
        acc -= term
        for k in range(1, n):
            term *= x2 / (k * (n - k))
            acc -= term
    coef = xh ** n / (math.pi * math.factorial(n))
    p1, p2 = _harmonic_psi(0), _harmonic_psi(n)
    term = coef
    acc -= term * (p1 + p2)
    k = 1
    while True:
        term *= -x2 / (k * (n + k))
        p1 += 1.0 / k
        p2 += 1.0 / (n + k)
        inc = term * (p1 + p2)
        acc -= inc
        if abs(inc) < 1e-17 * max(abs(acc), 1e-300) or k > 400:
            return acc
        k += 1


def _y_small(nu: float, x: float) -> float:
    d = nu - round(nu)
    if abs(d) < _INT_EXACT:
        return _y_int_series(round(nu), x)
    if abs(d) < _INT_RICH:
        nodes = _near_int_nodes(round(nu))
        return _lagrange(nodes, [_y_small(t, x) for t in nodes], nu)
    s = math.pi * nu
    return (_j_series(nu, x) * math.cos(s) - _j_series(-nu, x)) / math.sin(s)


def bessel_J(nu: float, x: float) -> float:
    """Bessel function of the first kind, nu >= 0, x >= 0."""
    if x < 0:
        raise DomainError(f"bessel_J needs x >= 0, got {x}")
    if x <= JY_CUT:
        return _j_series(nu, x)
    return float(jy_values(nu, np.array([x]))[0][0])


def bessel_Y(nu: float, x: float) -> float:
    """Weber/Neumann Bessel function of the second kind, nu >= 0, x > 0."""
    if x <= 0:
        raise DomainError(f"bessel_Y needs x > 0, got {x}")
    return float(jy_values(nu, np.array([x]))[1][0])


def jy_values(nu: float, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (J_nu, Y_nu) over an array of positive arguments."""
    xs = np.asarray(xs, dtype=float)
    if np.any(xs <= 0):
        raise DomainError("jy_values needs x > 0")
    j = np.empty_like(xs)
    y = np.empty_like(xs)
    small = xs <= JY_CUT
    if small.any():
        j[small] = [_j_series(nu, float(x)) for x in xs[small]]
        y[small] = [_y_small(nu, float(x)) for x in xs[small]]
    big = ~small
    if big.any():
        j[big], y[big] = _jy_hankel_arr(nu, xs[big])
    return j, y
