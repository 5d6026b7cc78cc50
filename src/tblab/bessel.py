"""Bessel functions I, K, J, Y of real order nu >= 0 on positive reals.

Branch layout per function:

* I: the ascending power series everywhere.
* K: below K_ASYM_CUT, int_0^inf exp(-x cosh t) cosh(nu t) dt (DLMF
  10.32.9) on a fixed Gauss-Legendre grid; beyond, the superasymptotic
  expansion.
* J: the ascending series up to JY_CUT; beyond, the Hankel expansions.
* Y: up to JY_CUT, Schlaefli's integral (DLMF 10.9.7)
  (1/pi) int_0^pi sin(x sin th - nu th) dth
  - (1/pi) int_0^inf (e^{nu t} + cos(nu pi) e^{-nu t}) e^{-x sinh t} dt
  on the same grid; beyond, the Hankel expansions.

I and J share one vectorized ascending series, which stops each argument
at its first term below 1e-17 of its partial sum.  K and the Hankel P
and Q share one generator of the terms of their expansion in 1/x (DLMF
10.40.2, 10.17.1), which stops each argument before its smallest term.
The integration limits follow nu and x (see _limits), so no order,
integer or not, takes a path of its own.  An asymptotic expansion whose
smallest term is still above 1e-12 of its leading one (a large order
just past its cut) raises DomainError instead of returning the truncated
sum, as does a value outside the double range.  K is even in nu, so
only |nu| is ever evaluated.
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

# No branch of K changes at K_SERIES_CUT any more; it is kept only because
# the benchmark's tracing still counts K arguments on either side of it.
K_SERIES_CUT = 2.0
# The asymptotic series take over once their superasymptotic error clears
# double precision for the orders the registry uses.
K_ASYM_CUT = 18.0
JY_CUT = 14.0
# An asymptotic sum whose smallest term is above this share of its leading
# term is refused.
_ASYM_REL = 1e-12


@np.errstate(over="ignore", invalid="ignore")
def _ascending(nu: float, xs: np.ndarray, sign: float) -> np.ndarray:
    """sum_k sign^k (x/2)^{nu+2k} / (k! Gamma(nu+k+1)), vectorized over
    x >= 0: I_nu for sign +1, J_nu for sign -1 (nu not a negative
    integer)."""
    try:
        lead = math.gamma(nu + 1.0)
    except (OverflowError, ValueError):  # too large, or a pole
        raise DomainError(f"the ascending series of order {nu:g} needs "
                          f"Gamma({nu + 1.0:g}), which is not finite") from None
    ratio = sign * (0.25 * xs * xs)
    term = (0.5 * xs) ** nu / lead
    acc = term.copy()
    live = np.arange(xs.size)  # the arguments still adding terms
    for n in range(1, 602):
        term = term * (ratio / (n * (nu + n)))
        acc[live] += term
        go = np.abs(term) > 1e-17 * np.abs(acc[live])
        if not go.any():
            break
        live, term, ratio = live[go], term[go], ratio[go]
    _refuse_overflow("I" if sign > 0 else "J", nu, xs, acc)
    return acc


def _refuse_overflow(name: str, nu: float, xs: np.ndarray, *values: np.ndarray) -> None:
    """Raise DomainError where a value has left the double range."""
    for v in values:
        bad = ~np.isfinite(v)
        if bad.any():
            raise DomainError(
                f"{name}_{nu:g}({xs[bad][0]:g}) lies outside the double range")


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(128)
_GL_U, _GL_W = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS  # mapped to [0, 1]
# arguments per block, so that no (arguments x nodes) temporary tops 1 MB
_BLOCK = 1024


def _on_grid(lo: np.ndarray, hi: np.ndarray, xs: np.ndarray, integrand) -> np.ndarray:
    """int_lo^hi integrand(x, t) dt for each x, on the Gauss-Legendre grid."""
    out = np.empty(xs.shape)
    for i in range(0, xs.size, _BLOCK):
        b = slice(i, i + _BLOCK)
        span = hi[b] - lo[b]
        t = lo[b, None] + np.outer(span, _GL_U)
        out[b] = (integrand(xs[b, None], t) @ _GL_W) * span
    return out


def _limits(nu: float, xs: np.ndarray, inverse) -> tuple[np.ndarray, np.ndarray]:
    """Limits outside which e^{nu t - x cosh t} (inverse=arccosh, for K) or
    e^{nu t - x sinh t} (arcsinh, for Y) is e^{-45} below its integral.
    Below the peak t*, the log-slope is about nu/2 or more from t* - 2
    down, so the lower limit leaves 0 only where nu/x is large and the
    peak narrow."""
    lo = np.maximum(np.arcsinh(nu / xs) - 2.0 - 90.0 / max(nu, 1e-300), 0.0)
    hi = inverse(1.0 + (45.0 + nu * np.log1p((45.0 + nu) / xs) + nu) / xs)
    return lo, hi


def _k_bridge_arr(nu: float, xs: np.ndarray) -> np.ndarray:
    """K_nu by its integral representation, vectorized.  Its integrand,
    like Y's, raises each exponent whole: e^{nu t} alone overflows once
    nu t > 709, where the integrand need not."""
    def integrand(x, t):
        e = -x * np.cosh(t)
        return np.exp(e + nu * t) + np.exp(e - nu * t)
    return 0.5 * _on_grid(*_limits(nu, xs, np.arccosh), xs, integrand)


def _y_bridge_arr(nu: float, xs: np.ndarray) -> np.ndarray:
    """Y_nu by Schlaefli's integral, vectorized."""
    c = math.cos(math.pi * nu)

    def decaying(x, t):
        e = -x * np.sinh(t)
        return np.exp(e + nu * t) + c * np.exp(e - nu * t)

    def oscillating(x, th):
        return np.sin(x * np.sin(th) - nu * th)

    osc = _on_grid(np.zeros(xs.shape), np.full(xs.shape, math.pi), xs, oscillating)
    tail = _on_grid(*_limits(nu, xs, np.arcsinh), xs, decaying)
    return (osc - tail) / math.pi


def _asym_terms(nu: float, xb: np.ndarray, name: str):
    """Yield (k, d_k, alive), d_k = prod_{j<=k} (4 nu^2 - (2j-1)^2)/(8 j x),
    alive marking the arguments whose |d| has fallen at every step yet.
    Then raise DomainError unless the least argument reached a term below
    _ASYM_REL of the leading one before its terms grew: that smallest
    term falls as x grows, so the least argument speaks for all."""
    mu = 4.0 * nu * nu
    low = int(np.argmin(xb))
    least = 1.0
    d = np.ones_like(xb)
    alive = np.ones_like(xb, dtype=bool)
    prev = np.abs(d)
    for k in range(1, 40):
        d = d * ((mu - (2 * k - 1) ** 2) / (8.0 * k)) / xb
        now = np.abs(d)
        alive &= now < prev
        if alive[low]:
            least = float(now[low])
        if not alive.any() or now.max() < 1e-17:
            break
        yield k, d, alive
        prev = now
    if least > _ASYM_REL:
        raise DomainError(
            f"{name}: the asymptotic expansion at nu={nu}, x={xb[low]:g} stops at a "
            f"term {least:.1e} of its leading one; the order is too large for "
            f"this argument")


def _k_asym_arr(nu: float, xb: np.ndarray) -> np.ndarray:
    """The superasymptotic expansion of K_nu, each series stopped before
    its smallest term."""
    acc = np.ones_like(xb)
    for _, d, alive in _asym_terms(nu, xb, "K"):
        acc = np.where(alive, acc + d, acc)
        del d, alive  # held while the next pair is formed, they cost time and memory
    return np.sqrt(0.5 * np.pi / xb) * np.exp(-xb) * acc


def _jy_hankel_arr(nu: float, xb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(J_nu, Y_nu) from the Hankel amplitude/phase expansions, each
    series stopped before its smallest term."""
    p = np.ones_like(xb)
    q = np.zeros_like(xb)
    for k, d, alive in _asym_terms(nu, xb, "J/Y"):
        sgn = 1.0 if k % 4 in (0, 1) else -1.0
        if k % 2 == 1:
            q = np.where(alive, q + sgn * d, q)
        else:
            p = np.where(alive, p + sgn * d, p)
        del d, alive
    omega = xb - (0.5 * nu + 0.25) * np.pi
    amp = np.sqrt(2.0 / (np.pi * xb))
    cw, sw = np.cos(omega), np.sin(omega)
    return amp * (p * cw - q * sw), amp * (p * sw + q * cw)


def bessel_I(nu: float, x: float) -> float:
    """Modified Bessel function I_nu(x), nu >= 0, x >= 0."""
    if x < 0:
        raise DomainError(f"bessel_I needs x >= 0, got {x}")
    return float(_ascending(nu, np.array([float(x)]), 1.0)[0])


def bessel_K(nu: float, x: float) -> float:
    """Modified Bessel function K_nu(x), x > 0; even in nu."""
    if x <= 0:
        raise DomainError(f"bessel_K needs x > 0, got {x}")
    return float(k_values(nu, np.array([x]))[0])


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below
def k_values(nu: float, xs: np.ndarray) -> np.ndarray:
    """Vectorized K_nu over an array of positive arguments."""
    xs = np.asarray(xs, dtype=float)
    if np.any(xs <= 0):
        raise DomainError("k_values needs x > 0")
    nu = abs(nu)
    out = np.empty_like(xs)
    big = xs >= K_ASYM_CUT
    if big.any():
        out[big] = _k_asym_arr(nu, xs[big])
    small = ~big
    if small.any():
        out[small] = _k_bridge_arr(nu, xs[small])
    _refuse_overflow("K", nu, xs, out)
    return out


def bessel_J(nu: float, x: float) -> float:
    """Bessel function of the first kind, nu >= 0, x >= 0."""
    if x < 0:
        raise DomainError(f"bessel_J needs x >= 0, got {x}")
    if x <= JY_CUT:
        return float(_ascending(nu, np.array([float(x)]), -1.0)[0])
    return float(jy_values(nu, np.array([x]))[0][0])


def bessel_Y(nu: float, x: float) -> float:
    """Weber/Neumann Bessel function of the second kind, nu >= 0, x > 0."""
    if x <= 0:
        raise DomainError(f"bessel_Y needs x > 0, got {x}")
    return float(jy_values(nu, np.array([x]))[1][0])


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below
def jy_values(nu: float, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (J_nu, Y_nu) over an array of positive arguments."""
    xs = np.asarray(xs, dtype=float)
    if np.any(xs <= 0):
        raise DomainError("jy_values needs x > 0")
    j, y = np.empty_like(xs), np.empty_like(xs)
    small = xs <= JY_CUT
    if small.any():
        j[small] = _ascending(nu, xs[small], -1.0)
        y[small] = _y_bridge_arr(nu, xs[small])
    big = ~small
    if big.any():
        j[big], y[big] = _jy_hankel_arr(nu, xs[big])
    _refuse_overflow("J/Y", nu, xs, j, y)
    return j, y
