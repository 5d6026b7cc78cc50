"""Bessel functions I, K, J, Y of real order nu on positive reals.

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
at its first term below 1e-17 of its partial sum.  K and the Hankel P and
Q sum the same expansion in 1/x (DLMF 10.40.2, 10.17.3) in one loop over
a window of ascending arguments, which drops an argument once its terms
grow or can no longer move its sums, so each argument forms only its own
terms and stops before its smallest one.  Its steps round correctly, so a
term can grow only where the step's coefficient nears x, and the terms
fall weakly along the arguments: most steps are three array passes and a
bisection for the window's right end; only the last few test for growth.
The integration limits follow nu and x (see _limits), so no order,
integer or not, takes a path of its own.  An asymptotic expansion whose
smallest term is still above 1e-12 of its leading one (a large order
just past its cut) raises DomainError instead of returning the truncated
sum, as does a value outside the double range.  K and Y refuse x below
1e-20, where their integrals lose accuracy.  K is even in nu, so only
|nu| is ever evaluated; a negative integer order -n of I is reflected
to n (DLMF 10.27.1), and every negative order of J and Y to its
positive one (DLMF 10.4.7-10.4.8).
"""

from __future__ import annotations

import bisect
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
# K and Y refuse arguments below this: their quadratures hold 5e-14 down
# to about 1e-24 for orders up to 20, but K_0(1e-300) errs by 1.1e-7.
_X_MIN = 1e-20


def _refuse_order(nu: float) -> None:
    if not math.isfinite(nu):
        raise DomainError(f"the Bessel order must be finite, got {nu}")


def _arguments(name: str, nu: float, xs) -> np.ndarray:
    """xs as a float array; DomainError for a non-finite order or any x
    below _X_MIN."""
    _refuse_order(nu)
    xs = np.asarray(xs, dtype=float)
    if not np.all(xs > 0):
        raise DomainError(f"{name} needs x > 0, got {xs[~(xs > 0)][0]:g}")
    if not np.all(xs >= _X_MIN):
        raise DomainError(f"{name} needs x >= {_X_MIN:g}, where its quadrature holds; "
                          f"got {xs.min():g}")
    return xs


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _ascending(nu: float, xs: np.ndarray, sign: float) -> np.ndarray:
    """sum_k sign^k (x/2)^{nu+2k} / (k! Gamma(nu+k+1)), vectorized over
    x >= 0: I_nu for sign +1, J_nu for sign -1; I_{-n} = I_n and
    J_{-n} = (-1)^n J_n at a negative integer order.  The leading term is
    exp(nu ln(x/2) - ln|Gamma(nu+1)|), as both factors of
    (x/2)^nu / Gamma(nu+1) leave the double range on their own from nu of
    about 171 on."""
    _refuse_order(nu)
    if nu < 0 and nu == math.floor(nu):
        acc = _ascending(-nu, xs, sign)
        return -acc if sign < 0 and nu % 2 else acc
    try:
        log_gamma = math.lgamma(nu + 1.0)
    except (ValueError, OverflowError):  # a pole, or an order from about 2.6e305 on
        raise DomainError(f"the ascending series of order {nu:g} needs "
                          f"Gamma({nu + 1.0:g}), which is not finite") from None
    # Gamma is negative on (-1, 0), (-3, -2), ...
    lead_sign = -1.0 if nu + 1.0 < 0.0 and math.floor(nu + 1.0) % 2 else 1.0
    log_power = nu * np.log(0.5 * xs) if nu else np.zeros(xs.shape)
    ratio = sign * (0.25 * xs * xs)
    term = lead_sign * np.exp(log_power - log_gamma)
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


# The hot loops here and in series hold temporaries of at most this many
# doubles: _on_grid 64 arguments x 128 nodes, the Voronoi panels (and the
# Clenshaw recurrence of their kernel interpolant) scales x nodes, the
# endpoint expansion a quarter as many scales, for its 2 x scales complex
# values, bessel_series a chunk of arguments.  64 kB stays below glibc's
# 128 kB mmap threshold, so a temporary reuses heap memory instead of
# mapping and faulting in fresh pages, and OpenBLAS computes a product
# this small on the calling thread.
_HOT_DOUBLES = 8192


def _on_grid(lo: np.ndarray, hi: np.ndarray, xs: np.ndarray, integrand) -> np.ndarray:
    """int_lo^hi integrand(x, t) dt for each x, on the Gauss-Legendre grid
    (_GL_U, _GL_W, at the end of the module), in blocks of arguments whose
    (arguments x nodes) temporaries hold _HOT_DOUBLES."""
    out = np.empty(xs.shape)
    block = _HOT_DOUBLES // _GL_U.size
    for i in range(0, xs.size, block):
        b = slice(i, i + block)
        span = hi[b] - lo[b]
        t = span[:, None] * _GL_U
        if lo[b].any():
            t += lo[b, None]
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


def _exp_pair(nu: float, c: float, rate):
    """e^{nu t - x rate(t)} + c e^{-nu t - x rate(t)}, K's integrand (cosh,
    c = 1) and Y's decaying one (sinh, c = cos(nu pi)), each exponent raised
    whole: e^{nu t} alone overflows once nu t > 709, where the sum need not.
    At nu = 0, where c = 1, one exponential, doubled, is the sum, exactly;
    K skips the product by c = 1, which would cost it 7-10%."""
    def integrand(x, t):
        e = -x * rate(t)
        if not nu:
            return 2.0 * np.exp(e)
        nt = nu * t
        pair = np.exp(e - nt)
        return np.exp(e + nt) + (pair if c == 1.0 else c * pair)
    return integrand


def _k_bridge_arr(nu: float, xs: np.ndarray) -> np.ndarray:
    """K_nu by its integral representation, vectorized."""
    return 0.5 * _on_grid(*_limits(nu, xs, np.arccosh), xs, _exp_pair(nu, 1.0, np.cosh))


def _y_bridge_arr(nu: float, xs: np.ndarray) -> np.ndarray:
    """Y_nu by Schlaefli's integral, vectorized."""
    def oscillating(x, th):
        return np.sin(x * np.sin(th) - nu * th)

    osc = _on_grid(np.zeros(xs.shape), np.full(xs.shape, math.pi), xs, oscillating)
    tail = _on_grid(*_limits(nu, xs, np.arcsinh), xs,
                    _exp_pair(nu, math.cos(math.pi * nu), np.sinh))
    return (osc - tail) / math.pi


def _refuse_short_expansion(name: str, nu: float, x: float, least: float) -> None:
    """Raise DomainError unless the expansion at its least argument x
    reached a term below _ASYM_REL of the leading one before its terms
    grew: that smallest term falls as x grows, so the least argument
    speaks for all."""
    if least > _ASYM_REL:
        raise DomainError(
            f"{name}: the asymptotic expansion at nu={nu}, x={x:g} stops at a "
            f"term {least:.1e} of its leading one; the order is too large for "
            f"this argument")


# A term below this cannot move K's sum or the Hankel P, which stay above
# 1/4, where half an ulp is 2.8e-17; in Q, whose sum may be small, it
# moves J and Y by less than 1e-17 absolute.
_ASYM_TINY = 1e-17
# For |c| below this share of x, a rounded step keeps |d c (1+2^-53)^2 / x| < |d|.
_GROWS = 0.999


def _asym_sums(name: str, nu: float, xb: np.ndarray, coefs: list[float],
               rows: int) -> np.ndarray:
    """The expansion in 1/x with steps d_k = d_{k-1} coefs[k-1] / x, d_0 = 1,
    each series stopped before its smallest term: row r of the result sums
    the d_k with k % rows == r.

    The steps run over a window [lo, hi) of the ascending arguments until
    every argument is done, however few are left.  An argument is done
    once its term has grown, for good, or fallen below _ASYM_TINY, and the
    window drops the done arguments at either end.  Each argument adds the
    terms of the same steps, in the same order, as a loop over all
    arguments to the last step would.  As each step rounds correctly, a
    term can grow only where |coefs[k]| >= _GROWS x, so only such steps
    test for growth, and mask the additions while a grown argument is in
    the window; and |d_k| falls weakly along the arguments, so the terms
    still >= _ASYM_TINY are a prefix of the window, found by bisection."""
    order = np.argsort(xb, kind="stable") if (xb[1:] < xb[:-1]).any() else None
    xs = xb if order is None else xb[order]
    acc = np.zeros((rows, xs.size))
    acc[0] = 1.0
    d = np.ones_like(xs)
    alive = np.ones(xs.size, dtype=bool)
    masked = False  # whether the window holds a grown argument
    least = 1.0  # the last term of xs[0] while its terms fall
    lo, hi, k = 0, xs.size, 0
    while k < len(coefs):
        test = masked or abs(coefs[k]) >= _GROWS * xs[lo]
        prev = np.abs(d) if test else None
        d *= coefs[k]
        d /= xs[lo:hi]
        k += 1
        if test:
            alive &= np.abs(d) < prev
        row = acc[k % rows, lo:hi]
        np.add(row, d, out=row, where=alive if test else True)
        if lo == 0 and alive[0]:
            least = abs(float(d[0]))
        last = d.size - bisect.bisect_left(d[::-1], _ASYM_TINY, key=abs)
        first = int(alive[:last].argmax()) if test and last else 0
        if not last or not alive[first]:
            break
        d, alive = d[first:last], alive[first:last]
        lo, hi = lo + first, lo + last
        masked = test and not alive.all()
    _refuse_short_expansion(name, nu, xs[0], least)
    if order is not None:
        acc[:, order] = acc.copy()
    return acc


def _asym_coefs(nu: float) -> list[float]:
    """(4 nu^2 - (2k-1)^2) / (8k) for the 39 steps k of the expansions."""
    mu = 4.0 * nu * nu
    return [float((mu - (2 * k - 1) ** 2) / (8.0 * k)) for k in range(1, 40)]


def _k_asym_arr(nu: float, xb: np.ndarray) -> np.ndarray:
    """The superasymptotic expansion of K_nu (DLMF 10.40.2)."""
    acc = _asym_sums("K", nu, xb, _asym_coefs(nu), 1)[0]
    return np.sqrt(0.5 * np.pi / xb) * np.exp(-xb) * acc


def _jy_hankel_arr(nu: float, xb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(J_nu, Y_nu) from the Hankel amplitude/phase expansions (DLMF
    10.17.3): P sums the even d_k and Q the odd, with signs alternating in
    each, which the steps take up by flipping the sign at even k."""
    coefs = [-c if k % 2 == 0 else c for k, c in enumerate(_asym_coefs(nu), 1)]
    p, q = _asym_sums("J/Y", nu, xb, coefs, 2)
    omega = xb - (0.5 * nu + 0.25) * np.pi
    amp = np.sqrt(2.0 / (np.pi * xb))
    cw, sw = np.cos(omega), np.sin(omega)
    return amp * (p * cw - q * sw), amp * (p * sw + q * cw)


def bessel_I(nu: float, x: float) -> float:
    """Modified Bessel function I_nu(x), x >= 0."""
    if not x >= 0:
        raise DomainError(f"bessel_I needs x >= 0, got {x}")
    return float(_ascending(nu, np.array([float(x)]), 1.0)[0])


def bessel_K(nu: float, x: float) -> float:
    """Modified Bessel function K_nu(x), x >= 1e-20; even in nu."""
    return float(k_values(nu, np.array([x]))[0])


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below
def k_values(nu: float, xs: np.ndarray) -> np.ndarray:
    """Vectorized K_nu over an array of arguments x >= 1e-20."""
    xs = _arguments("K", nu, xs)
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
    """Bessel function of the first kind J_nu(x), x >= 0."""
    if not x >= 0:
        raise DomainError(f"bessel_J needs x >= 0, got {x}")
    if x <= JY_CUT:
        return float(_ascending(nu, np.array([float(x)]), -1.0)[0])
    return float(jy_values(nu, np.array([x]))[0][0])


def bessel_Y(nu: float, x: float) -> float:
    """Weber/Neumann Bessel function of the second kind, x >= 1e-20."""
    return float(jy_values(nu, np.array([x]))[1][0])


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below
def jy_values(nu: float, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (J_nu, Y_nu) over an array of arguments x >= 1e-20; a
    negative order is reflected, J_{-mu} = cos(mu pi) J_mu - sin(mu pi) Y_mu
    and Y_{-mu} = sin(mu pi) J_mu + cos(mu pi) Y_mu (DLMF 10.4.7-10.4.8)."""
    xs = _arguments("J/Y", nu, xs)
    if nu < 0:  # mu pi taken in exact quarter turns, so cos(4.5 pi) is 0
        mu = math.fmod(-nu, 2.0)  # exact, and 2 mu stays finite
        n = round(2.0 * mu)
        rest = math.pi * (mu - 0.5 * n)
        sn, cn = math.sin(rest), math.cos(rest)
        for _ in range(n % 4):
            sn, cn = cn, -sn
        j, y = jy_values(-nu, xs)
        return cn * j - sn * y, sn * j + cn * y
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


# The 128-point Gauss-Legendre rule of _on_grid: the output of numpy's
# leggauss(128) (numpy 2.4, OpenBLAS 0.3.31, x86-64), its positive nodes
# and their weights as hex floats; the rule is symmetric.  leggauss solves
# a LAPACK eigenproblem, after which OpenBLAS's worker thread spins on
# another core for about 0.13 s, into the first calls of a fresh process.
_GL_POS = np.array([float.fromhex(h) for h in """
    0x1.908bd1a2d0b24p-7 0x1.2c598ae50f13ep-5 0x1.f4622cba66c5ep-5 0x1.5e0f1f4f6c861p-4
    0x1.c1b7987fb91e8p-4 0x1.128da12b4f582p-3 0x1.441573e1f4942p-3 0x1.756bb0492ac34p-3
    0x1.a688c9dca27fdp-3 0x1.d7653cd60ede7p-3 0x1.03fcc7a9bfafdp-2 0x1.1c1f293e1b34fp-2
    0x1.341611d1e7bdfp-2 0x1.4bddd6b5c446dp-2 0x1.6372d470c12d1p-2 0x1.7ad16f4ee5d00p-2
    0x1.91f613ee85dddp-2 0x1.a8dd37cc50acdp-2 0x1.bf8359ce0533dp-2 0x1.d5e502cbb5677p-2
    0x1.ebfec61783fd1p-2 0x1.00e6a101e3e69p-1 0x1.0ba69033c0282p-1 0x1.163d8b9083787p-1
    0x1.20a9f44b749a8p-1 0x1.2aea321b6c02bp-1 0x1.34fcb3794c554p-1 0x1.3edfeddd722ebp-1
    0x1.48925dfc11d0fp-1 0x1.521288007978bp-1 0x1.5b5ef7c72f491p-1 0x1.64764116e1ea7p-1
    0x1.6d56ffd82324dp-1 0x1.75ffd84be3f0bp-1 0x1.7e6f7740a9a6cp-1 0x1.86a49246742bep-1
    0x1.8e9de7e14d281p-1 0x1.965a3fba788d3p-1 0x1.9dd86ad03ee66p-1 0x1.a51743a44a226p-1
    0x1.ac15ae688dc0bp-1 0x1.b2d2992ab385ep-1 0x1.b94cfbfe06132p-1 0x1.bf83d923d2fb8p-1
    0x1.c5763d323e2f1p-1 0x1.cb233f3980d20p-1 0x1.d08a00e78dd91p-1 0x1.d5a9aeaa170b3p-1
    0x1.da817fceed4fep-1 0x1.df10b6a2b787ap-1 0x1.e356a08dfb8c0p-1 0x1.e752963075723p-1
    0x1.eb03fb7ab9db3p-1 0x1.ee6a3fc621396p-1 0x1.f184ddeafbf60p-1 0x1.f4535c5513770p-1
    0x1.f6d54d1685438p-1 0x1.f90a4df91ca9ep-1 0x1.faf2088e904b2p-1 0x1.fc8c3240da01bp-1
    0x1.fdd88c6700b37p-1 0x1.fed6e471f4f37p-1 0x1.ff8714b18c128p-1 0x1.ffe90c36eb6a6p-1
    0x1.9086b61d1fdc6p-6 0x1.90496d90f984fp-6 0x1.8fcee5d922baap-6 0x1.8f1731b517fbep-6
    0x1.8e226d407e074p-6 0x1.8cf0bdeed4e07p-6 0x1.8b825285bcd83p-6 0x1.89d76315ce814p-6
    0x1.87f030f206a64p-6 0x1.85cd06a5c7874p-6 0x1.836e37e970fcep-6 0x1.80d4219591213p-6
    0x1.7dff2994af96ap-6 0x1.7aefbed3b579bp-6 0x1.77a65930f4704p-6 0x1.74237969cf7b2p-6
    0x1.7067a9070830ap-6 0x1.6c737a47b39acp-6 0x1.6847880ad9bc1p-6 0x1.63e475b7c34e6p-6
    0x1.5f4aef24f9425p-6 0x1.5a7ba87df9f0cp-6 0x1.55775e27a7cf8p-6 0x1.503ed4a3762cbp-6
    0x1.4ad2d8715803fp-6 0x1.45343df075e81p-6 0x1.3f63e13eaf525p-6 0x1.3962a616ecdc9p-6
    0x1.333177ae480e9p-6 0x1.2cd148900e679p-6 0x1.26431278a5049p-6 0x1.1f87d62f52871p-6
    0x1.18a09b5ef54d7p-6 0x1.118e706dab987p-6 0x1.0a526a53745b3p-6 0x1.02eda46fce78cp-6
    0x1.f6c280bcbad65p-7 0x1.e75ccb9533133p-7 0x1.d7ac8485267cdp-7 0x1.c7b412119f450p-7
    0x1.b775e5ca8bc82p-7 0x1.a6f47beb09524p-7 0x1.96325af80dc15p-7 0x1.8532135d7fa34p-7
    0x1.73f63f09cb3d9p-7 0x1.628181080604ep-7 0x1.50d68518b1871p-7 0x1.3ef7ff492d874p-7
    0x1.2ce8ab89efb54p-7 0x1.1aab4d439576ap-7 0x1.0842aeeaeabcbp-7 0x1.eb63432816e71p-8
    0x1.c5f5f909a8f96p-8 0x1.a043398e0388dp-8 0x1.7a50c97551397p-8 0x1.5424775511324p-8
    0x1.2dc41acb51ef9p-8 0x1.073593cebc0abp-8 0x1.c0fd94a276188p-9 0x1.734b5ddaefd73p-9
    0x1.25607f3851ef9p-9 0x1.ae9282feba3eep-10 0x1.12274d05a32e7p-10 0x1.d735c8726349ep-12
""".split()]).reshape(2, 64)
_GL_NODES = np.concatenate([-_GL_POS[0, ::-1], _GL_POS[0]])
_GL_WEIGHTS = np.concatenate([_GL_POS[1, ::-1], _GL_POS[1]])
_GL_U, _GL_W = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS  # mapped to [0, 1]
