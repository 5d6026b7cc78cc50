"""Convergent evaluation of the series shapes behind the identities.

Bessel-kernel sums are truncated against a certified analytic tail bound
(coefficients bounded by d(n) n^w, the kernel by its Gaussian-majorant
exponential bound).  The registry sums one kernel K_nu(lam sqrt(n))
against many coefficient sequences, zero or not, so its first 4,096
values are evaluated once per (nu, lam, terms) and process and kept in a
bounded table (_kernel) that every such series reads; past them K and
the terms are formed in chunks of _HOT_DOUBLES arguments.  Algebraically
decaying sums (shifted powers, log kernels, rational Cohen tails) share
one loop, _closed_tail: it sums the kernel directly up to a head length
and completes the rest in closed form.  Each of the three expands its
kernel in 1/n beyond the head (binomially, or, for the log and Cohen
kernels, geometrically in one _geometric_tail) and hands the loop the
expansion order by order; the loop turns each order into Dirichlet-tail
values F(s) - sum_{n<=head} f(n) n^{-s} (or their log-weighted siblings,
from -F'), with F given by its zeta/L product, and stops at the first
order whose certified bound is below tol/10.  That reaches ~1e-12 where
plain truncation of exponents as low as 1.25 could not reach 1e-9.  The
tail values at the default head are kept per (spec, s) in a bounded
table (_dirichlet_tail).

Voronoi kernel integrals, int f(t) t^e kernel(c sqrt(t)) dt over
[alpha, beta] for a batch of scales c, have two regimes, split where the
expansions' certificate begins.  Small scales are Gauss-Legendre
quadrature in r = sqrt(t), whose nodes read the kernel from a piecewise
Chebyshev interpolant on one fixed partition of (0, inf): the
coefficients of K, Y and J on each piece are computed once per order and
process, a fixed page of pieces per Bessel call, and kept in a bounded
table that later calls only combine.  The rest come in closed form from
the Hankel expansions of J + iY and of K and the endpoint expansion of
each Fourier or Laplace integral, whose c-independent endpoint
derivatives are read from an FFT of the integrand on two circles, once
per (test function, interval, order, exponent) and process, kept in a
bounded table (_endpoint_expansion); no Bessel function is evaluated,
and for a real integrand the polynomials in 1/c are summed in real
arithmetic.  The sum over the triangle k + j <= 27
(Hankel order k, endpoint order j) is certified: a scale is expanded
only if every term of its last two diagonals is below 5e-14 of the
leading term, and otherwise stays with the quadrature.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .arith import (
    DivisorSumSpec,
    closed_form_F,
    closed_form_F_prime,
    coefficient_array,
)
from .bessel import (_ASYM_TINY, _HOT_DOUBLES, JY_CUT, K_ASYM_CUT, _asym_coefs, _refuse_order,
                     jy_values, k_values)
from .errors import (
    ConvergenceError,
    DivergenceError,
    DomainError,
    ExcludedParameter,
    QuadratureError,
    term_cap,
    within_budget,
)

__all__ = [
    "SeriesResult",
    "bessel_series",
    "shifted_power_series",
    "log_kernel_series",
    "cohen_tail_series",
    "adaptive_integral",
    "voronoi_kernel_values",
    "oscillatory_kernel_integrals",
    "VORONOI_VARIANTS",
]

DEFAULT_HEAD = 1000


@dataclass
class SeriesResult:
    value: complex
    terms: int
    tail_bound: float


def _bessel_tail_bound(N: int, w: float, nu: float, lam: float) -> float:
    """The logarithm of a bound on sum_{n>N} of the term bound, by integral
    comparison, or inf while the term bound has not begun to decay.

    The term bound n^{w+1+nu/2} K_nu(lam sqrt(n)) takes |f(n)| <= d(n) n^w
    <= n^{w+1}, and K_nu(y) <= 2 sqrt(pi/(2y)) exp(-y + nu^2/(2y)) from
    the integral representation with cosh t >= 1 + t^2/2 and cosh(nu t)
    <= e^{nu t}.  It is A e^{nu^2/(2 lam sqrt(t))} t^g e^{-lam sqrt(t)} with
    g = w + 3/4 + nu/2; past its peak the sum is dominated by
    2 A E int_{sqrt N}^inf u^{2g+1} e^{-lam u} du, and the remaining
    incomplete-gamma integral by its leading term over a geometric factor,
    all in logarithms, so that no power of sqrt N leaves the double range.
    """
    g = w + 0.75 + 0.5 * nu
    z = lam * math.sqrt(N)
    m = 2.0 * g + 1.0
    if z <= m + 1.0:
        return math.inf  # not yet past the decay regime
    return (math.log(4.0 * math.sqrt(0.5 * math.pi / lam)) + nu * nu / (2.0 * z)
            + 0.5 * m * math.log(N) - z - math.log(lam) - math.log1p(-m / z))


def bessel_series(spec: DivisorSumSpec, a: float, x: float, nu: float = 0.0, *,
                  tol: float = 1e-12) -> SeriesResult:
    """sum_{n>=1} f_z(n) n^{nu/2} K_nu(a sqrt(n x)), certified to tolerance.

    Sums once up to N, the first of 256, 512, ... whose analytic tail
    bound is below tol, or the term budget if that comes first.  Before
    any term is summed, raises ConvergenceError when the term bound has
    not begun to decay by the budget; DomainError when f_z(n) n^{nu/2}
    may leave the double range by N, or a, x or a sqrt(x) is not finite;
    and ConvergenceError when the bound at the budget is above tol.

    K_nu(lam sqrt(n)) for the first min(N, _HOT_DOUBLES / 2) = 4,096
    terms is read from the table _kernel and evaluated only past them,
    whatever the coefficients: a term whose f_z(n) is 0 adds exactly 0.
    The terms are formed chunk by chunk, the table's and then
    _HOT_DOUBLES each, into one array that is summed once; a chunk is
    a whole number of _on_grid's blocks, so K keeps the bits of one call.
    """
    if not (a > 0 and x > 0):
        raise DomainError("series parameters need a > 0 and x > 0")
    lam = a * math.sqrt(x)
    if not math.isfinite(lam):  # inf also where a or x is
        raise DomainError(f"series parameters need a finite a sqrt(x), got a = {a:g}, x = {x:g}")
    if not tol > 0:
        raise DomainError("tolerance must be positive")
    cap = term_cap()
    w = spec.weight_real_max

    # initial truncation estimate by doubling against the tail bound
    n_est = 256
    while _bessel_tail_bound(n_est, w, nu, lam) > math.log(tol) and n_est < cap:
        n_est *= 2
    n1 = min(n_est, cap)
    log_tail = _bessel_tail_bound(n1, w, nu, lam)
    if math.isnan(log_tail):  # its terms are inf - inf: no bound at this order and weight
        raise DomainError(f"bessel_series: no tail bound at nu = {nu:g}, weight {spec.weight:g}")
    if math.isinf(log_tail):  # only at the cap: fail before building any coefficient
        raise ConvergenceError(
            f"bessel_series: terms not yet decaying after the {cap}-term budget")
    log_peak = (w + 1.0 + 0.5 * nu) * math.log(n1)  # of n^{w+1+nu/2} >= |f_z(n) n^{nu/2}|
    if log_peak > math.log(sys.float_info.max):
        raise DomainError(f"bessel_series: terms up to n = {n1} may reach "
                          f"e^{log_peak:.4g}, outside the double range")
    if log_tail > math.log(tol):  # only at the cap
        raise ConvergenceError(f"bessel_series: tail bound 10^{log_tail / math.log(10):.1f} "
                               f"above tolerance after {n1} terms")
    cs = coefficient_array(spec, n1)[1:]
    terms = np.empty(n1, dtype=complex)
    lo, hi = 0, min(n1, _HOT_DOUBLES // 2)
    while lo < n1:  # the table's chunk, then chunks of _HOT_DOUBLES
        ns = np.arange(lo + 1, hi + 1, dtype=float)
        kv = _kernel(nu, lam, hi) if lo == 0 else k_values(nu, lam * np.sqrt(ns))
        part = terms[lo:hi]
        np.multiply(cs[lo:hi], ns ** (0.5 * nu), out=part)
        part *= kv
        lo, hi = hi, min(hi + _HOT_DOUBLES, n1)
    return SeriesResult(0j + np.sum(terms), n1, math.exp(log_tail))


@functools.lru_cache(maxsize=256)
def _kernel(nu: float, lam: float, count: int) -> np.ndarray:
    """K_nu(lam sqrt(n)) for n = 1..count, once per (nu, lam, count) and
    process, read-only; count <= _HOT_DOUBLES / 2, so the 256 entries
    hold at most 8 MB.  The _on_grid blocks start at n = 1, and a longer
    series goes on past a whole block, so these are a longer call's bits.
    Every bessel_series reads it, including those with a zero f_z(n)."""
    kv = k_values(nu, lam * np.sqrt(np.arange(1.0, count + 1)))
    kv.flags.writeable = False
    return kv


# -- closed-form Dirichlet tails ----------------------------------------


# F(s) - head is a difference of O(1) quantities: tails below this are
# double-precision noise and must not be scaled up by expansion coefficients
_TAIL_RESOLUTION = 1e-15


def _closed_tail(spec: DivisorSumSpec, shift: float, tol: float, kernel,
                 orders) -> SeriesResult:
    """sum_n f(n) kernel(n): n <= D directly, n > D by the kernel's
    expansion in 1/n, which orders(shift / D) yields order by order as
    (scale, parts, ratio).  An order is scale * sum c * value(s, log) over
    its parts (c, s, log), where value is the Dirichlet tail
    sum_{n>D} f(n) n^{-s} = F(s) - head or, with log,
    sum_{n>D} f(n) ln(n) n^{-s} = -F'(s) - head; ratio bounds how fast
    the orders after it shrink.  Up to shift 1, D = DEFAULT_HEAD and value
    reads _dirichlet_tail.  Stops at the first order whose bound is
    below tol / 10 or whose tails are below _TAIL_RESOLUTION; its bound,
    summed geometrically, bounds the rest."""
    if not tol > 0:
        raise DomainError("tolerance must be positive")
    # past shift 1 the expansion's coefficients grow like shift^m: a longer
    # head reaches the unresolvable-tail floor at a small m, which bounds
    # the noise they amplify
    length = DEFAULT_HEAD if shift <= 1.0 else max(DEFAULT_HEAD, 2500.0 * shift)
    within_budget(length, "the head of a closed-form tail")  # before ceil, which inf breaks
    D = math.ceil(length)
    coef = np.asarray(coefficient_array(spec, D)[1:], dtype=complex)
    ns = np.arange(1, D + 1, dtype=float)
    w = spec.weight_real_max

    def value(s: float, log: bool) -> complex:
        if D == DEFAULT_HEAD:
            return _dirichlet_tail(spec, D, s, log)
        return _tail_value(spec, s, log, coef, ns)

    def bound(s: float, log: bool) -> float:
        """Rigorous bound on the tail, from |f(n)| <= d(n) n^w and, with
        log, ln n <= 4 n^{1/4}."""
        if log:
            return 4.0 * bound(s - 0.25, False)
        sigma = s - w
        if sigma <= 1.0:
            return math.inf
        g = sigma / (sigma - 1.0)
        return g * D ** (1.0 - sigma) * (1.0 + math.log(D) + g)

    head_val = complex(np.sum(coef * kernel(ns)))
    tail_val = 0j
    for scale, parts, ratio in itertools.islice(orders(shift / D), 200):
        tail_bound = abs(scale) * sum(abs(c) * bound(s, log) for c, s, log in parts)
        if (tail_bound < 0.1 * tol
                or bound(min(s for _, s, _ in parts), False) < _TAIL_RESOLUTION):
            return SeriesResult(head_val + tail_val, D, tail_bound / max(1.0 - ratio, 0.5))
        tail_val += scale * sum(c * value(s, log) for c, s, log in parts)
    raise ConvergenceError("tail expansion did not settle")


def _tail_value(spec: DivisorSumSpec, s: float, log: bool, coef: np.ndarray,
                ns: np.ndarray) -> complex:
    """F(s) - sum coef ns^{-s}, with log -F'(s) - sum coef ln(ns) ns^{-s}; coef = f(ns)."""
    if log:
        coef = coef * np.log(ns)
    head = complex(np.sum(coef * ns ** (-s)))
    return (-closed_form_F_prime(spec, s) if log else closed_form_F(spec, s)) - head


@functools.lru_cache(maxsize=4096)
def _dirichlet_tail(spec: DivisorSumSpec, D: int, s: float, log: bool) -> complex:
    """_closed_tail's value(s, log) past the head D, once per (spec, D, s,
    log) and process: read at D = DEFAULT_HEAD, where it does not depend
    on the shift, and the registry asks for the same orders point after point."""
    return _tail_value(spec, s, log, np.asarray(coefficient_array(spec, D)[1:], dtype=complex),
                       np.arange(1, D + 1, dtype=float))


def _refuse_integer(value: float, name: str) -> None:
    """Refuse a non-finite value, or a pole: one within 1e-6 of a positive integer."""
    if not math.isfinite(value):
        raise DomainError(f"{name} = {value} must be finite")
    if abs(value - round(value)) <= 1e-6 and round(value) >= 1:
        raise ExcludedParameter(f"{name} = {value:.6g} must not be a positive integer")


def shifted_power_series(spec: DivisorSumSpec, p: float, c: float, *,
                         difference_form: bool = False, tol: float = 1e-12) -> SeriesResult:
    """sum_n f_z(n)/(n+c)^p, or sum_n f_z(n)(n^{-p} - (n+c)^{-p}).

    Head terms are summed directly; beyond the head the kernel is expanded
    binomially in c/n, (1 + c/n)^{-p} = sum_m b_m (c/n)^m, and each
    power sum is completed by the closed-form Dirichlet tail.
    """
    w = spec.weight_real_max
    if not 0.0 <= c < math.inf:
        raise DomainError(f"shift c must be >= 0 and finite, got {c}")
    need = w if difference_form else w + 1.0
    if p <= need + 1e-12:
        raise DivergenceError(
            f"shifted_power_series diverges: p={p} too small for weight bound {w}")
    sign = -1.0 if difference_form else 1.0

    def kernel(ns):
        return ns ** (-p) - (ns + c) ** (-p) if difference_form else (ns + c) ** (-p)

    def orders(t):
        b = cm = 1.0
        for m in itertools.count():
            if m or not difference_form:  # n^{-p} cancels the m = 0 order
                yield b * cm, [(sign, p + m, False)], t * (p + m + 1) / (m + 1)
            b *= -(p + m) / (m + 1)
            cm *= c

    return _closed_tail(spec, c, tol, kernel, orders)


def _geometric_tail(spec: DivisorSumSpec, Q: float, delta: int, exact, expansion, parts,
                    tol: float) -> SeriesResult:
    """sum_n f(n) g(n) / n^delta for a kernel g with a removable singularity
    at n = Q: exact(n), but expansion((n - Q)/Q) for n within 1e-3 max(1, Q)
    of Q.  Beyond the head, g(n) n^{-delta} = sum_m Q^{2m} sum of
    c n^{-s} (or, with log, c ln(n) n^{-s}) over parts(s) = [(c, s, log)],
    s = 2m + 2 + delta: the geometric expansion in (Q/n)^2."""
    def kernel(ns):
        g = np.empty(ns.shape)
        near = np.abs(ns - Q) < 1e-3 * max(1.0, Q)
        g[~near] = exact(ns[~near])
        if near.any():
            g[near] = expansion((ns[near] - Q) / Q)
        return g / ns ** delta

    def orders(t):
        q2m = 1.0
        for m in itertools.count():
            yield q2m, parts(2.0 * m + 2.0 + delta), t ** 2
            q2m *= Q * Q

    return _closed_tail(spec, Q, tol, kernel, orders)


def log_kernel_series(spec: DivisorSumSpec, c: float, *, over_n: bool = False,
                      tol: float = 1e-12) -> SeriesResult:
    """sum_n f(n) log(n/c) / (n^2 - c^2), optionally with an extra 1/n.

    c within 1e-6 of a positive integer is excluded (the summand has a
    pole there); terms with n near c switch to the removable-singularity
    expansion.  Beyond the head the kernel is expanded geometrically in
    (c/n)^2.
    """
    if c <= 0:
        raise DomainError("log_kernel_series needs c > 0")
    _refuse_integer(c, "log-kernel parameter c")
    delta = 1 if over_n else 0
    if spec.weight_real_max >= 1.0 + delta:
        raise DivergenceError("log_kernel_series needs weight below 1 + delta")
    logc = math.log(c)
    return _geometric_tail(
        spec, c, delta, lambda n: np.log(n / c) / (n ** 2 - c * c),
        # log(1+u)/u / (c^2 (2+u)), series in u
        lambda u: (1.0 - u / 2 + u ** 2 / 3 - u ** 3 / 4 + u ** 4 / 5 - u ** 5 / 6)
        / (c * c * (2.0 + u)),
        lambda s: [(1.0, s, True), (-logc, s, False)], tol)


def cohen_tail_series(spec: DivisorSumSpec, w: float, Q: float, *, over_n: bool = False,
                      tol: float = 1e-12) -> SeriesResult:
    """sum_n f(n) (n^w - Q^w)/(n^2 - Q^2), optionally with an extra 1/n.

    Terms decay like n^{w - 2 - [1/n]}, so w must leave that below -1;
    otherwise the series diverges and DivergenceError is raised.  A Q^w
    outside the double range raises DomainError.  Q within 1e-6 of a
    positive integer is excluded; near-coincident n uses the
    difference-quotient expansion.  Beyond the head the kernel is
    expanded geometrically in (Q/n)^2.
    """
    if Q <= 0:
        raise DomainError("cohen_tail_series needs Q > 0")
    _refuse_integer(Q, "tail parameter Q")
    delta = 1 if over_n else 0
    if w + spec.weight_real_max - 2.0 - delta >= -1.0 - 1e-12:
        raise DivergenceError(f"cohen tail diverges: exponent {w} too large")
    if w * math.log(Q) >= math.log(sys.float_info.max):  # Q < 1 with w far below 0
        raise DomainError(f"cohen_tail_series: Q^w = {Q:.6g}^{w:.6g} is outside the double range")
    Qw = Q ** w
    binoms = np.cumprod((w - np.arange(6)) / np.arange(1, 7))  # (w choose j), j <= 6
    return _geometric_tail(
        spec, Q, delta, lambda n: (n ** w - Qw) / (n ** 2 - Q * Q),
        # ((1+u)^w - 1)/u / (Q^{2-w} (2+u)) by the binomial series near n = Q
        lambda u: Q ** (w - 2.0) * sum(b * u ** i for i, b in enumerate(binoms)) / (2.0 + u),
        lambda s: [(1.0, s - w, False), (-Qw, s, False)], tol)


# -- quadrature ----------------------------------------------------------


# bisection levels adaptive_integral may take before QuadratureError
_MAX_DEPTH = 28

# The 16-point Gauss-Legendre rule of adaptive_integral and of the
# Voronoi panels: the output of numpy's leggauss(16), its positive nodes
# and their weights as hex floats; the rule is symmetric.  Held as a
# table for the reason bessel holds its 128-point rule, and so that
# numpy.polynomial is not imported.
_PANEL_POS = np.array([float.fromhex(h) for h in """
    0x1.852bd6676a9f9p-4 0x1.205cae642337cp-2 0x1.d50259a43a772p-2 0x1.3c5a466d5e8b8p-1
    0x1.82c45dda4726bp-1 0x1.bb3403514e483p-1 0x1.e39f56616f9b0p-1 0x1.fa92c264d787ep-1
    0x1.83feae80e4e01p-3 0x1.75f8c77e0c011p-3 0x1.5a6ebbb5a7600p-3 0x1.325f61bca3cbep-3
    0x1.fe7af2bad3878p-4 0x1.85c4ee79cc24bp-4 0x1.fdfb1a2c1261ep-5 0x1.bcddab4b7c228p-6
""".split()]).reshape(2, 8)
_PANEL_X = np.concatenate([-_PANEL_POS[0, ::-1], _PANEL_POS[0]])
_PANEL_W = np.concatenate([_PANEL_POS[1, ::-1], _PANEL_POS[1]])


def adaptive_integral(f: Callable[[np.ndarray], np.ndarray], alpha: float, beta: float,
                      tol: float = 1e-10) -> float:
    """Integral of f over [alpha, beta] by adaptive bisection of the
    16-point Gauss-Legendre rule, f taking a rule's 16 nodes as one array:
    an interval [a, b] contributes the rule summed over its halves once
    that sum and the rule on [a, b] differ by at most
    tol (b - a)/(beta - alpha), or not at all."""
    if not -math.inf < alpha < beta < math.inf:
        raise DomainError(f"quadrature needs finite alpha < beta, got [{alpha}, {beta}]")
    if not tol > 0:
        raise DomainError("tolerance must be positive")
    total_len = beta - alpha

    def rule(a: float, b: float) -> float:
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        vals = f(mid + half * _PANEL_X)
        if not np.all(np.isfinite(vals)):
            raise DomainError("integrand not finite on the interval")
        if np.shape(vals) != _PANEL_X.shape:
            raise DomainError(f"the integrand must give one value per node: {_PANEL_X.size} "
                              f"nodes gave shape {np.shape(vals)}")
        return half * float(np.dot(_PANEL_W, vals))

    acc = 0.0
    stack = [(alpha, beta, rule(alpha, beta), 0)]
    while stack:
        a, b, whole, depth = stack.pop()
        mid = 0.5 * (a + b)
        left, right = rule(a, mid), rule(mid, b)
        err = abs(left + right - whole)
        if err <= tol * (b - a) / total_len or err == 0.0:
            acc += left + right
        elif depth >= _MAX_DEPTH:
            raise QuadratureError(
                f"subdivision limit reached on [{a}, {b}] (err {err:.2e})")
        else:
            stack.append((a, mid, left, depth + 1))
            stack.append((mid, b, right, depth + 1))
    return acc


# -- Voronoi kernels ------------------------------------------------------

# variant -> (main trig is cos, sign of Y, sign of the J term)
# kernel = (2/pi K + ys*Y) * trig(pi nu/2) + js * J * cotrig(pi nu/2)
VORONOI_VARIANTS: dict[str, tuple[bool, float, float]] = {
    "even-cos": (True, -1.0, -1.0),
    "odd-sin": (False, -1.0, +1.0),
    "plus-y-sin": (False, +1.0, -1.0),
    "plus-y-cos": (True, +1.0, +1.0),
}


def _variant_coefs(variant: str, nu: float) -> tuple[float, float, float]:
    try:
        main_is_cos, ys, js = VORONOI_VARIANTS[variant]
    except KeyError:
        raise DomainError(f"unknown Voronoi kernel variant {variant!r}") from None
    _refuse_order(nu)
    a = 0.5 * math.pi * nu
    if not math.isfinite(a):  # |nu| above about 1.14e308
        raise DomainError(f"the Voronoi kernel's phase pi nu / 2 is not finite at nu = {nu}")
    main = math.cos(a) if main_is_cos else math.sin(a)
    cotrig = math.sin(a) if main_is_cos else math.cos(a)
    return main, ys, js * cotrig


def voronoi_kernel_values(variant: str, nu: float, us: np.ndarray) -> np.ndarray:
    """The theorem-specific combination of K, Y, J at each argument u > 0."""
    main, ys, jc = _variant_coefs(variant, nu)
    us = np.asarray(us, dtype=float)
    if not np.all(us > 0):
        raise DomainError("voronoi_kernel_values needs u > 0")
    j, y = jy_values(nu, us)
    k = k_values(nu, us)
    return ((2.0 / math.pi) * k + ys * y) * main + jc * j


# each panel of the r-grid spans at most 16 radians of kernel phase, so
# the 16-point rule takes one node per radian.  Against panels of 4
# radians, over the registered test functions, intervals and orders, at
# every scale below least_scale where each panel spans the full phase,
# the error is below 2e-15 of the integral of the integrand's envelope
# |f(t) t^e| (c sqrt(t))^{-1/2}; at 20 radians it reaches 3e-13.
_PHASE_PER_PANEL = 16.0
# scales per shared grid
_PANEL_BLOCK = 512
# The panels read the kernel from a piecewise Chebyshev interpolant with
# _CHEB_POINTS points of the first kind per piece.  The pieces are fixed:
# [2^k, 2^(k+1)] below _CHEB_WIDTH, those between the _CHEB_HEAD edges,
# then _CHEB_WIDTH steps.  A piece is no wider than _CHEB_WIDTH or its
# left end, so the singularity of K and Y at u = 0 is a full width away
# and the coefficients fall geometrically (Trefethen, Approximation
# Theory and Approximation Practice, ch. 8); no piece straddles a branch
# seam of bessel (JY_CUT, K_ASYM_CUT), across which the kernel values are
# smooth only to their rounding.  The pieces narrow into JY_CUT, below
# which J's ascending series carries its e^u eps cancellation: with
# [8, 14] as one piece, the t2 (1.3, 5.7) odd-sin oracle point at
# c sqrt(alpha) = 13 erred by 4.36e-13 against its 1e-13 bound.
_CHEB_WIDTH = 8.0
_CHEB_HEAD = (_CHEB_WIDTH, JY_CUT - 2.0, JY_CUT - 1.0, JY_CUT, 2.0 * _CHEB_WIDTH, K_ASYM_CUT,
              3.0 * _CHEB_WIDTH)
_CHEB_POINTS = 25
_CHEB_THETA = math.pi * (np.arange(_CHEB_POINTS) + 0.5) / _CHEB_POINTS
_CHEB_X = np.cos(_CHEB_THETA)
# the DCT-II: coefficient k of a piece is sum_j _CHEB_DCT[k, j] * value_j
_CHEB_DCT = (2.0 / _CHEB_POINTS) * np.cos(np.outer(np.arange(_CHEB_POINTS), _CHEB_THETA))
_CHEB_DCT[0] *= 0.5


def _piece_left(i: int) -> float:
    """The left end of fixed piece i, which ends where piece i + 1 begins;
    the pieces below _CHEB_WIDTH have negative i."""
    if i < 0:
        return math.ldexp(_CHEB_WIDTH, i)
    if i < len(_CHEB_HEAD):
        return _CHEB_HEAD[i]
    return _CHEB_HEAD[-1] + _CHEB_WIDTH * (i - len(_CHEB_HEAD) + 1)


def _piece_of(u: float) -> int:
    """The fixed piece [_piece_left(i), _piece_left(i + 1)) that holds u > 0."""
    if u < _CHEB_WIDTH:
        return math.frexp(u / _CHEB_WIDTH)[1] - 1
    if u < _CHEB_HEAD[-1]:
        return bisect.bisect_right(_CHEB_HEAD, u) - 1
    return len(_CHEB_HEAD) - 1 + int((u - _CHEB_HEAD[-1]) // _CHEB_WIDTH)


# The coefficients are computed a page of pieces at a time, from one call
# per function over all the page's points: a jy_values call costs about
# as much as 30 more points below JY_CUT, or 1,000 more beyond
# K_ASYM_CUT.  Page 0 holds the pieces on [_CHEB_WIDTH / 4, 88], most of
# a laboratory range (c sqrt(alpha) from 1.5 to 6.5 up to 35 to 105); the
# pages below it are two octaves, those above it _PAGE_PIECES pieces.
# The pages are fixed, so a piece's values do not depend on which pieces
# an earlier call left in the table: _on_grid rounds an argument's row
# by its place in the block.
_PAGE_PIECES = 16
# pages in the table, 9.6 kB each; a wider range evicts its own first
# pages, which a later call computes again to the same bits
_PAGE_TABLE = 512


def _page_of(i: int) -> int:
    """The page that holds fixed piece i."""
    return (i + 2) // (2 if i < -2 else _PAGE_PIECES)


def _page_span(page: int) -> tuple[int, int]:
    """The first piece of a page and the number of its pieces."""
    if page < 0:
        return 2 * page - 2, 2
    return _PAGE_PIECES * page - 2, _PAGE_PIECES


@functools.lru_cache(maxsize=_PAGE_TABLE)
def _page_coefs(nu: float, page: int) -> np.ndarray:
    """coefs[v, k, p], read-only: the coefficient of T_k of (2/pi) K_nu (v =
    0), Y_nu (1) and J_nu (2) on piece p of the page, once per order and
    process, from one call per function at all the page's points."""
    first, count = _page_span(page)
    edges = np.array([_piece_left(first + p) for p in range(count + 1)])
    us = (0.5 * (edges[1:] + edges[:-1])[:, None]
          + 0.5 * (edges[1:] - edges[:-1])[:, None] * _CHEB_X).ravel()
    j, y = jy_values(nu, us)
    values = np.stack([(2.0 / math.pi) * k_values(nu, us), y, j]).reshape(3, count, _CHEB_POINTS)
    coefs = np.einsum("kj,vpj->vkp", _CHEB_DCT, values)
    coefs.flags.writeable = False
    return coefs


class _KernelInterpolant:
    """voronoi_kernel_values(variant, nu, u) for u in [lo, hi], 0 < lo < hi
    < inf, on the fixed pieces that cover it, from the per-order table of
    their K, Y and J coefficients (_page_coefs)."""

    def __init__(self, variant: str, nu: float, lo: float, hi: float):
        if not 0.0 < lo < hi < math.inf:
            raise DomainError(f"the kernel interpolant needs 0 < lo < hi < inf, got [{lo}, {hi}]")
        main, ys, jc = _variant_coefs(variant, nu)
        first = _piece_of(lo)
        edges = [_piece_left(first)]
        while edges[-1] < hi:
            edges.append(_piece_left(first + len(edges)))
        self.edges = np.array(edges)
        self._mid = 0.5 * (self.edges[1:] + self.edges[:-1])
        self._inv_half = 2.0 / (self.edges[1:] - self.edges[:-1])
        count = len(edges) - 1
        pages = range(_page_of(first), _page_of(first + count - 1) + 1)
        skip = first - _page_span(pages[0])[0]
        k, y, j = np.concatenate([_page_coefs(nu, g) for g in pages],
                                 axis=-1)[..., skip:skip + count]
        # coefs[k, p]: coefficient of T_k on piece p
        self.coefs = (k + ys * y) * main + jc * j

    def __call__(self, us: np.ndarray) -> np.ndarray:
        """The interpolant at each u, by Clenshaw's recurrence on its piece,
        in one pass over us: _panel_integrals passes one chunk of
        _HOT_DOUBLES values at a time (or one scale's nodes, if more)."""
        p = np.clip(np.searchsorted(self.edges, us, side="right") - 1, 0, self._mid.size - 1)
        x = (us - self._mid[p]) * self._inv_half[p]
        x2 = 2.0 * x
        b1 = b2 = np.zeros(us.size)
        for k in range(_CHEB_POINTS - 1, 0, -1):
            b1, b2 = self.coefs[k, p] + x2 * b1 - b2, b1
        return self.coefs[0, p] + x * b1 - b2


def _panel_integrals(f, alpha: float, beta: float, nu: float, cs: np.ndarray,
                     t_exponent: float, variant: str) -> np.ndarray:
    """The integrals of oscillatory_kernel_integrals by quadrature.

    Substituting r = sqrt(t) makes the kernel phase linear in r, so fixed
    Gauss-Legendre panels sized by the phase derivative integrate each
    oscillation to near machine precision.  Each block of _PANEL_BLOCK
    scales shares one grid (sized for its largest scale) and the
    non-kernel integrand factors on it; its kernel matrix is read from
    one _KernelInterpolant over every node of every scale, which combines
    the tabled coefficients of its fixed pieces, so J, Y and K are
    evaluated _CHEB_POINTS times per piece and order in a process, not
    per node and scale, and einsum sums each row against the shared
    factors on the calling thread (see identities._riesz_mean).
    """
    ra, rb = math.sqrt(alpha), math.sqrt(beta)
    kernel = _KernelInterpolant(variant, nu, float(cs.min()) * ra, float(cs.max()) * rb)
    out = np.empty(cs.size)
    for lo in range(0, cs.size, _PANEL_BLOCK):
        block = cs[lo:lo + _PANEL_BLOCK]
        panels = max(2, int(math.ceil(float(block.max()) * (rb - ra) / _PHASE_PER_PANEL)))
        edges = np.linspace(ra, rb, panels + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        r = (mid[:, None] + half[:, None] * _PANEL_X[None, :]).ravel()
        t = r * r
        shared = (half[:, None] * _PANEL_W[None, :]).ravel() * f(t) * t ** t_exponent * 2.0 * r
        rows = max(1, _HOT_DOUBLES // r.size)
        for i in range(0, block.size, rows):
            part = block[i:i + rows]
            kern = kernel(np.outer(part, r).ravel())
            out[lo + i:lo + i + part.size] = np.einsum(
                "ij,j->i", kern.reshape(part.size, r.size), shared)
    return out


# the expansions sum the triangle k + j <= _HANKEL_ORDER (Hankel order k,
# endpoint order j); they serve a scale only if every term on its last
# two diagonals is below _HANKEL_REL of the leading term there
_HANKEL_ORDER = 27
_HANKEL_REL = 5e-14
# points on each Cauchy circle; the circle's radius is half the distance
# to the branch point r = 0, so aliasing scales a coefficient by 2^-64
_CAUCHY_POINTS = 64


class _EndpointExpansion:
    """The integrals of oscillatory_kernel_integrals in closed form, for
    large scales c.

    The kernel is main (2/pi) K_nu(c r) + Re[C H1_nu(c r)],
    C = jc - i main ys.  H1_nu(u) = sqrt(2/pi) e^{-i phi}
    sum_k i^k a_k(nu) u^{-k-1/2} e^{iu} (DLMF 10.17.5), and K_nu has the
    same a_k: (2/pi) K_nu(u) = sqrt(2/pi) sum_k a_k(nu) u^{-k-1/2} e^{-u}
    (DLMF 10.40.2).  With h_k(r) = 2 f(r^2) r^{2e + 1/2 - k}, each term is
    c^{-k-1/2} times int h_k(r) e^{icr} dr or int h_k(r) e^{-cr} dr over
    [sqrt(alpha), sqrt(beta)], whose endpoint series are
    sum_j (-1)^j (ic)^{-j-1} [h_k^{(j)}(r) e^{icr}] and
    sum_j -c^{-j-1} [h_k^{(j)}(r) e^{-cr}] (integration by parts).
    The derivatives do not depend on c: they come once, from the FFT of
    h_k on a circle of radius sqrt(alpha)/2 about each endpoint (Cauchy's
    formula).  Term (k, j) carries c^{-k-j-3/2}, times i^{k+j-1} for
    J + iY, so each endpoint's triangle k + j <= L is a polynomial in
    1/c, and a scale costs O(L) flops.  Its coefficients are real for a
    real f, so J + iY's odd and even orders are the real and imaginary
    parts of its polynomial, summed together by one real Horner loop in
    1/c^2, and K's is real.  A block of scales sums only the
    orders whose terms matter at its least scale, fewer as c grows, and
    K's only while e^{-c sqrt(alpha)} leaves them any weight.

    The certificate: the largest term of each of the last two diagonals,
    k + j = L - 1 and L, over the leading term falls like c^{-L+1} or
    c^{-L}, and both are below _HANKEL_REL from least_scale on; K's
    terms are the same times e^{-cr} <= 1.  One diagonal alone is not
    enough: for gauss on (1.3, 5.7) at nu = 0.25, e = -0.125 the odd one
    is 10 times smaller than its neighbours, and with it alone at 1e-13
    the sum's error at least_scale was 1.3e-12 of lead c^{-3/2}, lead
    the largest |h_0| at an end.  With two at 5e-14, the
    error at least_scale is at most 4.4e-14 of lead c^{-3/2} (against
    fine panels) for each of exp, t2, gauss, t, one and t3 on (0.5, 3.4)
    and (1.3, 5.7) at the three (nu, e) of the tests.
    least_scale is infinite unless f is finite and the FFT resolves it:
    the mean of h_0 over each circle must match its value at the centre to
    1e-13 of its largest value there.  That fails for a test function that
    is not analytic, cannot take complex arguments, or grows too fast on
    the circle for the M points (gauss from alpha of about 5 on).
    """

    @np.errstate(over="ignore", invalid="ignore")  # an order whose a_k leave the double range
    def __init__(self, f, alpha: float, beta: float, nu: float, t_exponent: float):
        L, M = _HANKEL_ORDER, _CAUCHY_POINTS
        self.nu = nu
        self.ends = np.sqrt([alpha, beta])
        radius = 0.5 * self.ends[0]
        z = self.ends[:, None] + radius * np.exp(2j * math.pi * np.arange(M) / M)
        ks = np.arange(L + 1)
        h = 2.0 * f(z * z) * np.exp((2.0 * t_exponent + 0.5 - ks[:, None, None]) * np.log(z))
        factorials = np.cumprod(np.maximum(ks, 1.0))
        # deriv[k, e, j] = h_k^{(j)} at end e
        deriv = np.fft.fft(h, axis=-1)[..., :L + 1] * (factorials / (M * radius ** ks))
        h_ends = 2.0 * f(self.ends ** 2) * self.ends ** (2.0 * t_exponent + 0.5)
        hankel = np.cumprod(np.r_[1.0, _asym_coefs(nu)[:L]])
        # sums[e, n] = sum_{k + j = n} a_k h_k^{(j)}(end e), real for a real f:
        # the coefficients of K's polynomial in x = 1/c at end e.  Those of
        # J + iY are i^{n-1} sums[e, n]: with y = x^2 its real part is
        # x sum_m (-1)^m sums[e, 2m+1] y^m and its imaginary part
        # -sum_m (-1)^m sums[e, 2m] y^m; jy[:, m] holds the coefficients of
        # y^m, of the real parts at each end, then of the imaginary parts
        sums = np.zeros((2, L + 1), dtype=complex)
        for k in ks:
            sums[:, k:] += hankel[k] * deriv[k, :, :L + 1 - k]
        self.sums = sums.real
        signs = (-1.0) ** np.arange((L + 2) // 2)
        self.jy = np.concatenate([self.sums[:, 1::2], -self.sums[:, 0::2]]) * signs
        self.sizes = np.max(np.abs(self.sums), axis=0)
        self._powers = -ks.astype(float)
        # lasts[i] = max |a_k h_k^{(j)}| over both ends and k + j = diag[i]
        # (j = -1, which diag L - 1 meets at k = L, is masked out)
        diag = np.array([[L - 1], [L]])
        terms = np.abs(hankel[:, None] * deriv[ks, :, diag - ks])
        lasts = np.max(np.where((ks <= diag)[..., None], terms, 0.0), axis=(1, 2))
        self.lead = np.max(np.abs(h_ends))
        resolved = (np.all(np.isfinite(deriv)) and np.all(np.isfinite(self.sums))
                    and np.all(np.isfinite(h_ends)) and self.lead > 0
                    and np.max(np.abs(deriv[0, :, 0] - h_ends)) <= 1e-13 * np.max(np.abs(h[0])))
        self.least_scale = max((last / (_HANKEL_REL * self.lead)) ** (1.0 / n)
                               for n, last in zip((L - 1, L), lasts)) if resolved else math.inf

    def _orders(self, c: float, damping: float = 1.0) -> int:
        """How many leading orders of the series in 1/c matter from scale c
        on: those after them, times damping, sum to below _ASYM_TINY of
        the leading term there, and so do at every larger scale."""
        terms = self.sizes * damping * c ** self._powers
        after = np.cumsum(terms[::-1])[::-1]  # after[n] = sum of terms from n on
        return int(np.count_nonzero(after >= _ASYM_TINY * self.lead))

    def integrals(self, cs: np.ndarray, variant: str) -> np.ndarray:
        """The integrals at scales cs, all at least least_scale; a smaller
        one would return a truncated sum and raises DomainError."""
        main, ys, jc = _variant_coefs(variant, self.nu)
        if float(cs.min()) < self.least_scale:
            raise DomainError(
                f"the Hankel endpoint expansion is not certified at scale {cs.min():g}: "
                f"it holds from {self.least_scale:g} on")
        phi = (0.5 * self.nu + 0.25) * math.pi
        lead = ((jc - 1j * main * ys) * math.sqrt(2.0 / math.pi)
                * complex(math.cos(phi), -math.sin(phi)))
        k_lead = main * math.sqrt(2.0 / math.pi)
        out = np.empty(cs.size)
        # in blocks whose (4 x scales) temporaries hold _HOT_DOUBLES, each
        # summing only the orders that matter at its least scale, rounded
        # up to whole pairs of J + iY's, and K's only while any matter
        for lo in range(0, cs.size, _HOT_DOUBLES // 4):
            c = cs[lo:lo + _HOT_DOUBLES // 4]
            x, least = 1.0 / c, float(c.min())
            re, im = self._horner(self.jy[:, :(self._orders(least) + 1) // 2],
                                  x * x).reshape(2, 2, -1)
            re *= x
            # Re[lead (re + i im) e^{i c r}] at each end, upper end less lower
            theta = np.outer(self.ends, c)
            a, b = lead.real * re - lead.imag * im, lead.real * im + lead.imag * re
            total = a * np.cos(theta) - b * np.sin(theta)
            total = total[1] - total[0]
            k_orders = self._orders(least, math.exp(-least * self.ends[0]))
            if k_orders:
                k = self._horner(self.sums[:, :k_orders], x) * np.exp(-np.outer(self.ends, c))
                total -= k_lead * (k[1] - k[0])
            out[lo:lo + c.size] = total * (x * np.sqrt(x))
        return out

    @staticmethod
    def _horner(coefs: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Each row's polynomial in x, one row of values per row of coefs."""
        acc = np.zeros((coefs.shape[0], x.size))
        for n in range(coefs.shape[1] - 1, -1, -1):
            acc *= x
            acc += coefs[:, n, None]
        return acc


# one endpoint expansion per (f, alpha, beta, nu, exponent) and process: the
# Voronoi stages repeat them round after round and record after record
_endpoint_expansion = functools.lru_cache(maxsize=64)(_EndpointExpansion)


def oscillatory_kernel_integrals(f: Callable[[np.ndarray], np.ndarray],
                                 alpha: float, beta: float, nu: float,
                                 cs: np.ndarray, t_exponent: float,
                                 variant: str) -> np.ndarray:
    """integral of f(t) t^{t_exponent} kernel(c sqrt(t)) over [alpha, beta]
    for each kernel scale c > 0 in cs, 0 < alpha < beta, f real on the real
    axis.

    Two regimes, split at the expansions' least_scale alone:
    * Gauss-Legendre panels in r = sqrt(t) (_panel_integrals), whose
      kernel values come from a piecewise Chebyshev interpolant on fixed
      pieces: one J, Y and K per interpolation point, once per piece and
      order in a process (the table _page_coefs), and a Clenshaw
      recurrence per node and scale;
    * from least_scale on, the Hankel expansions of J + iY and of K and
      the endpoint expansions (_EndpointExpansion), which evaluate no
      Bessel function: f is read on two circles once per argument tuple
      and process (_endpoint_expansion; per call for an f that cannot be
      hashed), and each scale then costs O(L) flops.  least_scale is
      where their certificate begins (last two diagonals below 5e-14 of
      the leading term): c sqrt(alpha) of about 17 to 40 for the
      registered test functions, intervals and orders.
    f must accept complex arrays.  Where its values there are not the
    analytic continuation of f (it drops the imaginary part, say), every
    scale stays with the quadrature.
    """
    if not 0.0 < alpha < beta < math.inf:
        raise DomainError("oscillatory_kernel_integrals needs 0 < alpha < beta < inf")
    _variant_coefs(variant, nu)  # refuses an unknown variant or order before any work
    cs = np.asarray(cs, dtype=float)
    bad = cs[~(np.isfinite(cs) & (cs > 0))]
    if not math.isfinite(t_exponent) or bad.size:
        raise DomainError("oscillatory_kernel_integrals needs a finite t_exponent and scales "
                          f"> 0, got t_exponent = {t_exponent}, scale(s) {bad[:3].tolist()}")
    try:
        expansion = _endpoint_expansion(f, alpha, beta, nu, t_exponent)
    except TypeError:  # f cannot be hashed
        expansion = _EndpointExpansion(f, alpha, beta, nu, t_exponent)
    out = np.zeros(cs.size)
    far = cs >= expansion.least_scale
    if far.any():
        out[far] = expansion.integrals(cs[far], variant)
    near = ~far
    if near.any():
        out[near] = _panel_integrals(f, alpha, beta, nu, cs[near], t_exponent, variant)
    return out
