"""Convergent evaluation of the series shapes behind the identities.

Bessel-kernel sums are truncated against a certified analytic tail bound
(coefficients bounded by d(n) n^w, the kernel by its Gaussian-majorant
exponential bound).  Algebraically decaying sums (shifted powers, log
kernels, rational Cohen tails) share one loop, _closed_tail: it sums the
kernel directly up to a head length and completes the rest in closed
form.  Each of the three expands its kernel in 1/n beyond the head
(binomially or geometrically) and hands the loop the expansion order by
order; the loop turns each order into Dirichlet-tail values
F(s) - sum_{n<=head} f(n) n^{-s} (or their log-weighted siblings, from
-F'), with F given by its zeta/L product, and stops at the first order
whose certified bound is below tol/10.  That reaches ~1e-12 where plain
truncation of exponents as low as 1.25 could not reach 1e-9.

Voronoi kernel integrals, int f(t) t^e kernel(c sqrt(t)) dt over
[alpha, beta] for a batch of scales c, have two regimes, split where the
expansions' certificate begins.  Small scales are Gauss-Legendre
quadrature in r = sqrt(t), which evaluates J, Y and K at every node.
The rest come in closed form from the Hankel expansions of J + iY and of
K and the endpoint expansion of each Fourier or Laplace integral, whose
c-independent endpoint derivatives are read once from an FFT of the
integrand on two circles; no Bessel function is evaluated.  The sum over
the triangle k + j <= 27 (Hankel order k, endpoint order j) is
certified: a scale is expanded only if every term of its last two
diagonals is below 5e-14 of the leading term, and otherwise stays with
the quadrature.
"""

from __future__ import annotations

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
from .bessel import _ASYM_TINY, jy_values, k_values
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
                  tol: float = 1e-12, rel_tol: float = 1e-12) -> SeriesResult:
    """sum_{n>=1} f_z(n) n^{nu/2} K_nu(a sqrt(n x)), certified to tolerance.

    Sums once up to N, the first of 256, 512, ... whose analytic tail
    bound is below tol, or the term budget if that comes first.  Raises
    ConvergenceError if the bound at N is above max(tol, rel_tol * |sum|),
    which can only happen at the budget, and before any term is summed
    when the term bound has not begun to decay by the budget; DomainError,
    also before, when f_z(n) n^{nu/2} may leave the double range by N.
    """
    if not (a > 0 and x > 0):
        raise DomainError("series parameters need a > 0 and x > 0")
    if not tol > 0:
        raise DomainError("tolerance must be positive")
    cap = term_cap()
    lam = a * math.sqrt(x)
    w = spec.weight_real_max

    # initial truncation estimate by doubling against the tail bound
    n_est = 256
    while _bessel_tail_bound(n_est, w, nu, lam) > math.log(tol) and n_est < cap:
        n_est *= 2
    n1 = min(n_est, cap)
    log_tail = _bessel_tail_bound(n1, w, nu, lam)
    if math.isinf(log_tail):  # only at the cap: fail before building any coefficient
        raise ConvergenceError(
            f"bessel_series: terms not yet decaying after the {cap}-term budget")
    log_peak = (w + 1.0 + 0.5 * nu) * math.log(n1)  # of n^{w+1+nu/2} >= |f_z(n) n^{nu/2}|
    if log_peak > math.log(sys.float_info.max):
        raise DomainError(f"bessel_series: terms up to n = {n1} may reach "
                          f"e^{log_peak:.4g}, outside the double range")
    cs = coefficient_array(spec, n1)[1:]
    ns = np.arange(1, n1 + 1, dtype=float)
    acc = 0j
    mask = cs != 0
    if mask.any():
        kv = np.zeros_like(ns)
        kv[mask] = k_values(nu, lam * np.sqrt(ns[mask]))
        acc += np.sum(cs * ns ** (0.5 * nu) * kv)
    if log_tail <= math.log(max(tol, rel_tol * abs(acc))):
        return SeriesResult(acc, n1, math.exp(log_tail))
    raise ConvergenceError(f"bessel_series: tail bound 10^{log_tail / math.log(10):.1f} "
                           f"above tolerance after {n1} terms")


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
    the orders after it shrink.  Stops at the first order whose bound is
    below tol / 10 or whose tails are below _TAIL_RESOLUTION; its bound,
    summed geometrically, bounds the rest."""
    # past shift 1 the expansion's coefficients grow like shift^m: a longer
    # head reaches the unresolvable-tail floor at a small m, which bounds
    # the noise they amplify
    length = DEFAULT_HEAD if shift <= 1.0 else max(DEFAULT_HEAD, 2500.0 * shift)
    within_budget(length, "the head of a closed-form tail")  # before ceil, which inf breaks
    D = math.ceil(length)
    coef = coefficient_array(spec, D)[1:]
    ns = np.arange(1, D + 1, dtype=float)
    logcoef = coef * np.log(ns)
    w = spec.weight_real_max

    def value(s: float, log: bool) -> complex:
        head = complex(np.sum((logcoef if log else coef) * ns ** (-s)))
        return (-closed_form_F_prime(spec, s) if log else closed_form_F(spec, s)) - head

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


def _refuse_integer(value: float, name: str) -> None:
    """Refuse a non-finite value, or a pole: one within 1e-6 of a positive integer."""
    if not math.isfinite(value):
        raise DomainError(f"{name} = {value} must be finite")
    if abs(value - round(value)) <= 1e-6 and round(value) >= 1:
        raise ExcludedParameter(f"{name} = {value:.6g} must not be a positive integer")


def _near_pole(ns: np.ndarray, c: float, exact, expansion) -> np.ndarray:
    """exact(n), but expansion((n - c)/c) for n within 1e-3 max(1, c) of
    the removable singularity at n = c."""
    g = np.empty(ns.shape)
    near = np.abs(ns - c) < 1e-3 * max(1.0, c)
    far = ~near
    g[far] = exact(ns[far])
    if near.any():
        g[near] = expansion((ns[near] - c) / c)
    return g


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

    def kernel(ns):
        # log(1+u)/u / (c^2 (2+u)), series in u
        return _near_pole(
            ns, c, lambda n: np.log(n / c) / (n ** 2 - c * c),
            lambda u: (1.0 - u / 2 + u ** 2 / 3 - u ** 3 / 4 + u ** 4 / 5 - u ** 5 / 6)
            / (c * c * (2.0 + u))) / ns ** delta

    def orders(t):
        c2m = 1.0
        for m in itertools.count():
            s = 2.0 * m + 2.0 + delta
            yield c2m, [(1.0, s, True), (-logc, s, False)], t ** 2
            c2m *= c * c

    return _closed_tail(spec, c, tol, kernel, orders)


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

    def kernel(ns):
        # ((1+u)^w - 1)/u / (Q^{2-w} (2+u)) by the binomial series near n = Q
        return _near_pole(
            ns, Q, lambda n: (n ** w - Qw) / (n ** 2 - Q * Q),
            lambda u: Q ** (w - 2.0) * sum(b * u ** i for i, b in enumerate(binoms))
            / (2.0 + u)) / ns ** delta

    def orders(t):
        q2m = 1.0
        for m in itertools.count():
            s = 2.0 * m + 2.0 + delta
            yield q2m, [(1.0, s - w, False), (-Qw, s, False)], t ** 2
            q2m *= Q * Q

    return _closed_tail(spec, Q, tol, kernel, orders)


# -- quadrature ----------------------------------------------------------


# bisection levels adaptive_integral may take before QuadratureError
_MAX_DEPTH = 28


# Gauss-Kronrod 7/15 pair on [-1, 1]
_K15_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_K15_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_G7_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
_G7_IDX = np.array([1, 3, 5, 7, 9, 11, 13])


def adaptive_integral(f: Callable[[float], float], alpha: float, beta: float,
                      tol: float = 1e-10) -> float:
    """Integral of f over [alpha, beta] by adaptive bisection of an
    embedded 7/15-point rule, to estimated error below tol."""
    if not alpha < beta:
        raise DomainError("quadrature needs alpha < beta")
    total_len = beta - alpha

    def rule(a: float, b: float) -> tuple[float, float]:
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        vals = np.array([f(mid + half * t) for t in _K15_NODES])
        if not np.all(np.isfinite(vals)):
            raise DomainError("integrand not finite on the interval")
        k15 = half * float(np.dot(_K15_WEIGHTS, vals))
        g7 = half * float(np.dot(_G7_WEIGHTS, vals[_G7_IDX]))
        return k15, abs(k15 - g7)

    acc = 0.0
    stack = [(alpha, beta, 0)]
    while stack:
        a, b, depth = stack.pop()
        k15, err = rule(a, b)
        if err <= tol * (b - a) / total_len or err == 0.0:
            acc += k15
        elif depth >= _MAX_DEPTH:
            raise QuadratureError(
                f"subdivision limit reached on [{a}, {b}] (err {err:.2e})")
        else:
            mid = 0.5 * (a + b)
            stack.append((a, mid, depth + 1))
            stack.append((mid, b, depth + 1))
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
    a = 0.5 * math.pi * nu
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
# The 16-point Gauss-Legendre rule of the panels: the output of numpy's
# leggauss(16), its positive nodes and their weights as hex floats; the
# rule is symmetric.  Held as a table for the reason bessel holds its
# 128-point rule, and so that numpy.polynomial is not imported.
_PANEL_POS = np.array([float.fromhex(h) for h in """
    0x1.852bd6676a9f9p-4 0x1.205cae642337cp-2 0x1.d50259a43a772p-2 0x1.3c5a466d5e8b8p-1
    0x1.82c45dda4726bp-1 0x1.bb3403514e483p-1 0x1.e39f56616f9b0p-1 0x1.fa92c264d787ep-1
    0x1.83feae80e4e01p-3 0x1.75f8c77e0c011p-3 0x1.5a6ebbb5a7600p-3 0x1.325f61bca3cbep-3
    0x1.fe7af2bad3878p-4 0x1.85c4ee79cc24bp-4 0x1.fdfb1a2c1261ep-5 0x1.bcddab4b7c228p-6
""".split()]).reshape(2, 8)
_PANEL_X = np.concatenate([-_PANEL_POS[0, ::-1], _PANEL_POS[0]])
_PANEL_W = np.concatenate([_PANEL_POS[1, ::-1], _PANEL_POS[1]])
# scales per shared grid
_PANEL_BLOCK = 512
# kernel values per Bessel evaluation: 8192 doubles are 64 kB, below
# glibc's 128 kB mmap threshold, so the temporaries reuse heap memory
# instead of faulting in fresh pages
_KERNEL_POINTS = 8192


def _panel_integrals(f, alpha: float, beta: float, nu: float, cs: np.ndarray,
                     t_exponent: float, variant: str) -> np.ndarray:
    """The integrals of oscillatory_kernel_integrals by quadrature.

    Substituting r = sqrt(t) makes the kernel phase linear in r, so fixed
    Gauss-Legendre panels sized by the phase derivative integrate each
    oscillation to near machine precision.  Each block of _PANEL_BLOCK
    scales shares one grid (sized for its largest scale) and the
    non-kernel integrand factors on it; its kernel matrix is evaluated
    _KERNEL_POINTS values at a time, and einsum sums each row against
    them on the calling thread (see identities._riesz_mean).
    """
    ra, rb = math.sqrt(alpha), math.sqrt(beta)
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
        rows = max(1, _KERNEL_POINTS // r.size)
        for i in range(0, block.size, rows):
            part = block[i:i + rows]
            kern = voronoi_kernel_values(variant, nu, np.outer(part, r).ravel())
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
_I_POWERS = np.array([1.0, 1j, -1.0, -1j])


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
    1/c, and a scale costs O(L) flops.  A block of scales sums only the
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
        hankel = np.cumprod(np.r_[1.0, (4.0 * nu * nu - (2 * ks[1:] - 1) ** 2) / (8.0 * ks[1:])])
        # sums[e, n] = sum_{k + j = n} a_k h_k^{(j)}(end e), K's coefficients;
        # coefs[e, n] = i^{n-1} sums[e, n], those of J + iY
        self.sums = np.zeros((2, L + 1), dtype=complex)
        for k in ks:
            self.sums[:, k:] += hankel[k] * deriv[k, :, :L + 1 - k]
        self.coefs = self.sums * _I_POWERS[(ks - 1) % 4]
        self.sizes = np.max(np.abs(self.sums), axis=0)
        self._powers = -ks.astype(float)
        lasts = [max(np.max(np.abs(hankel[k] * deriv[k, :, n - k])) for k in range(n + 1))
                 for n in (L - 1, L)]
        self.lead = np.max(np.abs(h_ends))
        resolved = (np.all(np.isfinite(deriv)) and np.all(np.isfinite(h_ends)) and self.lead > 0
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
        # in blocks whose (2 x scales) complex temporaries stay at 64 kB,
        # each summing only the orders that matter at its least scale
        for lo in range(0, cs.size, _KERNEL_POINTS // 4):
            c = cs[lo:lo + _KERNEL_POINTS // 4]
            x, least = 1.0 / c, float(c.min())
            total = lead * self._endpoints(self.coefs, x, self._orders(least),
                                           np.exp(1j * np.outer(self.ends, c)))
            k_orders = self._orders(least, math.exp(-least * self.ends[0]))
            if k_orders:
                total -= k_lead * self._endpoints(self.sums, x, k_orders,
                                                  np.exp(-np.outer(self.ends, c)))
            out[lo:lo + c.size] = (total * (x * np.sqrt(x))).real
        return out

    @staticmethod
    def _endpoints(coefs: np.ndarray, x: np.ndarray, orders: int,
                   phases: np.ndarray) -> np.ndarray:
        """The difference of the two endpoints' series in x, by Horner's
        rule over their first orders coefficients, each times its phase."""
        acc = np.zeros((2, x.size), dtype=complex)
        for n in range(orders - 1, -1, -1):
            acc *= x
            acc += coefs[:, n, None]
        return acc[1] * phases[1] - acc[0] * phases[0]


def oscillatory_kernel_integrals(f: Callable[[np.ndarray], np.ndarray],
                                 alpha: float, beta: float, nu: float,
                                 cs: np.ndarray, t_exponent: float,
                                 variant: str) -> np.ndarray:
    """integral of f(t) t^{t_exponent} kernel(c sqrt(t)) over [alpha, beta]
    for each kernel scale c in cs, 0 < alpha < beta, f real on the real
    axis.

    Two regimes, split at the expansions' least_scale alone:
    * Gauss-Legendre panels in r = sqrt(t) (_panel_integrals), whose
      kernel values cost one J, Y and K per node and scale;
    * from least_scale on, the Hankel expansions of J + iY and of K and
      the endpoint expansions (_EndpointExpansion), which evaluate no
      Bessel function: f is read on two circles once per call, and each
      scale then costs O(L) flops.  least_scale is where their
      certificate begins (last two diagonals below 5e-14 of the leading
      term): c sqrt(alpha) of about 17 to 40 for the registered test
      functions, intervals and orders.
    f must accept complex arrays.  Where its values there are not the
    analytic continuation of f (it drops the imaginary part, say), every
    scale stays with the quadrature.
    """
    if not 0.0 < alpha < beta:
        raise DomainError("oscillatory_kernel_integrals needs 0 < alpha < beta")
    cs = np.asarray(cs, dtype=float)
    out = np.zeros(cs.size)
    expansion = _EndpointExpansion(f, alpha, beta, nu, t_exponent)
    far = cs >= expansion.least_scale
    if far.any():
        out[far] = expansion.integrals(cs[far], variant)
    near = ~far
    if near.any():
        out[near] = _panel_integrals(f, alpha, beta, nu, cs[near], t_exponent, variant)
    return out
