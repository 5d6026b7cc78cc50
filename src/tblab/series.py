"""Convergent evaluation of the series shapes behind the identities.

Bessel-kernel sums are truncated against a certified analytic tail bound
(coefficients bounded by d(n) n^w, the kernel by its Gaussian-majorant
exponential bound).  Algebraically decaying sums (shifted powers, log
kernels, rational Cohen tails) are summed directly up to a head length
and completed in closed form: the kernel is expanded binomially or
geometrically for n beyond the head, which turns the tail into a short
series of Dirichlet-tail values F(s) - sum_{n<=head} f(n) n^{-s}, with
F given by its zeta/L product.  That reaches ~1e-12 where plain
truncation of exponents as low as 1.25 could not reach 1e-9.

An environment variable TBL_MAX_TERMS caps the term budget of every
series operation; term_cap() is its one reader.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .arith import (
    DivisorSumSpec,
    closed_form_F,
    closed_form_F_prime,
    coefficient_array,
)
from .bessel import jy_values, k_values
from .errors import (
    ConvergenceError,
    DivergenceError,
    DomainError,
    ExcludedParameter,
    QuadratureError,
)

__all__ = [
    "SeriesParams",
    "SeriesResult",
    "QuadratureSpec",
    "bessel_series",
    "shifted_power_series",
    "log_kernel_series",
    "cohen_tail_series",
    "adaptive_integral",
    "voronoi_kernel",
    "voronoi_kernel_values",
    "oscillatory_kernel_integral",
    "VORONOI_VARIANTS",
    "term_cap",
]

DEFAULT_MAX_TERMS = 10 ** 6
DEFAULT_HEAD = 1000


def term_cap() -> int:
    """The term budget of every series operation: TBL_MAX_TERMS when set,
    else DEFAULT_MAX_TERMS.  Anything but a positive integer raises
    DomainError."""
    text = os.environ.get("TBL_MAX_TERMS")
    if text is None:
        return DEFAULT_MAX_TERMS
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise DomainError(f"TBL_MAX_TERMS must be a positive integer, got {text!r}")
    return cap


@dataclass
class SeriesParams:
    """Parameters of a Bessel-kernel series sum f(n) n^{nu/2} K_nu(a sqrt(n x))."""

    a: float
    x: float
    nu: float = 0.0
    tol: float = 1e-12
    rel_tol: float = 1e-12
    max_terms: int | None = None

    def __post_init__(self):
        if self.a <= 0 or self.x <= 0:
            raise DomainError("series parameters need a > 0 and x > 0")
        if self.tol <= 0:
            raise DomainError("tolerance must be positive")


@dataclass
class SeriesResult:
    value: complex
    terms: int
    tail_bound: float

    def __complex__(self) -> complex:
        return complex(self.value)


def _kernel_bound(nu: float, y: float) -> float:
    # K_nu(y) <= 2 sqrt(pi/(2y)) exp(-y + nu^2/(2y)), from the integral
    # representation with cosh t >= 1 + t^2/2 and cosh(nu t) <= e^{nu t}
    return 2.0 * math.sqrt(0.5 * math.pi / y) * math.exp(-y + nu * nu / (2.0 * y))


def _bessel_term_bound(n: float, w: float, nu: float, lam: float) -> float:
    # |f(n)| <= d(n) n^w <= n^{w+1}
    y = lam * math.sqrt(n)
    return n ** (w + 1.0 + 0.5 * nu) * _kernel_bound(nu, y)


def _bessel_tail_bound(N: int, w: float, nu: float, lam: float) -> float:
    """Bound on sum_{n>N} of the term bound, by integral comparison.

    The term bound is A e^{nu^2/(2 lam sqrt(t))} t^g e^{-lam sqrt(t)} with
    g = w + 3/4 + nu/2; past its peak the sum is dominated by
    2 A E int_{sqrt N}^inf u^{2g+1} e^{-lam u} du, and the remaining
    incomplete-gamma integral by its leading term over a geometric factor.
    """
    g = w + 0.75 + 0.5 * nu
    z = lam * math.sqrt(N)
    m = 2.0 * g + 1.0
    if z <= m + 1.0:
        return math.inf  # not yet past the decay regime
    A = 2.0 * math.sqrt(0.5 * math.pi / lam)
    E = math.exp(nu * nu / (2.0 * z))
    integral = (math.sqrt(N) ** m * math.exp(-z) / lam) / (1.0 - m / z)
    return 2.0 * A * E * integral


def bessel_series(spec: DivisorSumSpec, params: SeriesParams) -> SeriesResult:
    """sum_{n>=1} f_z(n) n^{nu/2} K_nu(a sqrt(n x)), certified to tolerance.

    Stops at the first N whose analytic tail bound drops below
    max(tol, rel_tol * |partial sum|); raises ConvergenceError if the term
    budget is exhausted first.
    """
    cap = min(params.max_terms or DEFAULT_MAX_TERMS, term_cap())
    lam = params.a * math.sqrt(params.x)
    nu = params.nu
    w = spec.weight_real_max

    # initial truncation estimate by doubling against the tail bound
    n_est = 256
    while (_bessel_tail_bound(n_est, w, nu, lam) > params.tol
           and n_est < cap):
        n_est *= 2
    coef = coefficient_array(spec, min(max(2 * n_est, 1024), cap))

    acc = 0j
    n0 = 1
    chunk = max(256, n_est)  # first chunk lands near the estimated cutoff
    while True:
        n1 = min(n0 + chunk - 1, cap)
        chunk = 4096
        if n1 > len(coef) - 1:
            coef = coefficient_array(spec, min(max(n1, 2 * (len(coef) - 1)), cap))
        cs = coef[n0:n1 + 1]
        ns = np.arange(n0, n1 + 1, dtype=float)
        mask = cs != 0
        if mask.any():
            kv = np.zeros_like(ns)
            kv[mask] = k_values(nu, lam * np.sqrt(ns[mask]))
            acc += np.sum(cs * ns ** (0.5 * nu) * kv)
        tail = _bessel_tail_bound(n1, w, nu, lam)
        if tail <= max(params.tol, params.rel_tol * abs(acc)):
            return SeriesResult(acc, n1, tail)
        if n1 >= cap:
            raise ConvergenceError(
                f"bessel_series: tail bound {tail:.2e} above tolerance after {n1} terms")
        n0 = n1 + 1


# -- closed-form Dirichlet tails ----------------------------------------


def _coef_tail_bound(w: float, D: int, s: float) -> float:
    """Rigorous bound on sum_{n>D} d(n) n^{w-s} for s - w > 1."""
    sigma = s - w
    if sigma <= 1.0:
        return math.inf
    g = sigma / (sigma - 1.0)
    return g * D ** (1.0 - sigma) * (1.0 + math.log(D) + g)


def _log_tail_bound(w: float, D: int, s: float) -> float:
    # ln n <= 4 n^{1/4}
    return 4.0 * _coef_tail_bound(w, D, s - 0.25)


# F(s) - head is a difference of O(1) quantities: tails below this are
# double-precision noise and must not be scaled up by expansion coefficients
_TAIL_RESOLUTION = 1e-15


def _expansion_head(head: int, shift: float) -> int:
    """Head length for a kernel expansion around shift c (or Q).

    For shifts above 1 the expansion coefficients grow like c^m, so the
    head is stretched until the unresolvable-tail floor is reached at a
    small m, keeping the noise amplification bounded.
    """
    D = max(head, int(math.ceil(2.5 * shift)) + 8)
    if shift > 1.0:
        D = max(D, int(math.ceil(2500.0 * shift)))
    return D


class _TailContinuation:
    """F(s) - sum_{n<=D} f(n) n^{-s}, and its log-weighted sibling."""

    def __init__(self, spec: DivisorSumSpec, head: int):
        self.spec = spec
        self.D = head
        self.coef = coefficient_array(spec, head)[1:]
        self.ns = np.arange(1, head + 1, dtype=float)
        self.logns = np.log(self.ns)
        self.w = spec.weight_real_max

    def head_sum(self, g: np.ndarray) -> complex:
        return complex(np.sum(self.coef * g))

    def f_tail(self, s: float) -> complex:
        return closed_form_F(self.spec, s) - complex(np.sum(self.coef * self.ns ** (-s)))

    def f_log_tail(self, s: float) -> complex:
        """sum_{n>D} f(n) ln(n) n^{-s} = -F'(s) - head part."""
        head = complex(np.sum(self.coef * self.logns * self.ns ** (-s)))
        return -closed_form_F_prime(self.spec, s) - head

    def f_tail_bound(self, s: float) -> float:
        return _coef_tail_bound(self.w, self.D, s)

    def f_log_tail_bound(self, s: float) -> float:
        return _log_tail_bound(self.w, self.D, s)


def _binom_series(p: float):
    """Coefficients of (1+t)^{-p} = sum b_m t^m, generated lazily."""
    b = 1.0
    m = 0
    while True:
        yield b
        b *= -(p + m) / (m + 1)
        m += 1


def shifted_power_series(spec: DivisorSumSpec, p: float, c: float, *,
                         difference_form: bool = False, tol: float = 1e-12,
                         head: int = DEFAULT_HEAD) -> SeriesResult:
    """sum_n f_z(n)/(n+c)^p, or sum_n f_z(n)(n^{-p} - (n+c)^{-p}).

    Head terms are summed directly; for n > head the kernel is expanded
    binomially in c/n and each power sum is completed by the closed-form
    Dirichlet tail.
    """
    w = spec.weight_real_max
    if c < 0:
        raise DomainError("shift c must be >= 0")
    need = w if difference_form else w + 1.0
    if p <= need + 1e-12:
        raise DivergenceError(
            f"shifted_power_series diverges: p={p} too small for weight bound {w}")
    D = _expansion_head(head, c)
    if D > term_cap():
        raise ConvergenceError("head length exceeds the term budget")
    tc = _TailContinuation(spec, D)
    if difference_form:
        head_val = tc.head_sum(tc.ns ** (-p) - (tc.ns + c) ** (-p))
    else:
        head_val = tc.head_sum((tc.ns + c) ** (-p))

    tail_val = 0j
    bound_left = 0.0
    cm = 1.0
    for m, b in enumerate(_binom_series(p)):
        if m > 200:
            raise ConvergenceError("binomial tail expansion did not settle")
        if not (m == 0 and difference_form):
            ftb = tc.f_tail_bound(p + m)
            bound = abs(b) * cm * ftb
            if bound < 0.1 * tol or ftb < _TAIL_RESOLUTION:
                r = (c / D) * (p + m + 1) / (m + 1)
                bound_left = bound / max(1.0 - r, 0.5)
                break
            term = b * cm * tc.f_tail(p + m)
            tail_val += -term if difference_form else term
        cm *= c
    return SeriesResult(head_val + tail_val, D, bound_left)


def log_kernel_series(spec: DivisorSumSpec, c: float, *, over_n: bool = False,
                      tol: float = 1e-12, head: int = DEFAULT_HEAD) -> SeriesResult:
    """sum_n f(n) log(n/c) / (n^2 - c^2), optionally with an extra 1/n.

    c within 1e-6 of a positive integer is excluded (the summand has a
    pole there); terms with n near c switch to the removable-singularity
    expansion.
    """
    if c <= 0:
        raise DomainError("log_kernel_series needs c > 0")
    if abs(c - round(c)) <= 1e-6 and round(c) >= 1:
        raise ExcludedParameter(
            f"log-kernel parameter c={c} must not be a positive integer")
    delta = 1 if over_n else 0
    if spec.weight_real_max >= 1.0 + delta:
        raise DivergenceError("log_kernel_series needs weight below 1 + delta")
    D = _expansion_head(head, c)
    if D > term_cap():
        raise ConvergenceError("head length exceeds the term budget")
    tc = _TailContinuation(spec, D)

    g = np.empty(D, dtype=float)
    near = np.abs(tc.ns - c) < 1e-3 * max(1.0, c)
    far = ~near
    g[far] = np.log(tc.ns[far] / c) / (tc.ns[far] ** 2 - c * c)
    if near.any():
        u = (tc.ns[near] - c) / c
        # log(1+u)/u / (c^2 (2+u)), series in u
        series = 1.0 - u / 2 + u ** 2 / 3 - u ** 3 / 4 + u ** 4 / 5 - u ** 5 / 6
        g[near] = series / (c * c * (2.0 + u))
    if over_n:
        g = g / tc.ns
    head_val = tc.head_sum(g)

    tail_val = 0j
    bound_left = 0.0
    logc = math.log(c)
    c2m = 1.0
    for m in range(0, 200):
        s = 2.0 * m + 2.0 + delta
        bound = c2m * (tc.f_log_tail_bound(s) + abs(logc) * tc.f_tail_bound(s))
        if bound < 0.1 * tol or tc.f_tail_bound(s) < _TAIL_RESOLUTION:
            bound_left = bound / max(1.0 - (c / D) ** 2, 0.5)
            break
        tail_val += c2m * (tc.f_log_tail(s) - logc * tc.f_tail(s))
        c2m *= c * c
    else:
        raise ConvergenceError("geometric tail expansion did not settle")
    return SeriesResult(head_val + tail_val, D, bound_left)


def _general_binom(w: float, j: int) -> float:
    acc = 1.0
    for i in range(j):
        acc *= (w - i) / (i + 1)
    return acc


def cohen_tail_series(spec: DivisorSumSpec, nu: float, N: int, Q: float, *,
                      inner_power_offset: int = 0, divide_by_n: bool = False,
                      tol: float = 1e-12, head: int = DEFAULT_HEAD) -> SeriesResult:
    """sum_n f(n) (n^{w} - Q^{w})/(n^2 - Q^2), w = nu - 2N + offset,
    optionally with an extra 1/n.

    Terms decay like n^{w - 2 - [1/n]}, so the exponent combination must
    leave that below -1; otherwise the series diverges and
    DivergenceError is raised.  Q within 1e-6 of a positive integer is
    excluded; near-coincident n uses the difference-quotient expansion.
    """
    if Q <= 0:
        raise DomainError("cohen_tail_series needs Q > 0")
    if abs(Q - round(Q)) <= 1e-6 and round(Q) >= 1:
        raise ExcludedParameter(
            f"tail parameter Q={Q} must not be a positive integer")
    delta = 1 if divide_by_n else 0
    wexp = nu - 2 * N + inner_power_offset
    if wexp + spec.weight_real_max - 2.0 - delta >= -1.0 - 1e-12:
        raise DivergenceError(
            f"cohen tail diverges: exponent {wexp} too large for N={N}")
    D = _expansion_head(head, Q)
    if D > term_cap():
        raise ConvergenceError("head length exceeds the term budget")
    tc = _TailContinuation(spec, D)

    g = np.empty(D, dtype=float)
    near = np.abs(tc.ns - Q) < 1e-3 * max(1.0, Q)
    far = ~near
    g[far] = (tc.ns[far] ** wexp - Q ** wexp) / (tc.ns[far] ** 2 - Q * Q)
    if near.any():
        u = (tc.ns[near] - Q) / Q
        series = sum(_general_binom(wexp, j) * u ** (j - 1) for j in range(1, 7))
        g[near] = Q ** (wexp - 2.0) * series / (2.0 + u)
    if divide_by_n:
        g = g / tc.ns
    head_val = tc.head_sum(g)

    tail_val = 0j
    bound_left = 0.0
    q2m = 1.0
    for m in range(0, 200):
        s = 2.0 * m + 2.0 + delta
        bound = q2m * (tc.f_tail_bound(s - wexp) + Q ** wexp * tc.f_tail_bound(s))
        if (bound < 0.1 * tol
                or tc.f_tail_bound(min(s - wexp, s)) < _TAIL_RESOLUTION):
            bound_left = bound / max(1.0 - (Q / D) ** 2, 0.5)
            break
        tail_val += q2m * (tc.f_tail(s - wexp) - Q ** wexp * tc.f_tail(s))
        q2m *= Q * Q
    else:
        raise ConvergenceError("geometric tail expansion did not settle")
    return SeriesResult(head_val + tail_val, D, bound_left)


# -- quadrature ----------------------------------------------------------


@dataclass
class QuadratureSpec:
    alpha: float
    beta: float
    tol: float = 1e-10
    max_depth: int = 28

    def __post_init__(self):
        if not self.alpha < self.beta:
            raise DomainError("quadrature needs alpha < beta")


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


def adaptive_integral(f: Callable[[float], float], spec: QuadratureSpec) -> float:
    """Integral of f over [alpha, beta] by adaptive bisection of an
    embedded 7/15-point rule, to estimated error below spec.tol."""
    total_len = spec.beta - spec.alpha

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
    stack = [(spec.alpha, spec.beta, 0)]
    while stack:
        a, b, depth = stack.pop()
        k15, err = rule(a, b)
        if err <= spec.tol * (b - a) / total_len or err == 0.0:
            acc += k15
        elif depth >= spec.max_depth:
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


def voronoi_kernel(variant: str, nu: float, u: float) -> float:
    """The theorem-specific combination of K, Y, J at argument u > 0."""
    if u <= 0:
        raise DomainError("voronoi_kernel needs u > 0")
    return float(voronoi_kernel_values(variant, nu, np.array([u]))[0])


def voronoi_kernel_values(variant: str, nu: float, us: np.ndarray) -> np.ndarray:
    main, ys, jc = _variant_coefs(variant, nu)
    us = np.asarray(us, dtype=float)
    if np.any(us <= 0):
        raise DomainError("voronoi_kernel needs u > 0")
    j, y = jy_values(nu, us)
    k = k_values(nu, us)
    return ((2.0 / math.pi) * k + ys * y) * main + jc * j


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _osc_nodes(f, alpha: float, beta: float, t_exponent: float,
               max_phase_span: float, *, phase_per_panel: float = 10.0,
               nodes: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre grid in r = sqrt(t), fine enough for the given
    phase span; returns the node positions and the shared weighted
    integrand factor w * f(t) t^{t_exponent} * 2r."""
    ra, rb = math.sqrt(alpha), math.sqrt(beta)
    panels = max(2, int(math.ceil(max_phase_span / phase_per_panel)))
    xg, wg = _gl(nodes)
    edges = np.linspace(ra, rb, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    r = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    t = r * r
    return r, w * f(t) * t ** t_exponent * 2.0 * r


def oscillatory_kernel_integral(f: Callable[[np.ndarray], np.ndarray],
                                alpha: float, beta: float, nu: float,
                                c: float, t_exponent: float, variant: str,
                                *, phase_per_panel: float = 10.0,
                                nodes: int = 16) -> float:
    """integral of f(t) t^{t_exponent} kernel(c sqrt(t)) over [alpha, beta].

    Substituting r = sqrt(t) makes the kernel phase linear in r, so fixed
    Gauss-Legendre panels sized by the phase derivative integrate each
    oscillation to near machine precision.
    """
    span = c * (math.sqrt(beta) - math.sqrt(alpha))
    r, shared = _osc_nodes(f, alpha, beta, t_exponent, span,
                           phase_per_panel=phase_per_panel, nodes=nodes)
    kern = voronoi_kernel_values(variant, nu, c * r)
    return float(np.dot(shared, kern))


def oscillatory_kernel_integrals(f: Callable[[np.ndarray], np.ndarray],
                                 alpha: float, beta: float, nu: float,
                                 cs: np.ndarray, t_exponent: float,
                                 variant: str) -> np.ndarray:
    """oscillatory_kernel_integral for a whole batch of kernel scales.

    The t-grid (sized for the largest scale) and the non-kernel integrand
    factors are shared across the batch, so the batch costs one matrix
    kernel evaluation plus a matrix-vector product.
    """
    cs = np.asarray(cs, dtype=float)
    if cs.size == 0:
        return np.zeros(0)
    span = float(cs.max()) * (math.sqrt(beta) - math.sqrt(alpha))
    r, shared = _osc_nodes(f, alpha, beta, t_exponent, span)
    args = (cs[:, None] * r[None, :]).ravel()
    kern = voronoi_kernel_values(variant, nu, args).reshape(cs.size, r.size)
    return kern @ shared
