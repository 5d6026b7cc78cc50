"""The identity registry and verification driver.

Every registered identity equates a K-Bessel-weighted twisted divisor
series (or, for the summation formulas, a finite weighted sum) with a
closed-form side built from Gamma/zeta/L values, Gauss sums and an
auxiliary rational-tail series.  verify() assembles the two sides along
independent code paths - the Bessel machinery never touches the
closed-form side, and vice versa - and reports the residual.

Identity tags:

* T2_1..T2_15, C2_1, C2_2: series with integer weight k, grouped by the
  twist (plain, bar, two-character) and by nu > 0 versus nu = 0.
* P1_1: the character-free baseline identity with weight -nu.
* T3_1..T3_8, C3_1..C3_6: weight -nu identities with rational Cohen
  tails; C3_1..C3_4 are the elementary nu = 1/2 specializations, C3_5
  and C3_6 the equal-character ones.
* T4_1..T4_8, C4_1, C4_2: summation formulas equating a finite sum
  against a main integral plus an oscillatory Bessel-kernel expansion.

Hypotheses are registry data, checked before any numerics run: violating
a parity, primitivity, range or excluded-parameter clause raises
HypothesisError or ExcludedParameter naming the clause, never a silent
wrong answer.  Each formula family shares one evaluator.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .arith import BAR_TWISTED, TWISTED, TWO_CHAR, DivisorSumSpec, coefficient_array
from .characters import Character, enumerate_characters, gauss_sum
from .errors import DomainError, ExcludedParameter, HypothesisError
from .series import (
    QuadratureSpec,
    SeriesParams,
    adaptive_integral,
    bessel_series,
    cohen_tail_series,
    log_kernel_series,
    oscillatory_kernel_integrals,
    shifted_power_series,
    term_cap,
)
from .specfun import (
    EULER_GAMMA,
    L_derivative,
    dirichlet_L,
    gamma,
    riemann_zeta,
    zeta_derivative,
)

__all__ = [
    "IdentityCase",
    "VerificationReport",
    "THEOREMS",
    "DEFAULT_TOLERANCES",
    "TEST_FUNCTIONS",
    "verify",
    "run_suite",
    "default_cases",
    "positivity_scan",
    "report_record",
    "write_reports",
]

PI = math.pi
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class IdentityCase:
    """One identity instance: a theorem tag plus all parameters it needs.

    Single-character identities address chi as (q, char_index); the
    two-character ones use chi1 = (p, char_index), chi2 = (q, char2_index).
    """

    theorem: str
    q: int | None = None
    char_index: int | None = None
    p: int | None = None
    char2_index: int | None = None
    k: int | None = None
    nu: float | None = None
    a: float | None = None
    x: float | None = None
    N: int | None = None
    alpha: float | None = None
    beta: float | None = None
    f: str | None = None

    def params(self) -> dict:
        out = {}
        for key, val in asdict(self).items():
            if key != "theorem" and val is not None:
                out[key] = val
        return out


@dataclass
class VerificationReport:
    case: IdentityCase
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    lhs_terms: int
    rhs_terms: int
    passed: bool
    tol: float
    wall_ms: float


# test functions for the summation formulas: entire, so the analyticity
# hypothesis is satisfied on any interval
TEST_FUNCTIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "one": lambda t: np.ones_like(np.asarray(t, dtype=float)),
    "t": lambda t: np.asarray(t, dtype=float),
    "t2": lambda t: np.asarray(t, dtype=float) ** 2,
    "t3": lambda t: np.asarray(t, dtype=float) ** 3,
    "t4": lambda t: np.asarray(t, dtype=float) ** 4,
    "exp": lambda t: np.exp(-np.asarray(t, dtype=float)),
    "gauss": lambda t: np.exp(-np.asarray(t, dtype=float) ** 2 / 4.0),
}

DEFAULT_TOLERANCES = {
    "sec2": 1e-8,
    "classical": 1e-8,
    "cohen": 1e-7,
    "cohen-half": 1e-9,
    "voronoi": 1e-3,
}

# below this |lhs| the pass rule compares absolutely instead of relatively
_ABS_CUTOFF = {"voronoi": 1.0}
_ABS_CUTOFF_DEFAULT = 1e-6

VORONOI_KERNEL_TERMS = 20000
VORONOI_RIESZ_ORDER = 3


# -- hypotheses ------------------------------------------------------------


def _req(cond: bool, clause: str) -> None:
    if not cond:
        raise HypothesisError(clause)


def _get_char(q: int | None, idx: int | None, what: str) -> Character:
    if q is None or idx is None:
        raise DomainError(f"{what}: modulus and character index are required")
    if q < 1:
        raise DomainError(f"{what}: modulus must be positive")
    chars = enumerate_characters(q)
    if not 0 <= idx < len(chars):
        raise DomainError(
            f"{what}: character index {idx} out of range (phi({q}) = {len(chars)})")
    return chars[idx]


def _req_character(chi: Character, need: str | None, name: str) -> None:
    if need is None:
        return
    if need == "odd":
        _req(chi.is_odd, f"{name} must be an odd character")
    elif need == "even":
        _req(chi.is_even, f"{name} must be an even character")
    if need != "odd":
        _req(not chi.is_principal, f"{name} must be non-principal")
    _req(chi.is_primitive, f"{name} must be primitive")


def _req_pair(relation: str, chi1: Character, chi2: Character) -> None:
    _req(chi1.is_primitive and chi2.is_primitive, "chi1 and chi2 must be primitive")
    if relation == "matched":
        if chi1.is_even or chi2.is_even:
            _req(chi1.is_even and chi2.is_even and
                 not chi1.is_principal and not chi2.is_principal,
                 "chi1 and chi2 must be both non-principal even or both odd")
    else:
        even = chi1 if chi1.is_even else chi2
        _req(chi1.parity != chi2.parity,
             "one character must be even and the other odd")
        _req(not even.is_principal, "the even character must be non-principal")


def _c_shift(a: float, x: float, modulus_product: int) -> float:
    return a * a * modulus_product * x / (16.0 * PI * PI)


# each excluded-parameter clause, by the expression it names
_EXCLUDED: dict[str, Callable[[dict], float]] = {
    "x": lambda r: r["x"],
    "q*x": lambda r: r["q"] * r["x"],
    "q^2*x": lambda r: r["q"] * r["q"] * r["x"],
    "p^2*x": lambda r: r["p"] * r["p"] * r["x"],
    "p*q*x": lambda r: r["p"] * r["q"] * r["x"],
    "a^2*q*x/(16*pi^2)": lambda r: _c_shift(r["a"], r["x"], r["q"]),
    "a^2*p*q*x/(16*pi^2)": lambda r: _c_shift(r["a"], r["x"], r["p"] * r["q"]),
}


class _Reads:
    """A case's fields, with a record of those that were read."""

    def __init__(self, case: IdentityCase):
        self.case, self.read = case, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.case, name)


def _check(entry: TheoremEntry, given: IdentityCase) -> dict:
    """Enforce entry's hypotheses on case, in the order the fields of
    TheoremEntry list them, and return the resolved parameters by name;
    an evaluator takes those it uses and ignores the rest.  One character
    gives chi = chi1 = chi2 and p = q, so an equal-character corollary
    reads as its two-character theorem.  A field the entry never reads
    is refused."""
    case = _Reads(given)
    r = {"twist": entry.twist}
    if len(entry.chars) == 1:
        m = getattr(case, entry.modulus)
        chi = _get_char(m, case.char_index, entry.tid)
        _req_character(chi, entry.chars[0], "chi")
        r.update(chi=chi, chi1=chi, chi2=chi, p=m, q=m)
    elif entry.chars:
        chi1 = _get_char(case.p, case.char_index, entry.tid + " (chi1)")
        chi2 = _get_char(case.q, case.char2_index, entry.tid + " (chi2)")
        _req_character(chi1, entry.chars[0], "chi1")
        _req_character(chi2, entry.chars[1], "chi2")
        if entry.pair:
            _req_pair(entry.pair, chi1, chi2)
        r.update(chi1=chi1, chi2=chi2, p=case.p, q=case.q)
    if entry.k:
        parity, minimum = entry.k
        k = case.k
        _req(k is not None and k == int(k) and k >= minimum,
             f"k must be an integer >= {minimum}")
        _req(k % 2 == (parity == "odd"), f"k must be an {parity} integer")
        r["k"] = int(k)
    nu = case.nu if entry.nu in ("positive", "cohen", "voronoi") else None
    if entry.nu == "positive":
        _req(nu is not None and nu > 0, "nu must have positive real part")
    elif entry.nu == "cohen":
        _req(nu is not None and nu >= 0, "nu must have non-negative real part")
        _req(abs(nu - round(nu)) > 1e-8, "nu must not be an integer")
        _req(case.N is not None and case.N >= math.floor((nu + 1.0) / 2.0),
             "N must be an integer >= floor((nu + 1)/2)")
        r["N"] = int(case.N)
    elif entry.nu == "voronoi":
        _req(nu is not None and 0.0 < nu < 0.5, "nu must lie strictly between 0 and 1/2")
        alpha, beta = case.alpha, case.beta
        _req(alpha is not None and beta is not None and 0 < alpha < beta,
             "the interval must satisfy 0 < alpha < beta")
        for val, name in ((alpha, "alpha"), (beta, "beta")):
            if abs(val - round(val)) <= 1e-9:
                raise ExcludedParameter(f"{name} = {val} must not be an integer")
        if case.f not in TEST_FUNCTIONS:
            raise DomainError(
                f"unknown test function {case.f!r}; choose from {sorted(TEST_FUNCTIONS)}")
        r.update(alpha=float(alpha), beta=float(beta), f=TEST_FUNCTIONS[case.f])
    else:
        nu = 0.5 if entry.nu == "half" else 0.0
    r["nu"] = float(nu)
    if entry.nu in ("positive", "zero"):
        _req(case.a is not None and case.a > 0, "a must be positive")
        r["a"] = float(case.a)
    if entry.nu != "voronoi":
        _req(case.x is not None and case.x > 0, "x must be positive")
        r["x"] = float(case.x)
    if entry.excluded:
        value = _EXCLUDED[entry.excluded](r)
        if abs(value - round(value)) <= 1e-6 and round(value) >= 1:
            raise ExcludedParameter(
                f"{entry.excluded} = {value:.6g} must not be a positive integer")
    unread = [name for name in given.params() if name not in case.read]
    if unread:
        raise DomainError(f"{entry.tid} does not take the parameter(s) {', '.join(unread)}")
    return r


# -- common building blocks ------------------------------------------------


_OTHER_TWIST = {TWISTED: BAR_TWISTED, BAR_TWISTED: TWISTED}


def _tau(chi: Character) -> complex:
    return gauss_sum(chi).value


def _unit(k: int) -> complex:
    """(-1)^{floor(k/2)}, times i for even k (an odd character product)."""
    return (-1.0) ** (k // 2) * (1j if k % 2 == 0 else 1.0)


def _lhs_bessel(spec: DivisorSumSpec, a: float, x: float, nu: float,
                tol: float) -> tuple[complex, int]:
    res = bessel_series(spec, SeriesParams(
        a, x, nu, tol=min(1e-12, tol * 1e-3), rel_tol=min(1e-11, tol * 1e-3)))
    return res.value, res.terms


def _cohen_lhs(spec: DivisorSumSpec, nu: float, x: float,
               tol: float) -> tuple[complex, int]:
    """8 pi x^{nu/2} sum f(n) n^{nu/2} K_nu(4 pi sqrt(n x))."""
    series, terms = _lhs_bessel(spec, 4.0 * PI, x, nu, tol)
    return 8.0 * PI * x ** (nu / 2.0) * series, terms


def _exp_half_sum(spec: DivisorSumSpec, x: float) -> tuple[complex, int]:
    """2 pi sum f(n) e^{-4 pi sqrt(n x)}: the elementary nu = 1/2 shape."""
    lam = 4.0 * PI * math.sqrt(x)
    n_max = max(64, int((45.0 / lam) ** 2) + 8)
    coef = coefficient_array(spec, n_max)[1:]
    ns = np.arange(1, n_max + 1, dtype=float)
    return TWO_PI * complex(np.sum(coef * np.exp(-lam * np.sqrt(ns)))), n_max


def _with_trivial(twist: str, chi: Character, q: int) -> dict:
    """The two-character slots of a one-character series side: chi as
    chi1 (on d) under the plain twist, as chi2 (on n/d) under the bar
    twist, and the trivial character mod 1 (L = zeta) in the other."""
    one = enumerate_characters(1)[0]
    if twist == TWISTED:
        return dict(chi1=chi, chi2=one, p=q, q=1)
    return dict(chi1=one, chi2=chi, p=1, q=q)


# ===================== weight-k identities (nu > 0) ======================


def _pair_nu(tol, chi1, chi2, p, q, k, nu, a, x, **_):
    """T2_10, T2_14, and C2_1 with chi1 = chi2: weight-k series of two
    characters."""
    lhs, lterms = _lhs_bessel(DivisorSumSpec(TWO_CHAR, k, chi1, chi2), a, x, nu, tol)
    tail = shifted_power_series(
        DivisorSumSpec(TWO_CHAR, k, chi2.conjugate(), chi1.conjugate()),
        nu + k + 1.0, _c_shift(a, x, p * q))
    rhs = (-_unit(k) * (a * q) ** nu * p ** (nu + k) * x ** (nu / 2.0)
           / (2.0 ** (3.0 * nu + k + 2.0) * PI ** (2.0 * nu + k + 1.0))
           * gamma(nu + k + 1.0) * _tau(chi1) * _tau(chi2) * tail.value)
    return lhs, rhs, lterms, tail.terms


def _single_nu(tol, twist, chi, q, k, nu, a, x, **_):
    """T2_1, T2_3, T2_5, T2_7: T2_10 and T2_14 with the trivial character
    in one slot, plus the terms of its zeta(s)."""
    lhs, rhs, lterms, rterms = _pair_nu(tol, k=k, nu=nu, a=a, x=x,
                                        **_with_trivial(twist, chi, q))
    if twist == TWISTED:
        zeta_terms = (_unit(k) * q ** k / (a ** nu * 2.0 ** (k + 2.0 - nu) * PI ** (k + 1.0))
                      * gamma(nu) * _tau(chi) * math.factorial(k)
                      * dirichlet_L(k + 1.0, chi.conjugate()) * x ** (-nu / 2.0))
        if k == 0:  # T2_1: the pole term, proportional to L(1, chi)
            zeta_terms += (2.0 ** (nu + 1.0) / a ** (nu + 2.0) * gamma(1.0 + nu)
                           * dirichlet_L(1.0, chi) * x ** (-nu / 2.0 - 1.0))
    else:
        zeta_terms = (2.0 ** (nu + 2.0 * k + 1.0) / a ** (nu + 2.0 * k + 2.0)
                      * math.factorial(k) * gamma(nu + k + 1.0)
                      * dirichlet_L(1.0 + k, chi) * x ** (-nu / 2.0 - k - 1.0))
    return lhs, zeta_terms + rhs, lterms, rterms


# ===================== weight-k identities (nu = 0) ======================


def _single_nu0(tol, twist, chi, q, k, a, x, **_):
    """T2_2, T2_4, T2_6, T2_8: the nu = 0 forms of T2_1, T2_3, T2_5, T2_7,
    whose zeta(s) terms replace the product-rule constant of T2_11."""
    lhs, lterms = _lhs_bessel(DivisorSumSpec(twist, k, chi), a, x, 0.0, tol)
    tail = shifted_power_series(
        DivisorSumSpec(_OTHER_TWIST[twist], k, chi.conjugate()), k + 1.0,
        _c_shift(a, x, q), difference_form=True)
    if twist == TWISTED:
        # -(1/4)[L(-k,chi)(log(8 pi/a^2) - 2 gamma - log x) + L'(-k,chi)]
        rhs = -0.25 * (dirichlet_L(-float(k), chi) * (math.log(8.0 * PI / (a * a))
                       - 2.0 * EULER_GAMMA - math.log(x)) + L_derivative(-float(k), chi))
        if k == 0:  # T2_2: the pole term, proportional to L(1, chi)
            rhs += 2.0 / (a * a * x) * dirichlet_L(1.0, chi)
        qk = q ** k
    else:
        rhs = (2.0 ** (2 * k + 1) / a ** (2 * k + 2) * math.factorial(k) ** 2
               * dirichlet_L(k + 1.0, chi) / x ** (k + 1.0))
        # full product-rule constant; for the odd-character case the second
        # summand vanishes (zeta trivial zero), for the even-character case
        # the first does (L(0, chi) = 0)
        rhs += 0.5 * (zeta_derivative(-float(k)) * dirichlet_L(0.0, chi)
                      + riemann_zeta(-float(k)) * L_derivative(0.0, chi))
        qk = 1
    rhs += (_unit(k) * math.factorial(k) * qk
            / (2.0 * TWO_PI ** (k + 1.0)) * _tau(chi) * tail.value)
    return lhs, rhs, lterms, tail.terms


def _pair_nu0(tol, chi1, chi2, p, q, k, a, x, **_):
    """T2_11, T2_15, and C2_2 with chi1 = chi2: the nu = 0 forms of T2_10,
    T2_14 and C2_1."""
    lhs, lterms = _lhs_bessel(DivisorSumSpec(TWO_CHAR, k, chi1, chi2), a, x, 0.0, tol)
    tail = shifted_power_series(
        DivisorSumSpec(TWO_CHAR, k, chi2.conjugate(), chi1.conjugate()),
        k + 1.0, _c_shift(a, x, p * q), difference_form=True)
    # of the product-rule constant L'(-k, chi1) L(0, chi2) + L(-k, chi1)
    # L'(0, chi2) one summand vanishes: L(0, chi2) = 0 for an even chi2,
    # and L(-k, chi1) = 0 (a trivial zero) for an odd one
    if chi2.is_even:
        const = dirichlet_L(-float(k), chi1) * L_derivative(0.0, chi2)
    else:
        const = L_derivative(-float(k), chi1) * dirichlet_L(0.0, chi2)
    rhs = 0.5 * const
    rhs += (_unit(k) * math.factorial(k) * p ** k
            / (2.0 * TWO_PI ** (k + 1.0)) * (_tau(chi1) * _tau(chi2)) * tail.value)
    return lhs, rhs, lterms, tail.terms


# ================== log-kernel identities (k = 0, nu = 0) ================


def _t2_12(tol, chi1, chi2, p, q, a, x, **_):
    lhs, lterms = _lhs_bessel(DivisorSumSpec(TWO_CHAR, 0, chi1, chi2), a, x, 0.0, tol)
    c = _c_shift(a, x, p * q)
    kernel = log_kernel_series(
        DivisorSumSpec(TWO_CHAR, 0, chi1.conjugate(), chi2.conjugate()), c)
    rhs = _tau(chi1) * _tau(chi2) * c / (2.0 * PI * PI) * kernel.value
    return lhs, rhs, lterms, kernel.terms


def _t2_13(tol, chi, q, a, x, **_):
    """T2_12 with chi2 the trivial character, plus the terms of its zeta(s)."""
    lhs, rhs, lterms, rterms = _t2_12(tol, a=a, x=x, **_with_trivial(TWISTED, chi, q))
    zeta_terms = (2.0 / (a * a * x) * dirichlet_L(1.0, chi)
                  - _tau(chi) / 8.0 * dirichlet_L(1.0, chi.conjugate()))
    return lhs, zeta_terms + rhs, lterms, rterms


def _t2_9(tol, chi1, chi2, p, q, a, x, **_):
    c = _c_shift(a, x, p * q)
    lhs, lterms = _lhs_bessel(DivisorSumSpec(TWO_CHAR, 0, chi1, chi2), a, x, 0.0, tol)
    kernel = log_kernel_series(
        DivisorSumSpec(TWO_CHAR, 0, chi1.conjugate(), chi2.conjugate()), c,
        over_n=True)
    l1, l2 = dirichlet_L(0.0, chi1), dirichlet_L(0.0, chi2)
    d1, d2 = L_derivative(0.0, chi1), L_derivative(0.0, chi2)
    rhs = 0.5 * (l1 * l2 * (-2.0 * EULER_GAMMA + math.log(4.0 / (a * a * x)))
                 + d1 * l2 + l1 * d2)
    # proof-consistent constant: tau1 tau2 c^2/(2 pi^2) on log(c/n)
    rhs -= _tau(chi1) * _tau(chi2) * c * c / (2.0 * PI * PI) * kernel.value
    return lhs, rhs, lterms, kernel.terms


# =================== weight -nu identities (Cohen type) ==================


def _p1_1(tol, nu, N, x, **_):
    spec = DivisorSumSpec(TWISTED, -nu, enumerate_characters(1)[0])
    lhs, lterms = _cohen_lhs(spec, nu, x, tol)
    sn, cs = math.sin(PI * nu / 2.0), math.cos(PI * nu / 2.0)
    tail = cohen_tail_series(spec, nu, N, x)
    rhs = (-gamma(nu) * riemann_zeta(nu) / TWO_PI ** (nu - 1.0)
           + gamma(1.0 + nu) * riemann_zeta(1.0 + nu)
           / (PI ** (nu + 1.0) * 2.0 ** nu * x))
    rhs += riemann_zeta(nu) * x ** (nu - 1.0) / sn
    rhs += 2.0 / sn * sum(riemann_zeta(2.0 * j) * riemann_zeta(2.0 * j - nu)
                          * x ** (2 * j - 1) for j in range(1, N + 1))
    rhs -= PI * riemann_zeta(nu + 1.0) * x ** nu / cs
    rhs += 2.0 / sn * x ** (2 * N + 1) * tail.value
    return lhs, rhs, lterms, tail.terms


def _cohen_head(chi2: Character, chi1: Character, nu: float, Q: float, N: int,
                odd: bool) -> tuple[complex, float]:
    """The head sum of L(s, chi2) L(s - nu, chi1) Q^{s-1} over s = 2j, j <= N
    (or s = 2j + 1, j < N, when odd), and the power of Q on the tail."""
    if odd:
        ladder, last = [2.0 * j + 1.0 for j in range(1, N)], 2 * N
    else:
        ladder, last = [2.0 * j for j in range(1, N + 1)], 2 * N + 1
    return (sum(dirichlet_L(s, chi2) * dirichlet_L(s - nu, chi1) * Q ** (s - 1.0)
                for s in ladder), Q ** last)


def _cohen_single(tol, twist, chi, q, nu, N, x, **_):
    """T3_1..T3_4: weight -nu series of one character.

    The plain twist (T3_1, T3_3) is T3_5..T3_8 with chi2 the trivial
    character, plus the terms from the pole of its zeta(s).  Under the
    bar twist (T3_2, T3_4) the pole terms join the head sum inside one
    bracket, which cancels to far below its terms, so it is summed as
    stated; an odd chi takes cos for sin, a factor i and the odd ladder.
    """
    cb, odd = chi.conjugate(), chi.is_odd
    if twist == TWISTED:
        lhs, rhs, lterms, rterms = _cohen_pair(tol, nu=nu, N=N, x=x,
                                               **_with_trivial(twist, chi, q))
        pole = (-gamma(nu) * dirichlet_L(nu, cb) / TWO_PI ** (nu - 1.0)
                + 2.0 * gamma(1.0 + nu) * dirichlet_L(1.0 + nu, cb)
                / (TWO_PI ** (nu + 1.0) * x))
        return lhs, pole + rhs, lterms, rterms
    lhs, lterms = _cohen_lhs(DivisorSumSpec(BAR_TWISTED, -nu, cb), nu, x, tol)
    qx = q * x
    tail = cohen_tail_series(DivisorSumSpec(TWISTED, -nu, chi), nu, N, qx,
                             inner_power_offset=int(odd))
    head, qlast = _cohen_head(chi, enumerate_characters(1)[0], nu, qx, N, odd)
    sn, cs = math.sin(PI * nu / 2.0), math.cos(PI * nu / 2.0)
    trig, cotrig = (cs, sn) if odd else (sn, cs)
    inner = (dirichlet_L(nu, chi) * qx ** (nu - 1.0) / trig
             + (1.0 if odd else -1.0) * PI * dirichlet_L(1.0 + nu, chi) * qx ** nu / cotrig)
    inner += 2.0 / trig * head
    inner += 2.0 / trig * qlast * tail.value
    if odd:  # T3_4
        rhs = (2.0 * gamma(nu) * riemann_zeta(nu) * dirichlet_L(0.0, cb)
               / TWO_PI ** (nu - 1.0))
        rhs += 1j * q / _tau(chi) * inner
    else:  # T3_2
        rhs = q / _tau(chi) * inner
    return lhs, rhs, lterms, tail.terms


def _cohen_pair(tol, chi1, chi2, p, q, nu, N, x, **_):
    """T3_5..T3_8, and C3_5, C3_6 with chi1 = chi2: weight -nu series of
    two characters.

    The parities tell the formulas apart.  An odd chi1 chi2 takes cos for
    sin and a factor i; an odd chi2 the odd ladder and the L(nu, chi1-bar)
    L(0, chi2-bar) term; an odd chi1 the L(1 + nu, chi2) L(1, chi1) term
    and the 1/n tail.
    """
    lhs, lterms = _cohen_lhs(
        DivisorSumSpec(TWO_CHAR, -nu, chi1.conjugate(), chi2.conjugate()), nu, x, tol)
    pqx = p * q * x
    tail = cohen_tail_series(DivisorSumSpec(TWO_CHAR, -nu, chi2, chi1), nu, N, pqx,
                             inner_power_offset=int(chi1.is_odd) + int(chi2.is_odd),
                             divide_by_n=chi1.is_odd)
    head, plast = _cohen_head(chi2, chi1, nu, pqx, N, chi2.is_odd)
    if chi1.is_odd:
        inner = dirichlet_L(nu + 1.0, chi2) * dirichlet_L(1.0, chi1) * pqx ** nu
        inner -= head
        inner -= plast * tail.value
    else:
        inner = head + plast * tail.value
    rhs = 0.0
    if chi2.is_odd:
        rhs = (2.0 * gamma(nu) * dirichlet_L(nu, chi1.conjugate())
               * dirichlet_L(0.0, chi2.conjugate()) / TWO_PI ** (nu - 1.0))
    if chi1.parity == chi2.parity:
        rhs += (2.0 * p ** (1.0 - nu) * q
                / (_tau(chi1) * _tau(chi2) * math.sin(PI * nu / 2.0)) * inner)
    else:
        rhs += (2.0j * p ** (1.0 - nu) * q
                / (_tau(chi1) * _tau(chi2) * math.cos(PI * nu / 2.0)) * inner)
    return lhs, rhs, lterms, tail.terms


# ---- elementary nu = 1/2 specializations --------------------------------


def _cohen_half(tol, twist, chi, q, x, **_):
    """C3_1..C3_4: the elementary nu = 1/2 forms of T3_1..T3_4."""
    cb, odd, tau = chi.conjugate(), chi.is_odd, _tau(chi)
    lhs, lterms = _exp_half_sum(DivisorSumSpec(twist, -0.5, cb), x)
    qx = q * x
    # C3_4 is stated with the minimal admissible truncation index; this
    # variant uses the first index for which the rational tail converges
    tail = cohen_tail_series(DivisorSumSpec(_OTHER_TWIST[twist], -0.5, chi), 0.5,
                             int(odd and twist == BAR_TWISTED), qx,
                             inner_power_offset=int(odd),
                             divide_by_n=odd and twist == TWISTED)
    if twist == TWISTED:
        rhs = -PI * dirichlet_L(0.5, cb) + dirichlet_L(1.5, cb) / (4.0 * PI * x)
        if odd:  # C3_3
            rhs += 2.0j * q / tau * riemann_zeta(1.5) * dirichlet_L(1.0, chi) * math.sqrt(x)
            rhs -= 2.0j * q ** 1.5 * x / tau * tail.value
        else:  # C3_1
            rhs += 2.0 * q ** 1.5 * x / tau * tail.value
    elif odd:  # C3_4
        rhs = (TWO_PI * riemann_zeta(0.5) * dirichlet_L(0.0, cb)
               + 1j * q ** 0.5 / tau * dirichlet_L(0.5, chi) / math.sqrt(x)
               + 1j * PI * q ** 1.5 / tau * dirichlet_L(1.5, chi) * math.sqrt(x)
               + 2.0j * q * qx * qx / tau * tail.value)
    else:  # C3_2
        rhs = (q ** 0.5 / tau * dirichlet_L(0.5, chi) / math.sqrt(x)
               - PI * q ** 1.5 / tau * dirichlet_L(1.5, chi) * math.sqrt(x)
               + 2.0 * q * q * x / tau * tail.value)
    return lhs, rhs, lterms, tail.terms


# ====================== summation formulas (section 4) ====================


def _finite_side(f, alpha: float, beta: float, spec: DivisorSumSpec,
                 over_j: bool) -> tuple[complex, int]:
    lo, hi = math.floor(alpha) + 1, math.ceil(beta)
    js = np.arange(lo, hi, dtype=float)
    weights = coefficient_array(spec, max(hi - 1, 0))[lo:]
    if over_j:
        weights = weights / js
    return complex(np.sum(weights * f(js))), len(js)


def _riesz_mean(terms: np.ndarray, order: float) -> complex:
    """Riesz mean sum_{n<=N} a_n (1 - n/N)^order of the series sum a_n,
    with N = len(terms).

    It sums a conditionally convergent series whose partial sums
    oscillate about the limit, with a bias of order (order / N).
    """
    n = len(terms)
    weights = (1.0 - np.arange(1, n + 1, dtype=float) / n) ** order
    return complex(np.dot(terms, weights))


def _kernel_expansion(f, alpha: float, beta: float, nu: float,
                      spec: DivisorSumSpec, kernel_scale: float,
                      t_exp: float, variant: str) -> tuple[complex, int]:
    """Riesz mean sum_{n<=N} a_n (1 - n/N)^kappa of the conditionally
    convergent kernel series sum_n a_n, a_n = f(n) n^{nu/2} I_n, with
    kappa = VORONOI_RIESZ_ORDER and N = VORONOI_KERNEL_TERMS terms (or
    the smaller series.term_cap()).

    Integrals are evaluated in batches sharing one t-grid.  The weights
    damp the endpoint oscillation of the partial sums (quasi-period
    ~ sqrt(n q / alpha) terms near the truncation) smoothly to zero and
    leave a bias of order kappa/N.  Over every registered point, and
    f = t, t^3 on (1.3, 5.7) for T4_3..T4_8 and C4_1, kappa = 2 leaves
    oscillation of up to 7e-3 and kappa = 4 a bias of up to 9.5e-4;
    kappa = 3 keeps both below 7.2e-4.
    """
    n_terms = min(VORONOI_KERNEL_TERMS, term_cap())
    coef = coefficient_array(spec, n_terms)[1:]
    ns = np.arange(1, n_terms + 1, dtype=float)
    terms = np.zeros(n_terms, dtype=complex)
    block = 512
    for lo in range(0, n_terms, block):
        hi = min(lo + block, n_terms)
        mask = coef[lo:hi] != 0
        if not mask.any():
            continue
        cs = kernel_scale * np.sqrt(ns[lo:hi][mask])
        ints = oscillatory_kernel_integrals(f, alpha, beta, nu, cs, t_exp, variant)
        vals = np.zeros(hi - lo, dtype=complex)
        vals[mask] = coef[lo:hi][mask] * ns[lo:hi][mask] ** (nu / 2.0) * ints
        terms[lo:hi] = vals
    return _riesz_mean(terms, VORONOI_RIESZ_ORDER), n_terms


# the kernel variant and prefactor of the expansion, by the parities
# (chi1 odd, chi2 odd); an odd chi1 also puts 1/j on the finite sum
_VORONOI_KERNELS = {
    (False, False): ("even-cos", TWO_PI),
    (True, True): ("plus-y-cos", -TWO_PI),
    (False, True): ("plus-y-sin", 2j * PI),
    (True, False): ("odd-sin", -2j * PI),
}


def _voronoi_pair(tol, chi1, chi2, p, q, nu, alpha, beta, f, **_):
    """T4_5..T4_8, and C4_1, C4_2 with chi1 = chi2: summation formulas of
    two characters."""
    over_j = chi1.is_odd
    variant, series_pref = _VORONOI_KERNELS[chi1.is_odd, chi2.is_odd]
    pref = p ** (1.0 - nu / 2.0) * q ** (1.0 + nu / 2.0) / (_tau(chi1) * _tau(chi2))
    fin, n_j = _finite_side(f, alpha, beta,
                            DivisorSumSpec(TWO_CHAR, -nu, chi2, chi1), over_j)
    lhs = pref * fin
    kern, n_terms = _kernel_expansion(
        f, alpha, beta, nu,
        DivisorSumSpec(TWO_CHAR, -nu, chi1.conjugate(), chi2.conjugate()),
        4.0 * PI / math.sqrt(p * q), -nu / 2.0 - (1.0 if over_j else 0.0), variant)
    rhs = series_pref * kern
    return lhs, rhs, n_j, n_terms


def _voronoi_single(tol, twist, chi, q, nu, alpha, beta, f, **_):
    """T4_1..T4_4: T4_5..T4_8 with the trivial character in one slot,
    plus the main term from the pole of its zeta(s).

    twist is that of the kernel series; the finite sum takes the other
    one, and with it the q^{1 -+ nu/2} prefactor and L(1 -+ nu, chi).
    """
    lhs, rhs, n_j, n_terms = _voronoi_pair(tol, nu=nu, alpha=alpha, beta=beta, f=f,
                                           **_with_trivial(twist, chi, q))
    bar_side = twist == TWISTED
    over_j = bar_side and chi.is_odd
    pref = q ** (1.0 - nu / 2.0 if bar_side else 1.0 + nu / 2.0) / _tau(chi)
    main_power = (-nu if bar_side else 0.0) - (1.0 if over_j else 0.0)
    lmain = dirichlet_L(1.0 - nu if bar_side else 1.0 + nu, chi)
    main = adaptive_integral(
        lambda t: float(f(np.array([t]))[0]) * t ** main_power,
        QuadratureSpec(alpha, beta, tol=1e-11))
    return lhs, pref * lmain * main + rhs, n_j, n_terms


# ========================== registry and driver ==========================


@dataclass(frozen=True)
class TheoremEntry:
    """A registered identity: its evaluator, default points and hypotheses.

    chars: per character slot, "odd" (odd primitive), "even" (even
      primitive non-principal), "primitive" (primitive non-principal) or
      None (pair alone).  One slot reads (modulus, char_index), modulus
      naming the field; two read (p, char_index) and (q, char2_index).
    pair: "matched" or "mixed" parities of the two characters.
    k: (parity, minimum) of the weight k.
    nu: "positive", "zero" or "half" (nu > 0 as given, 0 or 1/2), "cohen"
      (non-integer, with N >= floor((nu + 1)/2)) or "voronoi" (0 < nu <
      1/2, a non-integer interval and a known test function).  a is
      required for "positive" and "zero", x for all but "voronoi".
    excluded: the expression, a key of _EXCLUDED, that must not be a
      positive integer.
    twist: the twist of a one-character series side, passed to the
      evaluator with the resolved parameters.
    """

    tid: str
    section: str
    description: str
    evaluate: Callable
    points: tuple[dict, ...]
    chars: tuple[str | None, ...] = ()
    pair: str | None = None
    k: tuple[str, int] | None = None
    nu: str = "zero"
    excluded: str | None = None
    modulus: str = "q"
    twist: str | None = None


_COHEN_GRID = tuple((nuv, Nv) for nuv in (0.25, 0.3, 0.45) for Nv in (1, 2))


def _cohen_points(base: dict) -> tuple[dict, ...]:
    return tuple(dict(base, nu=nuv, N=Nv) for nuv, Nv in _COHEN_GRID)


def _voronoi_points(base: dict) -> tuple[dict, ...]:
    return tuple(dict(base, nu=0.25, alpha=al, beta=be, f=fn)
                 for fn in ("exp", "t2", "gauss") for al, be in ((0.5, 3.4), (1.3, 5.7)))


THEOREMS: dict[str, TheoremEntry] = {}


def _register(tid, section, description, evaluate, points, **hypotheses):
    THEOREMS[tid] = TheoremEntry(tid, section, description, evaluate, points,
                                 **hypotheses)


_register("T2_1", "sec2",
          "weight-k series, odd chi, even k >= 0, nu > 0: shifted-power tail",
          _single_nu, (
              dict(q=4, char_index=1, k=0, nu=0.6, a=1.0, x=0.75),
              dict(q=3, char_index=1, k=2, nu=0.25, a=1.0, x=0.3),
              dict(q=5, char_index=1, k=2, nu=1.3, a=2.0, x=1.9),
              dict(q=7, char_index=3, k=4, nu=0.5, a=2.0, x=0.3)),
          chars=("odd",), k=("even", 0), nu="positive", twist=TWISTED)
_register("T2_2", "sec2",
          "weight-k series, odd chi, even k >= 0, nu = 0: difference tail",
          _single_nu0, (
              dict(q=4, char_index=1, k=0, a=1.0, x=0.3),
              dict(q=3, char_index=1, k=2, a=0.5, x=1.9),
              dict(q=7, char_index=3, k=4, a=2.0, x=0.75),
              dict(q=5, char_index=3, k=6, a=2.0, x=1.9)),
          chars=("odd",), k=("even", 0), twist=TWISTED)
_register("T2_3", "sec2",
          "bar-twist series, odd chi, even k >= 2, nu > 0",
          _single_nu, (
              dict(q=4, char_index=1, k=2, nu=0.25, a=1.0, x=0.75),
              dict(q=3, char_index=1, k=2, nu=0.7, a=0.5, x=1.9),
              dict(q=5, char_index=1, k=4, nu=1.0, a=2.0, x=0.3)),
          chars=("odd",), k=("even", 2), nu="positive", twist=BAR_TWISTED)
_register("T2_4", "sec2",
          "bar-twist series, odd chi, even k >= 2, nu = 0",
          _single_nu0, (
              dict(q=4, char_index=1, k=2, a=1.0, x=0.3),
              dict(q=3, char_index=1, k=4, a=1.0, x=0.75),
              dict(q=7, char_index=3, k=6, a=2.0, x=1.9)),
          chars=("odd",), k=("even", 2), twist=BAR_TWISTED)
_register("T2_5", "sec2",
          "weight-k series, even chi, odd k >= 1, nu > 0",
          _single_nu, (
              dict(q=5, char_index=2, k=1, nu=0.6, a=1.0, x=0.75),
              dict(q=8, char_index=1, k=3, nu=0.25, a=1.0, x=0.3),
              dict(q=7, char_index=2, k=5, nu=1.3, a=2.0, x=1.9),
              dict(q=7, char_index=4, k=1, nu=0.5, a=0.5, x=0.75)),
          chars=("even",), k=("odd", 1), nu="positive", twist=TWISTED)
_register("T2_6", "sec2",
          "weight-k series, even chi, odd k >= 1, nu = 0",
          _single_nu0, (
              dict(q=5, char_index=2, k=1, a=1.0, x=0.3),
              dict(q=8, char_index=1, k=3, a=0.5, x=1.9),
              dict(q=7, char_index=2, k=5, a=2.0, x=0.75)),
          chars=("even",), k=("odd", 1), twist=TWISTED)
_register("T2_7", "sec2",
          "bar-twist series, even chi, odd k >= 1, nu > 0",
          _single_nu, (
              dict(q=5, char_index=2, k=1, nu=0.25, a=1.0, x=0.75),
              dict(q=8, char_index=1, k=3, nu=0.7, a=2.0, x=0.3),
              dict(q=7, char_index=4, k=5, nu=0.5, a=2.0, x=1.9)),
          chars=("even",), k=("odd", 1), nu="positive", twist=BAR_TWISTED)
_register("T2_8", "sec2",
          "bar-twist series, even chi, odd k >= 1, nu = 0",
          _single_nu0, (
              dict(q=5, char_index=2, k=1, a=1.0, x=0.75),
              dict(q=8, char_index=1, k=3, a=0.5, x=1.9),
              dict(q=7, char_index=2, k=5, a=2.0, x=0.3)),
          chars=("even",), k=("odd", 1), twist=BAR_TWISTED)
_register("T2_9", "sec2",
          "two odd characters, k = 0, nu = 0: log kernel over n(n^2-c^2)",
          _t2_9, (
              dict(p=3, char_index=1, q=4, char2_index=1, a=1.0, x=0.75),
              dict(p=3, char_index=1, q=5, char2_index=1, a=0.5, x=1.9),
              dict(p=4, char_index=1, q=7, char2_index=3, a=1.0, x=0.3)),
          chars=("odd", "odd"), excluded="a^2*p*q*x/(16*pi^2)")
_register("T2_10", "sec2",
          "two matched-parity characters, odd k, nu > 0",
          _pair_nu, (
              dict(p=5, char_index=2, q=7, char2_index=2, k=1, nu=0.6, a=1.0, x=0.75),
              dict(p=3, char_index=1, q=4, char2_index=1, k=3, nu=0.25, a=1.0, x=0.3),
              dict(p=8, char_index=1, q=5, char2_index=2, k=5, nu=1.0, a=2.0, x=1.9)),
          chars=(None, None), pair="matched", k=("odd", 1), nu="positive")
_register("T2_11", "sec2",
          "two matched-parity characters, odd k, nu = 0",
          _pair_nu0, (
              dict(p=5, char_index=2, q=7, char2_index=2, k=1, a=1.0, x=0.3),
              dict(p=3, char_index=1, q=4, char2_index=1, k=3, a=1.0, x=1.9),
              dict(p=8, char_index=1, q=5, char2_index=2, k=5, a=2.0, x=0.75)),
          chars=(None, None), pair="matched", k=("odd", 1))
_register("T2_12", "sec2",
          "two even characters, k = 0, nu = 0: log kernel over (n^2-c^2)",
          _t2_12, (
              dict(p=5, char_index=2, q=8, char2_index=1, a=1.0, x=0.75),
              dict(p=5, char_index=2, q=7, char2_index=2, a=0.5, x=1.9),
              dict(p=7, char_index=2, q=7, char2_index=4, a=1.0, x=0.3)),
          chars=("even", "even"), excluded="a^2*p*q*x/(16*pi^2)")
_register("T2_13", "sec2",
          "single even character, k = 0, nu = 0: log kernel identity",
          _t2_13, (
              dict(q=5, char_index=2, a=1.0, x=0.3),
              dict(q=8, char_index=1, a=0.5, x=1.9),
              dict(q=7, char_index=2, a=1.0, x=0.75),
              dict(q=7, char_index=4, a=2.0, x=0.3)),
          chars=("even",), excluded="a^2*q*x/(16*pi^2)")
_register("T2_14", "sec2",
          "two mixed-parity characters, even k >= 0, nu > 0",
          _pair_nu, (
              dict(p=5, char_index=2, q=4, char2_index=1, k=0, nu=0.6, a=1.0, x=0.75),
              dict(p=3, char_index=1, q=5, char2_index=2, k=2, nu=0.25, a=1.0, x=0.3),
              dict(p=8, char_index=3, q=7, char2_index=2, k=4, nu=1.0, a=2.0, x=1.9)),
          chars=(None, None), pair="mixed", k=("even", 0), nu="positive")
_register("T2_15", "sec2",
          "two mixed-parity characters, even k >= 0, nu = 0",
          _pair_nu0, (
              dict(p=5, char_index=2, q=4, char2_index=1, k=0, a=1.0, x=0.3),
              dict(p=3, char_index=1, q=5, char2_index=2, k=2, a=1.0, x=1.9),
              dict(p=8, char_index=1, q=3, char2_index=1, k=4, a=2.0, x=0.75)),
          chars=(None, None), pair="mixed", k=("even", 0))
_register("C2_1", "sec2",
          "equal characters: chi(n) sigma_k(n) series, odd k, nu > 0",
          _pair_nu, (
              dict(q=5, char_index=2, k=1, nu=0.6, a=1.0, x=0.75),
              dict(q=4, char_index=1, k=3, nu=0.25, a=1.0, x=0.3),
              dict(q=7, char_index=3, k=1, nu=1.3, a=2.0, x=1.9)),
          chars=("primitive",), k=("odd", 1), nu="positive")
_register("C2_2", "sec2",
          "equal characters: chi(n) sigma_k(n) series, odd k, nu = 0",
          _pair_nu0, (
              dict(q=5, char_index=2, k=1, a=1.0, x=0.3),
              dict(q=4, char_index=1, k=3, a=1.0, x=1.9),
              dict(q=7, char_index=3, k=5, a=2.0, x=0.75)),
          chars=("primitive",), k=("odd", 1))
_register("P1_1", "classical",
          "character-free weight -nu identity with rational Cohen tail",
          _p1_1, (
              dict(nu=0.25, N=1, x=0.3),
              dict(nu=0.3, N=2, x=0.75),
              dict(nu=1.3, N=2, x=1.9),
              dict(nu=2.5, N=2, x=0.45)),
          nu="cohen", excluded="x")
_register("T3_1", "cohen",
          "weight -nu series, even chi: zeta * L head and rational tail",
          _cohen_single, _cohen_points(dict(q=5, char_index=2, x=0.21)),
          chars=("even",), nu="cohen", excluded="q*x", twist=TWISTED)
_register("T3_2", "cohen",
          "bar-twist weight -nu series, even chi",
          _cohen_single, _cohen_points(dict(q=5, char_index=2, x=0.21)),
          chars=("even",), nu="cohen", excluded="q*x", twist=BAR_TWISTED)
_register("T3_3", "cohen",
          "weight -nu series, odd chi",
          _cohen_single, _cohen_points(dict(q=5, char_index=1, x=0.21)),
          chars=("odd",), nu="cohen", excluded="q*x", twist=TWISTED)
_register("T3_4", "cohen",
          "bar-twist weight -nu series, odd chi",
          _cohen_single, _cohen_points(dict(q=3, char_index=1, x=0.41)),
          chars=("odd",), nu="cohen", excluded="q*x", twist=BAR_TWISTED)
_register("T3_5", "cohen",
          "two even characters, weight -nu",
          _cohen_pair, _cohen_points(dict(p=5, char_index=2, q=7, char2_index=2, x=0.021)),
          chars=("even", "even"), nu="cohen", excluded="p*q*x")
_register("T3_6", "cohen",
          "two odd characters, weight -nu",
          _cohen_pair, _cohen_points(dict(p=3, char_index=1, q=4, char2_index=1, x=0.11)),
          chars=("odd", "odd"), nu="cohen", excluded="p*q*x")
_register("T3_7", "cohen",
          "even chi1 with odd chi2, weight -nu",
          _cohen_pair, _cohen_points(dict(p=5, char_index=2, q=4, char2_index=1, x=0.061)),
          chars=("even", "odd"), nu="cohen", excluded="p*q*x")
_register("T3_8", "cohen",
          "odd chi1 with even chi2, weight -nu",
          _cohen_pair, _cohen_points(dict(p=3, char_index=1, q=5, char2_index=2, x=0.081)),
          chars=("odd", "even"), nu="cohen", excluded="p*q*x")
_register("C3_1", "cohen-half",
          "nu = 1/2 exponential form, even chi, plain twist",
          _cohen_half, (
              dict(q=5, char_index=2, x=0.21),
              dict(q=7, char_index=2, x=0.13),
              dict(q=8, char_index=1, x=0.33)),
          chars=("even",), nu="half", excluded="q*x", twist=TWISTED)
_register("C3_2", "cohen-half",
          "nu = 1/2 exponential form, even chi, bar twist",
          _cohen_half, (
              dict(q=5, char_index=2, x=0.21),
              dict(q=7, char_index=4, x=0.13),
              dict(q=8, char_index=1, x=0.33)),
          chars=("even",), nu="half", excluded="q*x", twist=BAR_TWISTED)
_register("C3_3", "cohen-half",
          "nu = 1/2 exponential form, odd chi, plain twist",
          _cohen_half, (
              dict(q=5, char_index=1, x=0.21),
              dict(q=4, char_index=1, x=0.13),
              dict(q=3, char_index=1, x=0.33)),
          chars=("odd",), nu="half", excluded="q*x", twist=TWISTED)
_register("C3_4", "cohen-half",
          "nu = 1/2 exponential form, odd chi, bar twist",
          _cohen_half, (
              dict(q=5, char_index=1, x=0.21),
              dict(q=4, char_index=1, x=0.13),
              dict(q=3, char_index=1, x=0.33)),
          chars=("odd",), nu="half", excluded="q*x", twist=BAR_TWISTED)
_register("C3_5", "cohen",
          "equal even characters, weight -nu",
          _cohen_pair, tuple(dict(q=5, char_index=2, x=0.021, nu=nuv, N=Nv)
                                 for nuv, Nv in ((0.25, 1), (0.3, 2), (0.45, 1))),
          chars=("even",), nu="cohen", excluded="q^2*x")
_register("C3_6", "cohen",
          "equal odd characters, weight -nu",
          _cohen_pair, tuple(dict(p=4, char_index=1, x=0.051, nu=nuv, N=Nv)
                                 for nuv, Nv in ((0.25, 1), (0.3, 2), (0.45, 1))),
          chars=("odd",), modulus="p", nu="cohen", excluded="p^2*x")
_register("T4_1", "voronoi",
          "summation formula, even chi, bar-twist finite sum",
          _voronoi_single, _voronoi_points(dict(q=5, char_index=2)),
          chars=("even",), nu="voronoi", twist=TWISTED)
_register("T4_2", "voronoi",
          "summation formula, even chi, plain-twist finite sum",
          _voronoi_single, _voronoi_points(dict(q=5, char_index=2)),
          chars=("even",), nu="voronoi", twist=BAR_TWISTED)
_register("T4_3", "voronoi",
          "summation formula, odd chi, bar twist over j",
          _voronoi_single, _voronoi_points(dict(q=5, char_index=1)),
          chars=("odd",), nu="voronoi", twist=TWISTED)
_register("T4_4", "voronoi",
          "summation formula, odd chi, plain twist",
          _voronoi_single, _voronoi_points(dict(q=5, char_index=1)),
          chars=("odd",), nu="voronoi", twist=BAR_TWISTED)
_register("T4_5", "voronoi",
          "summation formula, two even characters",
          _voronoi_pair, _voronoi_points(dict(p=5, char_index=2, q=7, char2_index=2)),
          chars=("even", "even"), nu="voronoi")
_register("T4_6", "voronoi",
          "summation formula, two odd characters, over j",
          _voronoi_pair, _voronoi_points(dict(p=3, char_index=1, q=4, char2_index=1)),
          chars=("odd", "odd"), nu="voronoi")
_register("T4_7", "voronoi",
          "summation formula, even chi1 with odd chi2",
          _voronoi_pair, _voronoi_points(dict(p=5, char_index=2, q=4, char2_index=1)),
          chars=("even", "odd"), nu="voronoi")
_register("T4_8", "voronoi",
          "summation formula, odd chi1 with even chi2",
          _voronoi_pair, _voronoi_points(dict(p=4, char_index=1, q=5, char2_index=2)),
          chars=("odd", "even"), nu="voronoi")
_register("C4_1", "voronoi",
          "equal even characters summation formula",
          _voronoi_pair, (
              dict(q=5, char_index=2, nu=0.25, alpha=0.5, beta=3.4, f="exp"),
              dict(q=5, char_index=2, nu=0.25, alpha=1.3, beta=5.7, f="t2")),
          chars=("even",), nu="voronoi")
_register("C4_2", "voronoi",
          "equal odd characters summation formula",
          _voronoi_pair, (
              dict(q=5, char_index=1, nu=0.25, alpha=0.5, beta=3.4, f="exp"),
              dict(q=3, char_index=1, nu=0.25, alpha=1.3, beta=5.7, f="gauss")),
          chars=("odd",), nu="voronoi")


def verify(case: IdentityCase, tol: float | None = None) -> VerificationReport:
    """Verify one identity instance and report the residual."""
    entry = THEOREMS.get(case.theorem)
    if entry is None:
        raise DomainError(
            f"unknown theorem id {case.theorem!r}; valid ids: {', '.join(sorted(THEOREMS))}")
    if tol is None:
        tol = DEFAULT_TOLERANCES[entry.section]
    t0 = time.perf_counter()
    lhs, rhs, lterms, rterms = entry.evaluate(tol, **_check(entry, case))
    wall = (time.perf_counter() - t0) * 1000.0
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / abs(lhs) if lhs != 0 else math.inf
    cutoff = _ABS_CUTOFF.get(entry.section, _ABS_CUTOFF_DEFAULT)
    err = abs_err if abs(lhs) < cutoff else rel_err
    return VerificationReport(case, lhs, rhs, abs_err, rel_err,
                              lterms, rterms, bool(err <= tol), tol, wall)


def default_cases(selector=None) -> list[IdentityCase]:
    """All registered default parameter points, optionally filtered.

    selector: None or 'all' for everything, a prefix string ('T3'), or an
    iterable of theorem ids.
    """
    if selector is None or selector == "all":
        wanted = list(THEOREMS)
    elif isinstance(selector, str):
        wanted = [tid for tid in THEOREMS if tid.startswith(selector)]
    else:
        wanted = [tid for tid in selector]
        for tid in wanted:
            if tid not in THEOREMS:
                raise DomainError(
                    f"unknown theorem id {tid!r}; valid ids: {', '.join(sorted(THEOREMS))}")
    out = []
    for tid in wanted:
        for point in THEOREMS[tid].points:
            out.append(IdentityCase(theorem=tid, **point))
    return out


def _verify_for_pool(args):
    case, tol = args
    return verify(case, tol)


def run_suite(selector=None, tol_profile: dict | None = None,
              workers: int = 1) -> list[VerificationReport]:
    """Verify every registered case matching the selector.

    Individual failures are reported, not raised.  Results keep the
    deterministic registry ordering regardless of worker count.
    """
    profile = dict(DEFAULT_TOLERANCES)
    if tol_profile:
        profile.update(tol_profile)
    cases = default_cases(selector)
    jobs = [(case, profile[THEOREMS[case.theorem].section]) for case in cases]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_verify_for_pool, jobs))
    return [_verify_for_pool(job) for job in jobs]


def positivity_scan(q_max: int) -> list[tuple[int, int, float]]:
    """(q, index, L(1, chi)) for every real primitive non-principal chi
    with modulus up to q_max."""
    if q_max < 3:
        raise DomainError("positivity scan needs q_max >= 3")
    out = []
    for q in range(3, q_max + 1):
        for chi in enumerate_characters(q):
            if chi.is_real and chi.is_primitive and not chi.is_principal:
                out.append((q, chi.index, dirichlet_L(1.0, chi).real))
    return out


def report_record(report: VerificationReport) -> dict:
    """The report as a strict-JSON record: rel_err is None when lhs = 0."""
    return {
        "theorem_id": report.case.theorem,
        "params": report.case.params(),
        "lhs_re": report.lhs.real,
        "lhs_im": report.lhs.imag,
        "rhs_re": report.rhs.real,
        "rhs_im": report.rhs.imag,
        "abs_err": report.abs_err,
        "rel_err": report.rel_err if math.isfinite(report.rel_err) else None,
        "pass": report.passed,
        "terms": report.lhs_terms + report.rhs_terms,
        "wall_ms": report.wall_ms,
    }


def write_reports(reports: list[VerificationReport], path: str,
                  fmt: str = "jsonl") -> None:
    """Serialize reports: 'jsonl' for one record per line, 'json' for a
    single document."""
    records = [report_record(r) for r in reports]
    with open(path, "w", encoding="utf-8") as fh:
        if fmt == "jsonl":
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True, allow_nan=False) + "\n")
        elif fmt == "json":
            json.dump({"reports": records}, fh, sort_keys=True, indent=1,
                      allow_nan=False)
            fh.write("\n")
        else:
            raise DomainError(f"unknown report format {fmt!r}")
