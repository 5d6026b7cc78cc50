"""The identity registry and verification driver.

Every registered identity equates a K-Bessel-weighted twisted divisor
series (or, for the summation formulas, a finite weighted sum) with a
closed-form side built from Gamma/zeta/L values, Gauss sums and an
auxiliary rational-tail series.  verify() assembles the two sides along
independent code paths - _divisor_side lists the terms of every divisor
side from two character slots, the entry's evaluator those of the
closed-form side, which reads the case's tol only to size the Voronoi
kernel series, and _closed_side alone sums both lists - and reports the
residual.

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
wrong answer.  Each formula family shares one closed-form evaluator.
"""

from __future__ import annotations

import json
import math
import numbers
import reprlib
import sys
import time
from dataclasses import dataclass, fields
from typing import Callable, TextIO, get_args, get_type_hints

import numpy as np

from .arith import DivisorSumSpec, coefficient_array
from .characters import TRIVIAL, Character, enumerate_characters, gauss_sum
from .errors import (ConvergenceError, DomainError, ExcludedParameter, HypothesisError,
                     TblabError, term_cap, within_budget)
from .series import (
    SeriesResult,
    _refuse_integer,
    adaptive_integral,
    bessel_series,
    cohen_tail_series,
    log_kernel_series,
    oscillatory_kernel_integrals,
    shifted_power_series,
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
        for field in fields(self)[1:]:  # theorem, the one required field, is first
            val = getattr(self, field.name)
            if val is not None:
                out[field.name] = val
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
    error: str | None = None  # "ErrorClass: message" when verify raised


def _arg(t) -> np.ndarray:
    """t as an array, float unless it is complex."""
    t = np.asarray(t)
    return t if np.iscomplexobj(t) else t.astype(float)


# test functions for the summation formulas: entire, so the analyticity
# hypothesis is satisfied on any interval; they take complex arguments,
# which the kernel integrals' endpoint expansion needs
TEST_FUNCTIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "one": lambda t: np.ones_like(_arg(t)),
    "t": lambda t: _arg(t),
    "t2": lambda t: _arg(t) ** 2,
    "t3": lambda t: _arg(t) ** 3,
    "t4": lambda t: _arg(t) ** 4,
    "exp": lambda t: np.exp(-_arg(t)),
    "gauss": lambda t: np.exp(-_arg(t) ** 2 / 4.0),
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


def _graded_err(section: str, lhs: complex, abs_err: float, rel_err: float) -> float:
    """What the pass rule compares with tol: rel_err, or abs_err where
    |lhs| is below the section's cutoff."""
    return abs_err if abs(lhs) < _ABS_CUTOFF.get(section, _ABS_CUTOFF_DEFAULT) else rel_err

# the N of the kernel series' first round, which sums 2N terms
VORONOI_KERNEL_TERMS = 2500
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


# T of each parameter field's annotation T | None, in field order (the
# CLI's verify flags), and the values each T admits
_PARAM_TYPES = {name: get_args(hint)[0]
               for name, hint in get_type_hints(IdentityCase).items() if name != "theorem"}
_ADMITS = {int: numbers.Integral, float: numbers.Real, str: str}


def _admit(name: str, val, want: type, positive: bool = False) -> None:
    """Refuse val unless it is a want (int, float or str), not a bool, and,
    if a number, finite (exactly, for any int) and, if positive, > 0."""
    if isinstance(val, bool) or not isinstance(val, _ADMITS[want]):
        raise DomainError(f"{name} must be of type {want.__name__}, got {reprlib.repr(val)}")
    if want is not str and not (abs(val) <= sys.float_info.max and (val > 0 or not positive)):
        bound = " > 0" if positive else ""
        raise DomainError(f"{name} must be a finite number{bound}, got {reprlib.repr(val)}")


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
    the divisor side and the evaluator take those they use and ignore the
    rest.  Every entry resolves to the two character slots chi1, chi2 with
    moduli p, q: an equal-character corollary takes chi in both, a
    one-character theorem chi and TRIVIAL as its twist places them, and
    P1_1 TRIVIAL in both.  A field of the wrong type, and one the entry
    never reads, is refused."""
    for name, val in given.params().items():
        _admit(name, val, _PARAM_TYPES[name])
    case = _Reads(given)
    r = {"twist": entry.twist}
    if len(entry.chars) == 1:
        m = getattr(case, entry.modulus)
        r["chi"] = chi = _get_char(m, case.char_index, entry.tid)
        _req_character(chi, entry.chars[0], "chi")
        slots = _with_trivial(entry.twist, chi, m) if entry.twist else (chi, chi, m, m)
    elif entry.chars:
        chi1 = _get_char(case.p, case.char_index, entry.tid + " (chi1)")
        chi2 = _get_char(case.q, case.char2_index, entry.tid + " (chi2)")
        _req_character(chi1, entry.chars[0], "chi1")
        _req_character(chi2, entry.chars[1], "chi2")
        if entry.pair:
            _req_pair(entry.pair, chi1, chi2)
        slots = (chi1, chi2, case.p, case.q)
    else:
        slots = (TRIVIAL, TRIVIAL, 1, 1)
    r.update(zip(("chi1", "chi2", "p", "q"), slots))
    if entry.k:
        parity, minimum = entry.k
        k = case.k
        _req(k is not None and k >= minimum, f"k must be an integer >= {minimum}")
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
            if abs(val - round(val)) <= 1e-9 and round(val) >= 1:
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
    if "a" in r:  # the shift of the closed-form tails
        r["c"] = r["a"] * r["a"] * (r["p"] * r["q"]) * r["x"] / (16.0 * PI * PI)
    if entry.excluded:  # c, or p q x where no a is given
        _refuse_integer(r["c"] if "c" in r else r["p"] * r["q"] * r["x"], entry.excluded)
    unread = [name for name in given.params() if name not in case.read]
    if unread:
        raise DomainError(f"{entry.tid} does not take the parameter(s) {', '.join(unread)}")
    return r


# -- common building blocks ------------------------------------------------


def _tau(chi: Character) -> complex:
    return gauss_sum(chi).value


def _unit(k: int) -> complex:
    """(-1)^{floor(k/2)}, times i for even k (an odd character product)."""
    return (-1.0) ** (k // 2) * (1j if k % 2 == 0 else 1.0)


def _exp_half_sum(spec: DivisorSumSpec, x: float) -> SeriesResult:
    """sum f(n) e^{-4 pi sqrt(n x)} (nu = 1/2), cut at e^{-45}, uncertified: tail_bound inf."""
    lam = 4.0 * PI * math.sqrt(x)
    root = 45.0 / lam
    # root * root is inf where root ** 2 raises OverflowError (x < ~1e-305)
    n_max = within_budget(max(64.0, root * root + 8), "the e^{-4 pi sqrt(n x)} sum")
    coef = coefficient_array(spec, n_max)[1:]
    ns = np.arange(1, n_max + 1, dtype=float)
    return SeriesResult(complex(np.sum(coef * np.exp(-lam * np.sqrt(ns)))), n_max, math.inf)


def _finite_side(f, alpha: float, beta: float, spec: DivisorSumSpec,
                 over_j: bool) -> SeriesResult:
    """sum_{alpha<j<beta} f(j) g(j), over j if over_j: exact, so tail_bound 0."""
    lo, hi = math.floor(alpha) + 1, math.ceil(beta)
    count = within_budget(max(hi - 1, 0), "the finite sum over j < beta")
    js = np.arange(lo, hi, dtype=float)
    weights = coefficient_array(spec, count)[lo:]
    if over_j:
        weights = weights / js
    return SeriesResult(complex(np.sum(weights * f(js))), len(js), 0.0)


def _divisor_side(shape: str, tol: float, chi1, chi2, p, q, nu, k=0, a=None, x=None,
                  alpha=None, beta=None, f=None, **_) -> list:
    """Every identity's divisor side, listed as an evaluator lists its terms,
    by the shape its nu clause names: S = sum f(n) n^{nu/2} K_nu(a sqrt(n x)),
    f = (k, chi1, chi2), for "positive" and "zero"; 8 pi x^{nu/2} S at a = 4 pi,
    f = (-nu, chi1-bar, chi2-bar), for "cohen", and 2 pi S's elementary form for
    "half"; p^{1-nu/2} q^{1+nu/2}/(tau1 tau2) sum_{alpha<j<beta} f(j) g(j),
    g = (-nu, chi2, chi1), over j when chi1 is odd, for "voronoi"."""
    if shape == "voronoi":
        return [(p ** (1.0 - nu / 2.0) * q ** (1.0 + nu / 2.0) / (_tau(chi1) * _tau(chi2)),
                 _finite_side(f, alpha, beta, DivisorSumSpec(-nu, chi2, chi1), chi1.is_odd))]
    tol = min(1e-12, tol * 1e-3)
    if shape in ("positive", "zero"):
        return [bessel_series(DivisorSumSpec(k, chi1, chi2), a, x, nu, tol=tol)]
    spec = DivisorSumSpec(-nu, chi1.conjugate(), chi2.conjugate())
    if shape == "half":
        return [(TWO_PI, _exp_half_sum(spec, x))]
    return [(8.0 * PI * x ** (nu / 2.0), bessel_series(spec, 4.0 * PI, x, nu, tol=tol))]


def _closed_side(terms: list) -> tuple[complex, int]:
    """A side _divisor_side or an evaluator lists, and its terms: from the first
    term on, the sum of each plain value, bare stage (a SeriesResult; 1.0 * stage
    could flip a signed zero) and prefactor times a stage or a nested list."""
    total, count = None, 0
    for term in terms:
        if isinstance(term, SeriesResult):
            term, count = term.value, count + term.terms
        elif isinstance(term, tuple):
            pref, part = term
            value, n = _closed_side(part) if isinstance(part, list) else (part.value, part.terms)
            term, count = pref * value, count + n
        total = term if total is None else total + term
    return total, count


# the twist of a one-character series side, which names its theorem
_TWISTED, _BAR_TWISTED = "twisted", "bar-twisted"


def _with_trivial(twist: str, chi: Character, q: int) -> tuple:
    """(chi1, chi2, p, q) of a one-character series side: chi on d (chi1)
    under the plain twist, on n/d (chi2) under the bar twist, and TRIVIAL,
    the character mod 1 (L = zeta), in the other slot."""
    return (chi, TRIVIAL, q, 1) if twist == _TWISTED else (TRIVIAL, chi, 1, q)


# ===================== weight-k identities (nu > 0) ======================


def _pair_nu(chi1, chi2, p, q, k, nu, a, x, c, **_):
    """T2_10, T2_14, and C2_1 with chi1 = chi2: weight-k series of two
    characters."""
    tail = shifted_power_series(
        DivisorSumSpec(k, chi2.conjugate(), chi1.conjugate()),
        nu + k + 1.0, c)
    return [(-_unit(k) * (a * q) ** nu * p ** (nu + k) * x ** (nu / 2.0)
             / (2.0 ** (3.0 * nu + k + 2.0) * PI ** (2.0 * nu + k + 1.0))
             * gamma(nu + k + 1.0) * _tau(chi1) * _tau(chi2), tail)]


def _single_nu(twist, chi, k, nu, a, x, **slots):
    """T2_1, T2_3, T2_5, T2_7: T2_10 and T2_14 with the trivial character
    in one slot, plus the terms of its zeta(s)."""
    pair = _pair_nu(k=k, nu=nu, a=a, x=x, **slots)
    if twist != _TWISTED:
        return [2.0 ** (nu + 2.0 * k + 1.0) / a ** (nu + 2.0 * k + 2.0)
                * math.factorial(k) * gamma(nu + k + 1.0)
                * dirichlet_L(1.0 + k, chi) * x ** (-nu / 2.0 - k - 1.0)] + pair
    terms = [_unit(k) * chi.modulus ** k
             / (a ** nu * 2.0 ** (k + 2.0 - nu) * PI ** (k + 1.0))
             * gamma(nu) * _tau(chi) * math.factorial(k)
             * dirichlet_L(k + 1.0, chi.conjugate()) * x ** (-nu / 2.0)]
    if k == 0:  # T2_1: the pole term, proportional to L(1, chi)
        terms.append(2.0 ** (nu + 1.0) / a ** (nu + 2.0) * gamma(1.0 + nu)
                     * dirichlet_L(1.0, chi) * x ** (-nu / 2.0 - 1.0))
    return terms + pair


# ===================== weight-k identities (nu = 0) ======================


def _nu0_tail(chi1, chi2, p, k, c, **_):
    """The difference tail of T2_11, T2_15 and C2_2, with its prefactor."""
    tail = shifted_power_series(
        DivisorSumSpec(k, chi2.conjugate(), chi1.conjugate()),
        k + 1.0, c, difference_form=True)
    return (_unit(k) * math.factorial(k) * p ** k
            / (2.0 * TWO_PI ** (k + 1.0)) * (_tau(chi1) * _tau(chi2)), tail)


def _pair_nu0(chi1, chi2, k, **slots):
    """T2_11, T2_15, and C2_2 with chi1 = chi2: the nu = 0 forms of T2_10,
    T2_14 and C2_1."""
    # of the product-rule constant L'(-k, chi1) L(0, chi2) + L(-k, chi1)
    # L'(0, chi2) one summand vanishes: L(0, chi2) = 0 for an even chi2,
    # and L(-k, chi1) = 0 (a trivial zero) for an odd one
    if chi2.is_even:
        const = dirichlet_L(-float(k), chi1) * L_derivative(0.0, chi2)
    else:
        const = L_derivative(-float(k), chi1) * dirichlet_L(0.0, chi2)
    return [0.5 * const, _nu0_tail(chi1=chi1, chi2=chi2, k=k, **slots)]


def _single_nu0(twist, chi, k, a, x, **slots):
    """T2_2, T2_4, T2_6, T2_8: the nu = 0 forms of T2_1, T2_3, T2_5, T2_7,
    whose zeta(s) terms replace the product-rule constant of T2_11; they
    take the pair's tail."""
    if twist == _TWISTED:
        # -(1/4)[L(-k,chi)(log(8 pi/a^2) - 2 gamma - log x) + L'(-k,chi)]; as the pair's
        # constant it moved 6 of 7 records off the true rhs (T2_2 k = 6: 1.3e-13 to 8.4e-13)
        terms = [-0.25 * (dirichlet_L(-float(k), chi) * (math.log(8.0 * PI / (a * a))
                          - 2.0 * EULER_GAMMA - math.log(x)) + L_derivative(-float(k), chi))]
        if k == 0:  # T2_2: the pole term, proportional to L(1, chi)
            terms.append(2.0 / (a * a * x) * dirichlet_L(1.0, chi))
    else:
        terms = [2.0 ** (2 * k + 1) / a ** (2 * k + 2) * math.factorial(k) ** 2
                 * dirichlet_L(k + 1.0, chi) / x ** (k + 1.0),
                 # full product-rule constant; for the odd-character case the
                 # second summand vanishes (zeta trivial zero), for the
                 # even-character case the first does (L(0, chi) = 0)
                 0.5 * (zeta_derivative(-float(k)) * dirichlet_L(0.0, chi)
                        + riemann_zeta(-float(k)) * L_derivative(0.0, chi))]
    return terms + [_nu0_tail(k=k, **slots)]


# ================== log-kernel identities (k = 0, nu = 0) ================


def _t2_12(chi1, chi2, c, **_):
    kernel = log_kernel_series(
        DivisorSumSpec(0, chi1.conjugate(), chi2.conjugate()), c)
    return [(_tau(chi1) * _tau(chi2) * c / (2.0 * PI * PI), kernel)]


def _t2_13(chi, a, x, **slots):
    """T2_12 with chi2 the trivial character, plus the terms of its zeta(s)."""
    pair = _t2_12(**slots)
    return [2.0 / (a * a * x) * dirichlet_L(1.0, chi),
            -_tau(chi) / 8.0 * dirichlet_L(1.0, chi.conjugate())] + pair


def _t2_9(chi1, chi2, a, x, c, **_):
    kernel = log_kernel_series(
        DivisorSumSpec(0, chi1.conjugate(), chi2.conjugate()), c,
        over_n=True)
    l1, l2 = dirichlet_L(0.0, chi1), dirichlet_L(0.0, chi2)
    d1, d2 = L_derivative(0.0, chi1), L_derivative(0.0, chi2)
    return [0.5 * (l1 * l2 * (-2.0 * EULER_GAMMA + math.log(4.0 / (a * a * x)))
                   + d1 * l2 + l1 * d2),
            # proof-consistent constant: tau1 tau2 c^2/(2 pi^2) on log(c/n)
            (-_tau(chi1) * _tau(chi2) * c * c / (2.0 * PI * PI), kernel)]


# =================== weight -nu identities (Cohen type) ==================


def _cohen_stages(chi1, chi2, p, q, nu, N, x, **_):
    """Q = p q x, the head sum of L(s, chi2) L(s - nu, chi1) Q^{s-1} over
    s = 2j, j <= N (s = 2j + 1, j < N, for an odd chi2), Q^last on the tail
    (last = 2N + 1, or 2N) and the tail sum f(n) (n^w - Q^w)/(n^2 - Q^2),
    f = (-nu, chi2, chi1), over n too for an odd chi1, w = nu - 2N + [odd chis]."""
    Q, odd = p * q * x, int(chi2.is_odd)
    tail = cohen_tail_series(DivisorSumSpec(-nu, chi2, chi1),
                             nu - 2 * N + (int(chi1.is_odd) + odd), Q, over_n=chi1.is_odd)
    head = sum(dirichlet_L(s, chi2) * dirichlet_L(s - nu, chi1) * Q ** (s - 1.0)
               for s in range(2 + odd, 2 * N + 1, 2))
    return Q, head, Q ** (2 * N + 1 - odd), tail


def _p1_1(nu, x, **slots):
    """P1_1: _cohen_stages with the trivial character in both slots."""
    sn, cs = math.sin(PI * nu / 2.0), math.cos(PI * nu / 2.0)
    _, head, xlast, tail = _cohen_stages(nu=nu, x=x, **slots)
    return [-gamma(nu) * riemann_zeta(nu) / TWO_PI ** (nu - 1.0),
            gamma(1.0 + nu) * riemann_zeta(1.0 + nu) / (PI ** (nu + 1.0) * 2.0 ** nu * x),
            riemann_zeta(nu) * x ** (nu - 1.0) / sn,
            2.0 / sn * head,
            -PI * riemann_zeta(nu + 1.0) * x ** nu / cs,
            (2.0 / sn * xlast, tail)]


def _cohen_single(twist, chi, nu, x, **slots):
    """T3_1..T3_4: weight -nu series of one character.

    The plain twist (T3_1, T3_3) is T3_5..T3_8 with chi2 the trivial
    character, plus the terms from the pole of its zeta(s).  Under the
    bar twist (T3_2, T3_4) the pole terms join the head sum inside one
    bracket, which cancels to far below its terms, so it is summed as
    stated; an odd chi takes cos for sin, a factor i and the odd ladder.
    """
    cb, odd, q = chi.conjugate(), chi.is_odd, chi.modulus
    if twist == _TWISTED:  # the pair's chi2 is TRIVIAL, so its list is one bracket
        pair = _cohen_pair(nu=nu, x=x, **slots)
        return [-gamma(nu) * dirichlet_L(nu, cb) / TWO_PI ** (nu - 1.0),
                2.0 * gamma(1.0 + nu) * dirichlet_L(1.0 + nu, cb)
                / (TWO_PI ** (nu + 1.0) * x)] + pair
    qx, head, qlast, tail = _cohen_stages(nu=nu, x=x, **slots)
    sn, cs = math.sin(PI * nu / 2.0), math.cos(PI * nu / 2.0)
    trig, cotrig = (cs, sn) if odd else (sn, cs)
    inner = [dirichlet_L(nu, chi) * qx ** (nu - 1.0) / trig,
             (1.0 if odd else -1.0) * PI * dirichlet_L(1.0 + nu, chi) * qx ** nu / cotrig,
             2.0 / trig * head,
             (2.0 / trig * qlast, tail)]
    if odd:  # T3_4
        return [2.0 * gamma(nu) * riemann_zeta(nu) * dirichlet_L(0.0, cb) / TWO_PI ** (nu - 1.0),
                (1j * q / _tau(chi), inner)]
    return [(q / _tau(chi), inner)]  # T3_2


def _cohen_pair(chi1, chi2, p, q, nu, **slots):
    """T3_5..T3_8, and C3_5, C3_6 with chi1 = chi2: weight -nu series of
    two characters.

    The parities tell the formulas apart.  An odd chi1 chi2 takes cos for
    sin and a factor i; an odd chi2 the odd ladder and the L(nu, chi1-bar)
    L(0, chi2-bar) term; an odd chi1 the L(1 + nu, chi2) L(1, chi1) term
    and the 1/n tail.
    """
    pqx, head, plast, tail = _cohen_stages(chi1, chi2, p, q, nu, **slots)
    if chi1.is_odd:
        inner = [dirichlet_L(nu + 1.0, chi2) * dirichlet_L(1.0, chi1) * pqx ** nu,
                 -head, (-plast, tail)]
    else:
        inner = [head, (plast, tail)]
    terms = [2.0 * gamma(nu) * dirichlet_L(nu, chi1.conjugate())
             * dirichlet_L(0.0, chi2.conjugate()) / TWO_PI ** (nu - 1.0)] if chi2.is_odd else []
    two, trig = (2.0, math.sin) if chi1.parity == chi2.parity else (2.0j, math.cos)
    return terms + [(two * p ** (1.0 - nu) * q / (_tau(chi1) * _tau(chi2) * trig(PI * nu / 2.0)),
                     inner)]


# ---- elementary nu = 1/2 specializations --------------------------------


def _cohen_half(twist, chi, x, **slots):
    """C3_1..C3_4: the elementary nu = 1/2 forms of T3_1..T3_4, with the
    tail of _cohen_stages at N = 0, but C3_4's at N = 1: it is stated with
    the least admissible N, and its tail converges only from N = 1 on."""
    cb, odd, tau, q = chi.conjugate(), chi.is_odd, _tau(chi), chi.modulus
    qx, _, _, tail = _cohen_stages(N=int(odd and twist == _BAR_TWISTED), x=x, **slots)
    if twist == _TWISTED:
        terms = [-PI * dirichlet_L(0.5, cb), dirichlet_L(1.5, cb) / (4.0 * PI * x)]
        if odd:  # C3_3
            return terms + [
                2.0j * q / tau * riemann_zeta(1.5) * dirichlet_L(1.0, chi) * math.sqrt(x),
                (-2.0j * q ** 1.5 * x / tau, tail)]
        return terms + [(2.0 * q ** 1.5 * x / tau, tail)]  # C3_1
    if odd:  # C3_4
        return [TWO_PI * riemann_zeta(0.5) * dirichlet_L(0.0, cb),
                1j * q ** 0.5 / tau * dirichlet_L(0.5, chi) / math.sqrt(x),
                1j * PI * q ** 1.5 / tau * dirichlet_L(1.5, chi) * math.sqrt(x),
                (2.0j * q * qx * qx / tau, tail)]
    return [q ** 0.5 / tau * dirichlet_L(0.5, chi) / math.sqrt(x),  # C3_2
            -PI * q ** 1.5 / tau * dirichlet_L(1.5, chi) * math.sqrt(x),
            (2.0 * q * q * x / tau, tail)]


# ====================== summation formulas (section 4) ====================


def _riesz_mean(terms: np.ndarray, order: float) -> complex:
    """Riesz mean sum_{n<=N} a_n (1 - n/N)^order of the series sum a_n,
    with N = len(terms).

    It sums a conditionally convergent series whose partial sums
    oscillate about the limit, with a bias of order (order / N).
    """
    n = len(terms)
    weights = (1.0 - np.arange(1, n + 1, dtype=float) / n) ** order
    # not np.dot: OpenBLAS hands a dot product this long to worker threads,
    # which then spin on another core for about 0.13 s after it returns
    return complex(np.einsum("i,i->", terms, weights))


# the Voronoi kernel stage's variant, series prefactor and shift [chi1 odd]
# of the kernel exponent -nu/2, by the parities (chi1 odd, chi2 odd)
_VORONOI_KERNELS = {
    (False, False): ("even-cos", TWO_PI, 0.0),
    (True, True): ("plus-y-cos", -TWO_PI, 1.0),
    (False, True): ("plus-y-sin", 2j * PI, 0.0),
    (True, False): ("odd-sin", -2j * PI, 1.0),
}


def _kernel_expansion(chi1, chi2, p, q, nu, alpha, beta, f, main=0.0,
                      tol=DEFAULT_TOLERANCES["voronoi"], **_) -> tuple[complex, SeriesResult]:
    """The Voronoi kernel stage: (pref, the series sum_n a_n), pref that of
    the parities' _VORONOI_KERNELS row, a_n = g(n) n^{nu/2} I_n, g = (-nu,
    chi1-bar, chi2-bar), I_n the integral of f(t) t^{-nu/2 - [chi1 odd]}
    times the row's kernel at 4 pi sqrt(n t/(p q)) over (alpha, beta), and
    the series the Richardson extrapolant x(M) = 2 R(M) - R(M/2) of its
    Riesz means R(M) = sum_{n<=M} a_n (1 - n/M)^kappa, kappa =
    VORONOI_RIESZ_ORDER.

    R(M) misses the limit by a bias of order kappa/M, which x(M) cancels.
    Rounds double N from min(VORONOI_KERNEL_TERMS, term_cap() // 2); a
    round has the terms n <= 2N, and stops the series once
    |pref| |x(2N) - x(N)| <= (tol/4) max(1, |main + pref x(2N)|), that is,
    against the rhs, of which main is the rest.  The series is x(2N), a
    SeriesResult of 2N terms whose tail_bound |x(2N) - x(N)| is an
    estimate, not a certificate.  Where the estimate could not meet the
    target within term_cap() even if it fell like 1/N^2,
    ConvergenceError, naming the estimate and the terms reached.

    Each round keeps the new n of the whole coefficient array up to 2N,
    n in (N, 2N] (the first, all of them), and integrates only their
    scales, in one oscillatory_kernel_integrals call (by quadrature for
    the first few hundred n at most, in closed form from there on, from
    the endpoint expansion series keeps for the stage's f and interval).

    The weights damp the endpoint oscillation of the partial sums
    (quasi-period ~ sqrt(n q / alpha) terms near the truncation) smoothly
    to zero.  Against the finite sum, the worst graded error at the
    default tol is 1.4e-4, 2.9e-4 and 6.3e-4 at kappa = 3, 4 and 5 over
    the registered points, and 1.2e-4, 6.8e-4 and 7.0e-5 with f = t, t^3
    on (1.3, 5.7) for T4_3..T4_8 and C4_1.
    """
    variant, pref, shift = _VORONOI_KERNELS[chi1.is_odd, chi2.is_odd]
    spec = DivisorSumSpec(-nu, chi1.conjugate(), chi2.conjugate())
    scale, t_exp = 4.0 * PI / math.sqrt(p * q), -nu / 2.0 - shift
    cap = term_cap()
    n = min(VORONOI_KERNEL_TERMS, cap // 2)  # >= 1: the value tables refuse a cap below 3
    n_last = n
    while 4 * n_last <= cap:
        n_last *= 2
    terms = np.zeros(0, dtype=complex)
    while True:
        lo, hi = len(terms), 2 * n
        coef = coefficient_array(spec, hi)[lo + 1:]
        ns = np.arange(lo + 1, hi + 1, dtype=float)
        live = coef != 0
        fresh = np.zeros(hi - lo, dtype=complex)
        fresh[live] = coef[live] * ns[live] ** (nu / 2.0) * oscillatory_kernel_integrals(
            f, alpha, beta, nu, scale * np.sqrt(ns[live]), t_exp, variant)
        terms = np.concatenate((terms, fresh))
        r_quarter, r_half, r = (_riesz_mean(terms[:m], VORONOI_RIESZ_ORDER)
                                for m in (n // 2, n, hi))
        x, x_half = 2.0 * r - r_half, 2.0 * r_half - r_quarter
        estimate = abs(pref) * abs(x - x_half)
        target = tol / 4.0 * max(1.0, abs(main + pref * x))
        if estimate <= target:
            return pref, SeriesResult(x, hi, abs(x - x_half))
        if estimate * (n / n_last) ** 2 > target:
            raise ConvergenceError(
                f"Voronoi kernel series: estimate {estimate:.3g} above {target:.3g} "
                f"after {hi} terms, out of reach within the term budget of {cap}")
        n *= 2


def _voronoi_pair(**slots):
    """T4_5..T4_8, and C4_1, C4_2 with chi1 = chi2: summation formulas of
    two characters, the kernel stage alone."""
    return [_kernel_expansion(**slots)]


def _voronoi_single(twist, chi, nu, alpha, beta, f, **slots):
    """T4_1..T4_4: T4_5..T4_8 with the trivial character in one slot,
    plus the main term from the pole of its zeta(s).

    twist is that of the kernel series; the finite sum takes the other
    one, and with it the q^{1 -+ nu/2} prefactor and L(1 -+ nu, chi).
    """
    bar_side = twist == _TWISTED
    over_j = bar_side and chi.is_odd
    pref = chi.modulus ** (1.0 - nu / 2.0 if bar_side else 1.0 + nu / 2.0) / _tau(chi)
    main_power = (-nu if bar_side else 0.0) - (1.0 if over_j else 0.0)
    lmain = dirichlet_L(1.0 - nu if bar_side else 1.0 + nu, chi)
    main = pref * lmain * adaptive_integral(
        lambda t: f(t) * t ** main_power, alpha, beta, tol=1e-11)
    return [main, _kernel_expansion(nu=nu, alpha=alpha, beta=beta, f=f, main=main, **slots)]


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
      required for "positive" and "zero", x for all but "voronoi".  It
      also names the shape of the divisor side (_divisor_side).
    excluded: the name, for the message, of the expression that must not
      be a positive integer: c = a^2 p q x/(16 pi^2) where a is given,
      else p q x, with the resolved moduli.
    twist: the twist of a one-character theorem (T2_13's included),
      _TWISTED or _BAR_TWISTED; _check turns it into the two slots.
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
          chars=("odd",), k=("even", 0), nu="positive", twist=_TWISTED)
_register("T2_2", "sec2",
          "weight-k series, odd chi, even k >= 0, nu = 0: difference tail",
          _single_nu0, (
              dict(q=4, char_index=1, k=0, a=1.0, x=0.3),
              dict(q=3, char_index=1, k=2, a=0.5, x=1.9),
              dict(q=7, char_index=3, k=4, a=2.0, x=0.75),
              dict(q=5, char_index=3, k=6, a=2.0, x=1.9)),
          chars=("odd",), k=("even", 0), twist=_TWISTED)
_register("T2_3", "sec2",
          "bar-twist series, odd chi, even k >= 2, nu > 0",
          _single_nu, (
              dict(q=4, char_index=1, k=2, nu=0.25, a=1.0, x=0.75),
              dict(q=3, char_index=1, k=2, nu=0.7, a=0.5, x=1.9),
              dict(q=5, char_index=1, k=4, nu=1.0, a=2.0, x=0.3)),
          chars=("odd",), k=("even", 2), nu="positive", twist=_BAR_TWISTED)
_register("T2_4", "sec2",
          "bar-twist series, odd chi, even k >= 2, nu = 0",
          _single_nu0, (
              dict(q=4, char_index=1, k=2, a=1.0, x=0.3),
              dict(q=3, char_index=1, k=4, a=1.0, x=0.75),
              dict(q=7, char_index=3, k=6, a=2.0, x=1.9)),
          chars=("odd",), k=("even", 2), twist=_BAR_TWISTED)
_register("T2_5", "sec2",
          "weight-k series, even chi, odd k >= 1, nu > 0",
          _single_nu, (
              dict(q=5, char_index=2, k=1, nu=0.6, a=1.0, x=0.75),
              dict(q=8, char_index=1, k=3, nu=0.25, a=1.0, x=0.3),
              dict(q=7, char_index=2, k=5, nu=1.3, a=2.0, x=1.9),
              dict(q=7, char_index=4, k=1, nu=0.5, a=0.5, x=0.75)),
          chars=("even",), k=("odd", 1), nu="positive", twist=_TWISTED)
_register("T2_6", "sec2",
          "weight-k series, even chi, odd k >= 1, nu = 0",
          _single_nu0, (
              dict(q=5, char_index=2, k=1, a=1.0, x=0.3),
              dict(q=8, char_index=1, k=3, a=0.5, x=1.9),
              dict(q=7, char_index=2, k=5, a=2.0, x=0.75)),
          chars=("even",), k=("odd", 1), twist=_TWISTED)
_register("T2_7", "sec2",
          "bar-twist series, even chi, odd k >= 1, nu > 0",
          _single_nu, (
              dict(q=5, char_index=2, k=1, nu=0.25, a=1.0, x=0.75),
              dict(q=8, char_index=1, k=3, nu=0.7, a=2.0, x=0.3),
              dict(q=7, char_index=4, k=5, nu=0.5, a=2.0, x=1.9)),
          chars=("even",), k=("odd", 1), nu="positive", twist=_BAR_TWISTED)
_register("T2_8", "sec2",
          "bar-twist series, even chi, odd k >= 1, nu = 0",
          _single_nu0, (
              dict(q=5, char_index=2, k=1, a=1.0, x=0.75),
              dict(q=8, char_index=1, k=3, a=0.5, x=1.9),
              dict(q=7, char_index=2, k=5, a=2.0, x=0.3)),
          chars=("even",), k=("odd", 1), twist=_BAR_TWISTED)
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
          chars=("even",), excluded="a^2*q*x/(16*pi^2)", twist=_TWISTED)
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
          chars=("even",), nu="cohen", excluded="q*x", twist=_TWISTED)
_register("T3_2", "cohen",
          "bar-twist weight -nu series, even chi",
          _cohen_single, _cohen_points(dict(q=5, char_index=2, x=0.21)),
          chars=("even",), nu="cohen", excluded="q*x", twist=_BAR_TWISTED)
_register("T3_3", "cohen",
          "weight -nu series, odd chi",
          _cohen_single, _cohen_points(dict(q=5, char_index=1, x=0.21)),
          chars=("odd",), nu="cohen", excluded="q*x", twist=_TWISTED)
_register("T3_4", "cohen",
          "bar-twist weight -nu series, odd chi",
          _cohen_single, _cohen_points(dict(q=3, char_index=1, x=0.41)),
          chars=("odd",), nu="cohen", excluded="q*x", twist=_BAR_TWISTED)
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
          chars=("even",), nu="half", excluded="q*x", twist=_TWISTED)
_register("C3_2", "cohen-half",
          "nu = 1/2 exponential form, even chi, bar twist",
          _cohen_half, (
              dict(q=5, char_index=2, x=0.21),
              dict(q=7, char_index=4, x=0.13),
              dict(q=8, char_index=1, x=0.33)),
          chars=("even",), nu="half", excluded="q*x", twist=_BAR_TWISTED)
_register("C3_3", "cohen-half",
          "nu = 1/2 exponential form, odd chi, plain twist",
          _cohen_half, (
              dict(q=5, char_index=1, x=0.21),
              dict(q=4, char_index=1, x=0.13),
              dict(q=3, char_index=1, x=0.33)),
          chars=("odd",), nu="half", excluded="q*x", twist=_TWISTED)
_register("C3_4", "cohen-half",
          "nu = 1/2 exponential form, odd chi, bar twist",
          _cohen_half, (
              dict(q=5, char_index=1, x=0.21),
              dict(q=4, char_index=1, x=0.13),
              dict(q=3, char_index=1, x=0.33)),
          chars=("odd",), nu="half", excluded="q*x", twist=_BAR_TWISTED)
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
          chars=("even",), nu="voronoi", twist=_TWISTED)
_register("T4_2", "voronoi",
          "summation formula, even chi, plain-twist finite sum",
          _voronoi_single, _voronoi_points(dict(q=5, char_index=2)),
          chars=("even",), nu="voronoi", twist=_BAR_TWISTED)
_register("T4_3", "voronoi",
          "summation formula, odd chi, bar twist over j",
          _voronoi_single, _voronoi_points(dict(q=5, char_index=1)),
          chars=("odd",), nu="voronoi", twist=_TWISTED)
_register("T4_4", "voronoi",
          "summation formula, odd chi, plain twist",
          _voronoi_single, _voronoi_points(dict(q=5, char_index=1)),
          chars=("odd",), nu="voronoi", twist=_BAR_TWISTED)
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


def _entry(tid: str) -> TheoremEntry:
    """The registry entry of theorem id tid; an unknown id is refused."""
    if tid not in THEOREMS:
        raise DomainError(f"unknown theorem id {tid!r}; valid ids: {', '.join(sorted(THEOREMS))}")
    return THEOREMS[tid]


def verify(case: IdentityCase, tol: float | None = None) -> VerificationReport:
    """Verify one identity instance and report the residual."""
    entry = _entry(case.theorem)
    if tol is None:
        tol = DEFAULT_TOLERANCES[entry.section]
    _admit("tol", tol, float, positive=True)
    t0 = time.perf_counter()
    r = _check(entry, case)
    try:
        lhs, lterms = _closed_side(_divisor_side(entry.nu, tol, **r))
        rhs, rterms = _closed_side(entry.evaluate(tol=tol, **r))
    except OverflowError:  # a power or product past the double range
        raise DomainError(f"{entry.tid}: an intermediate value leaves the double range") from None
    wall = (time.perf_counter() - t0) * 1000.0
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / abs(lhs) if lhs != 0 else math.inf
    passed = _graded_err(entry.section, lhs, abs_err, rel_err) <= tol
    return VerificationReport(case, lhs, rhs, abs_err, rel_err,
                              lterms, rterms, bool(passed), tol, wall)


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
        wanted = list(selector)
    out = []
    for tid in wanted:
        for point in _entry(tid).points:
            out.append(IdentityCase(theorem=tid, **point))
    return out


def _report(case: IdentityCase, tol: float) -> VerificationReport:
    """verify, with a TblabError turned into a failed report naming it."""
    t0 = time.perf_counter()
    try:
        return verify(case, tol)
    except TblabError as exc:
        nan = complex(math.nan, math.nan)
        return VerificationReport(case, nan, nan, math.nan, math.nan, 0, 0, False, tol,
                                  (time.perf_counter() - t0) * 1000.0,
                                  error=f"{type(exc).__name__}: {exc}")


def run_suite(selector=None) -> list[VerificationReport]:
    """Verify every registered case matching the selector, in registry
    order, each at its section's default tolerance.  Failures are reported,
    not raised: a case whose evaluation raises a TblabError gets a failed
    report whose error names it."""
    term_cap()  # a bad TBL_MAX_TERMS fails the suite, not each case
    return [_report(case, DEFAULT_TOLERANCES[THEOREMS[case.theorem].section])
            for case in default_cases(selector)]


def positivity_scan(q_max: int) -> list[tuple[int, int, float]]:
    """(q, index, L(1, chi)) for every real primitive non-principal chi
    with modulus up to q_max, an int from 3 to term_cap()."""
    _admit("q_max", q_max, int)
    if q_max < 3:
        raise DomainError("positivity scan needs q_max >= 3")
    within_budget(q_max, f"the value table mod {q_max}")  # before any modulus is scanned
    return [(q, chi.index, dirichlet_L(1.0, chi).real)
            for q in range(3, q_max + 1) for chi in enumerate_characters(q)
            if chi.is_real and chi.is_primitive and not chi.is_principal]


def _finite(x: float) -> float | None:
    return x if math.isfinite(x) else None


def report_record(report: VerificationReport) -> dict:
    """The report as a strict-JSON record: a number that is not finite
    (rel_err when lhs = 0, every value of a case that raised) is None,
    and "error" is there only when the case raised."""
    record = {
        "theorem_id": report.case.theorem,
        "params": report.case.params(),
        "lhs_re": _finite(report.lhs.real),
        "lhs_im": _finite(report.lhs.imag),
        "rhs_re": _finite(report.rhs.real),
        "rhs_im": _finite(report.rhs.imag),
        "abs_err": _finite(report.abs_err),
        "rel_err": _finite(report.rel_err),
        "pass": report.passed,
        "terms": report.lhs_terms + report.rhs_terms,
        "wall_ms": report.wall_ms,
    }
    if report.error is not None:
        record["error"] = report.error
    return record


def write_reports(reports: list[VerificationReport], fh: TextIO) -> None:
    """Write each report's record to the text stream fh as one line of
    strict JSON."""
    for report in reports:
        fh.write(json.dumps(report_record(report), sort_keys=True, allow_nan=False) + "\n")
