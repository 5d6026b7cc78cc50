"""Twisted divisor-sum arithmetic.

Three weighted divisor sums are supported, plus a unit-coefficient
variant used by oracles:

* twisted:      sum_{d|n} d^z chi(d)
* bar-twisted:  sum_{d|n} d^z chi(n/d)
* two-char:     sum_{d|n} d^z chi1(d) chi2(n/d)
* unit:         coefficient 1 for every n

Values for a single n come from its divisors, found by trial division;
whole coefficient ranges are filled by a divisor-convolution sweep
(numpy slice adds), which is what the series evaluators consume.  The
generating Dirichlet series have closed forms built from zeta and L:
these anchor both the cross-checks here and the tail continuation used
by the series module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .characters import Character, _divisors
from .errors import DomainError
from .specfun import L_derivative, dirichlet_L, riemann_zeta, zeta_derivative

__all__ = [
    "DivisorSumSpec",
    "divisor_sum",
    "divisors",
    "coefficient_array",
    "dirichlet_series_check",
    "closed_form_F",
    "closed_form_F_prime",
]

TWISTED = "twisted"
BAR_TWISTED = "bar-twisted"
TWO_CHAR = "two-char"
UNIT = "unit"

_KINDS = (TWISTED, BAR_TWISTED, TWO_CHAR, UNIT)


@dataclass(frozen=True)
class DivisorSumSpec:
    """Selects one weighted divisor sum f_z(n)."""

    kind: str
    weight: complex = 0.0
    chi: Character | None = None
    chi2: Character | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown divisor-sum kind {self.kind!r}")
        if self.kind == TWO_CHAR:
            if self.chi is None or self.chi2 is None:
                raise DomainError("two-char divisor sums need two characters")
        elif self.kind == UNIT:
            if self.chi is not None or self.chi2 is not None:
                raise DomainError("unit coefficients take no character")
        else:
            if self.chi is None or self.chi2 is not None:
                raise DomainError(f"{self.kind} divisor sums need exactly one character")

    @property
    def weight_real_max(self) -> float:
        """max(Re z, 0): exponent in the |f_z(n)| <= d(n) n^w bound."""
        return max(complex(self.weight).real, 0.0)


def divisors(n: int) -> list[int]:
    """The divisors of n >= 1, ascending."""
    if n < 1:
        raise DomainError(f"divisors needs n >= 1, got {n}")
    return _divisors(n)


def _dpow(d: int, z: complex) -> complex:
    z = complex(z)
    if z == 0:
        return 1.0 + 0j
    if z.imag == 0.0:
        return complex(d ** z.real)
    return cmath.exp(z * math.log(d))


def divisor_sum(spec: DivisorSumSpec, n: int) -> complex:
    """f_z(n) by direct divisor enumeration."""
    if n < 1:
        raise DomainError(f"divisor sums need n >= 1, got {n}")
    if spec.kind == UNIT:
        return 1.0 + 0j
    acc = 0j
    for d in divisors(n):
        if spec.kind == TWISTED:
            w = spec.chi.value(d)
        elif spec.kind == BAR_TWISTED:
            w = spec.chi.value(n // d)
        else:
            w = spec.chi.value(d) * spec.chi2.value(n // d)
        if w:
            acc += _dpow(d, spec.weight) * w
    return acc


def _chi_values(chi: Character, count: int) -> np.ndarray:
    """chi(1..count) as a complex array (period-tiled)."""
    q = chi.modulus
    period = np.array([chi.value(r) for r in range(q)], dtype=complex)
    idx = np.arange(1, count + 1) % q
    return period[idx]


def coefficient_array(spec: DivisorSumSpec, count: int) -> np.ndarray:
    """f_z(1..count) as a complex array (index 0 unused)."""
    if spec.kind == TWO_CHAR and 1 in (spec.chi.modulus, spec.chi2.modulus):
        # the trivial character mod 1 in one slot leaves a one-character
        # sum, whose sweep needs no cofactor array
        spec = (DivisorSumSpec(TWISTED, spec.weight, spec.chi) if spec.chi2.modulus == 1
                else DivisorSumSpec(BAR_TWISTED, spec.weight, spec.chi2))
    arr = np.zeros(count + 1, dtype=complex)
    if spec.kind == UNIT:
        arr[1:] = 1.0
        return arr
    z = complex(spec.weight)
    dvals = np.arange(1, count + 1, dtype=float)
    if z == 0:
        powers = np.ones(count, dtype=float)
    elif z.imag == 0.0:
        powers = dvals ** z.real
    else:
        powers = np.exp(z * np.log(dvals))
    if spec.kind == TWISTED:
        q = spec.chi.modulus
        period = [spec.chi.value(r) for r in range(q)]
        for d in range(1, count + 1):
            w = period[d % q]
            if w:
                arr[d::d] += powers[d - 1] * w
        return arr
    cofactor_chi = spec.chi if spec.kind == BAR_TWISTED else spec.chi2
    lead_chi = None if spec.kind == BAR_TWISTED else spec.chi
    cof = _chi_values(cofactor_chi, count)
    if lead_chi is None:
        for d in range(1, count + 1):
            arr[d::d] += powers[d - 1] * cof[: count // d]
        return arr
    q = lead_chi.modulus
    period = [lead_chi.value(r) for r in range(q)]
    for d in range(1, count + 1):
        lw = period[d % q]
        if lw:
            arr[d::d] += (powers[d - 1] * lw) * cof[: count // d]
    return arr


def closed_form_F(spec: DivisorSumSpec, s: complex) -> complex:
    """Value of sum_n f_z(n) n^{-s} as a product of zeta/L factors."""
    s = complex(s)
    z = complex(spec.weight)
    if spec.kind == UNIT:
        return riemann_zeta(s)
    if spec.kind == TWISTED:
        return riemann_zeta(s) * dirichlet_L(s - z, spec.chi)
    if spec.kind == BAR_TWISTED:
        return riemann_zeta(s - z) * dirichlet_L(s, spec.chi)
    return dirichlet_L(s - z, spec.chi) * dirichlet_L(s, spec.chi2)


def closed_form_F_prime(spec: DivisorSumSpec, s: complex) -> complex:
    """d/ds of closed_form_F by the product rule."""
    s = complex(s)
    z = complex(spec.weight)
    if spec.kind == UNIT:
        return zeta_derivative(s)
    if spec.kind == TWISTED:
        return (zeta_derivative(s) * dirichlet_L(s - z, spec.chi)
                + riemann_zeta(s) * L_derivative(s - z, spec.chi))
    if spec.kind == BAR_TWISTED:
        return (zeta_derivative(s - z) * dirichlet_L(s, spec.chi)
                + riemann_zeta(s - z) * L_derivative(s, spec.chi))
    return (L_derivative(s - z, spec.chi) * dirichlet_L(s, spec.chi2)
            + dirichlet_L(s - z, spec.chi) * L_derivative(s, spec.chi2))


def dirichlet_series_check(spec: DivisorSumSpec, s: complex,
                           terms: int) -> tuple[float, float]:
    """|partial Dirichlet series - closed form| plus its analytic tail bound.

    Requires Re(s) > max(Re z + 1, 1) + 0.5 so that the crude coefficient
    bound |f_z(n)| <= 2 sqrt(n) * n^w makes the tail integrable.
    """
    s = complex(s)
    w = spec.weight_real_max
    if s.real <= max(w + 1.0, 1.0) + 0.5:
        raise DomainError(
            "dirichlet_series_check needs Re(s) > max(Re z + 1, 1) + 0.5")
    coef = coefficient_array(spec, terms)[1:]
    n = np.arange(1, terms + 1, dtype=float)
    partial = np.sum(coef * n ** (-s.real) *
                     (np.exp(-1j * s.imag * np.log(n)) if s.imag else 1.0))
    residual = abs(partial - closed_form_F(spec, s))
    decay = s.real - w - 1.5
    tail_bound = 2.0 * terms ** (-decay) / decay
    return float(residual), float(tail_bound)
