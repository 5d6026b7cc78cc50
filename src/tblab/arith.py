"""Twisted divisor-sum arithmetic.

Every weighted divisor sum here is one Dirichlet convolution
f_z(n) = sum_{de=n} d^z chi1(d) chi2(e); a kind only says which slots
its characters fill, and the trivial character mod 1 (L = zeta) fills
an empty one:

* twisted:      sum_{d|n} d^z chi(d)             (chi2 trivial)
* bar-twisted:  sum_{d|n} d^z chi(n/d)           (chi1 trivial)
* two-char:     sum_{d|n} d^z chi1(d) chi2(n/d)
* unit:         coefficient 1 for every n, used by oracles

Values for a single n come from its divisors, found by trial division;
whole coefficient ranges, which the series evaluators consume, from one
convolution sweep in two halves split at sqrt(count).  The generating
Dirichlet series L(s - z, chi1) L(s, chi2) anchors the tail continuation
used by the series module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .characters import Character, _divisors, enumerate_characters
from .errors import DomainError
from .specfun import L_derivative, dirichlet_L, riemann_zeta, zeta_derivative

__all__ = [
    "DivisorSumSpec",
    "divisor_sum",
    "divisors",
    "coefficient_array",
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
    return complex(d ** z.real) if z.imag == 0.0 else cmath.exp(z * math.log(d))


def _slots(spec: DivisorSumSpec) -> tuple[Character, Character]:
    """(chi1, chi2) of f_z(n) = sum_{de=n} d^z chi1(d) chi2(e): the one
    character of a twisted sum goes on d, of a bar-twisted sum on e, and
    the trivial character mod 1 (whose L is zeta) fills the empty slot."""
    one = enumerate_characters(1)[0]
    if spec.kind == TWISTED:
        return spec.chi, one
    if spec.kind == BAR_TWISTED:
        return one, spec.chi
    return spec.chi, spec.chi2


def divisor_sum(spec: DivisorSumSpec, n: int) -> complex:
    """f_z(n) = sum_{d|n} d^z chi1(d) chi2(n/d) by direct divisor enumeration."""
    if n < 1:
        raise DomainError(f"divisor sums need n >= 1, got {n}")
    if spec.kind == UNIT:
        return 1.0 + 0j
    chi1, chi2 = _slots(spec)
    acc = 0j
    for d in divisors(n):
        w = chi1.value(d) * chi2.value(n // d)
        if w:
            acc += _dpow(d, spec.weight) * w
    return acc


def _char_values(chi: Character, count: int, z: complex = 0) -> np.ndarray:
    """d^z chi(d) for d = 0..count as a complex array (chi period-tiled;
    entry 0 is chi(0))."""
    arr = np.empty(count + 1, dtype=complex)
    for r in range(chi.modulus):
        arr[r::chi.modulus] = chi.value(r)
    if z != 0:
        powers = np.arange(1, count + 1, dtype=float)
        if z.imag == 0.0:
            powers **= z.real
        else:
            powers = np.exp(z * np.log(powers, out=powers))
        np.multiply(powers, arr[1:], out=arr[1:])
    return arr


def coefficient_array(spec: DivisorSumSpec, count: int) -> np.ndarray:
    """f_z(1..count) as a complex array (index 0 unused).

    The convolution of a(d) = d^z chi1(d) with b(e) = chi2(e) in two
    sweeps split at S = isqrt(count) (Dirichlet's hyperbola method):
    each d <= S adds a(d) b(1..count/d) at the multiples of d, then each
    e <= count/(S+1), descending, adds a(S+1..count/e) b(e) at the
    multiples of e.  So every n gets its terms in ascending d, and the
    work is 2 sqrt(count) slice updates.
    """
    arr = np.zeros(count + 1, dtype=complex)
    if spec.kind == UNIT:
        arr[1:] = 1.0
        return arr
    chi1, chi2 = _slots(spec)
    a = _char_values(chi1, count, complex(spec.weight))
    b = _char_values(chi2, count)
    root = math.isqrt(count)
    for d in range(1, root + 1):
        if a[d]:
            arr[d::d] += a[d] * b[1:count // d + 1]
    for e in range(count // (root + 1), 0, -1):
        if b[e]:
            arr[(root + 1) * e::e] += a[root + 1:count // e + 1] * b[e]
    return arr


def closed_form_F(spec: DivisorSumSpec, s: complex) -> complex:
    """sum_n f_z(n) n^{-s} = L(s - z, chi1) L(s, chi2)."""
    s = complex(s)
    if spec.kind == UNIT:
        return riemann_zeta(s)
    chi1, chi2 = _slots(spec)
    return dirichlet_L(s - complex(spec.weight), chi1) * dirichlet_L(s, chi2)


def closed_form_F_prime(spec: DivisorSumSpec, s: complex) -> complex:
    """d/ds of closed_form_F by the product rule."""
    s = complex(s)
    if spec.kind == UNIT:
        return zeta_derivative(s)
    chi1, chi2 = _slots(spec)
    sz = s - complex(spec.weight)
    return (L_derivative(sz, chi1) * dirichlet_L(s, chi2)
            + dirichlet_L(sz, chi1) * L_derivative(s, chi2))
