"""Weighted divisor sums, each one Dirichlet convolution.

DivisorSumSpec(z, chi1, chi2) is f_z(n) = sum_{de=n} d^z chi1(d) chi2(e).
characters.TRIVIAL, the character mod 1 (L = zeta), fills a slot that
takes no character and is the default of both: the twisted sum
sum_{d|n} d^z chi(d) is (z, chi), its bar twist sum_{d|n} d^z chi(n/d) is
(z, TRIVIAL, chi), and sigma_z(n) is (z,).

Values for a single n come from its divisors, found by trial division;
whole coefficient ranges, which the series evaluators consume, from one
convolution sweep in two halves split at sqrt(count), as read-only
arrays: float64 where the weight and both characters are real, with the
real parts of the complex sweep, complex otherwise.  A table keeps one
array per spec, the longest of up to 8,192 coefficients built so far,
and serves a shorter count as a view of its prefix; it holds at most
8 MB, least-recently-used specs leaving first.  The generating
Dirichlet series L(s - z, chi1) L(s, chi2) anchors the tail continuation
used by the series module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bessel import _HOT_DOUBLES
from .characters import TRIVIAL, Character, _divisors
from .errors import DomainError, within_budget
from .specfun import _LOG_DBL_MAX, L_derivative, dirichlet_L

__all__ = [
    "DivisorSumSpec",
    "divisor_sum",
    "coefficient_array",
    "closed_form_F",
    "closed_form_F_prime",
]


@dataclass(frozen=True)
class DivisorSumSpec:
    """f_z(n) = sum_{de=n} d^z chi1(d) chi2(e), z = weight."""

    weight: complex = 0.0
    chi1: Character = TRIVIAL
    chi2: Character = TRIVIAL

    @property
    def weight_real_max(self) -> float:
        """max(Re z, 0): exponent in the |f_z(n)| <= d(n) n^w bound."""
        return max(complex(self.weight).real, 0.0)


def _dpow(d: int, z: complex) -> complex:
    z = complex(z)
    return complex(d ** z.real) if z.imag == 0.0 else cmath.exp(z * math.log(d))


def divisor_sum(spec: DivisorSumSpec, n: int) -> complex:
    """f_z(n) = sum_{d|n} d^z chi1(d) chi2(n/d) by direct divisor enumeration."""
    if n < 1:
        raise DomainError(f"divisor sums need n >= 1, got {n}")
    acc = 0j
    for d in _divisors(n):
        w = spec.chi1.value(d) * spec.chi2.value(n // d)
        if w:
            acc += _dpow(d, spec.weight) * w
    return acc


def _char_values(chi: Character, count: int, z: complex = 0, dtype=complex) -> np.ndarray:
    """d^z chi(d) for d = 0..count as a complex array, or a float one for
    a real chi and z (chi period-tiled; entry 0 is chi(0))."""
    arr = np.empty(count + 1, dtype=dtype)
    for r in range(chi.modulus):
        arr[r::chi.modulus] = chi.value(r) if dtype is complex else chi.value(r).real
    if z != 0:
        powers = np.arange(1, count + 1, dtype=float)
        if z.imag == 0.0:
            powers **= z.real
        else:
            powers = np.exp(z * np.log(powers, out=powers))
        np.multiply(powers, arr[1:], out=arr[1:])
    return arr


class _Table(dict):
    """spec -> its longest coefficient array of up to _HOT_DOUBLES terms,
    at most _TABLE_BYTES together, in the order of last use: a read pops
    its spec and inserts it again.  A dict, whose values() hashes no key
    as an OrderedDict's does, with an lru_cache's cache_clear for
    tblab.clear_caches."""

    cache_clear = dict.clear


_coefficient_table = _Table()
_TABLE_BYTES = 8 << 20  # 256 x 32 kB


def coefficient_array(spec: DivisorSumSpec, count: int) -> np.ndarray:
    """f_z(1..count) as a read-only array (index 0 unused): float64 where
    the weight and both characters are real, complex otherwise.

    The count is checked, and held to the term budget, on every call, as
    is the bound n^(max(Re z, 0) + 1) at n = count: DomainError where it
    leaves the double range, before any power is formed.  Up
    to _HOT_DOUBLES = 8,192 it is a view of the prefix of the spec's
    entry in _coefficient_table, which is rebuilt at count when shorter;
    a longer array is computed on each call.  Either way the values are
    _coefficients', so the table moves no bit.  A reader that sums it
    takes it as complex: a float sum pairs its terms differently."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 0:
        raise DomainError(f"a coefficient array needs an int count >= 0, got {count!r}")
    within_budget(count, "a coefficient array")
    if not (spec.weight_real_max + 1.0) * math.log(max(count, 1)) <= _LOG_DBL_MAX:
        raise DomainError(f"a coefficient array of {count} terms at weight {spec.weight:g} "
                          f"may leave the double range")
    if count > _HOT_DOUBLES:
        return _coefficients(spec, count)
    arr = _coefficient_table.pop(spec, None)
    if arr is None or arr.size <= count:
        arr = _coefficients(spec, count)
        held = arr.nbytes + sum(a.nbytes for a in _coefficient_table.values())
        while held > _TABLE_BYTES:
            held -= _coefficient_table.pop(next(iter(_coefficient_table))).nbytes
    _coefficient_table[spec] = arr
    return arr[:count + 1]


def _coefficients(spec: DivisorSumSpec, count: int) -> np.ndarray:
    """coefficient_array, computed for a checked count: float64 for a real
    weight and characters, complex otherwise.  coefficient_array keeps one
    per spec of up to 8,192 terms in _coefficient_table, at most 8 MB.

    The convolution of a(d) = d^z chi1(d) with b(e) = chi2(e) in two
    sweeps split at S = isqrt(count) (Dirichlet's hyperbola method):
    each d <= S adds a(d) b(1..count/d) at the multiples of d, then each
    e <= count/(S+1), descending, adds a(S+1..count/e) b(e) at the
    multiples of e.  So every n gets its terms in ascending d, and a
    shorter array is the prefix of a longer one, bit for bit; the work
    is 2 sqrt(count) slice updates.  For a
    trivial chi2, b = 1 + 0j, an exact factor, is not multiplied in.  For
    real z and characters the sweeps run in float64 and stay so: the
    complex ones form the same real parts and +0 imaginary parts.
    """
    real = complex(spec.weight).imag == 0.0 and spec.chi1.is_real and spec.chi2.is_real
    dtype = float if real else complex
    a = _char_values(spec.chi1, count, complex(spec.weight), dtype)
    b = None if spec.chi2.modulus == 1 else _char_values(spec.chi2, count, 0, dtype)
    arr = np.zeros(count + 1, dtype=dtype)
    root = math.isqrt(count)
    for d in range(1, root + 1):
        if a[d]:
            arr[d::d] += a[d] if b is None else a[d] * b[1:count // d + 1]
    for e in range(count // (root + 1), 0, -1):
        if b is None:
            arr[(root + 1) * e::e] += a[root + 1:count // e + 1]
        elif b[e]:
            arr[(root + 1) * e::e] += a[root + 1:count // e + 1] * b[e]
    arr.flags.writeable = False
    return arr


def closed_form_F(spec: DivisorSumSpec, s: complex) -> complex:
    """sum_n f_z(n) n^{-s} = L(s - z, chi1) L(s, chi2)."""
    s = complex(s)
    return dirichlet_L(s - complex(spec.weight), spec.chi1) * dirichlet_L(s, spec.chi2)


def closed_form_F_prime(spec: DivisorSumSpec, s: complex) -> complex:
    """d/ds of closed_form_F by the product rule."""
    s = complex(s)
    sz = s - complex(spec.weight)
    return (L_derivative(sz, spec.chi1) * dirichlet_L(s, spec.chi2)
            + dirichlet_L(sz, spec.chi1) * L_derivative(s, spec.chi2))
