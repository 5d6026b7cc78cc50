"""Exact Dirichlet-character arithmetic modulo q.

A character value is stored as a rational exponent r with the meaning
chi(n) = e^{2*pi*i*r}; multiplication, conjugation and parity are exact
rational arithmetic, and complex doubles only appear when a value is
realized numerically.  The unit group (Z/qZ)* is built by CRT over the
prime-power factors of q: a primitive root generates each odd prime-power
factor, and the pair {-1, 5} generates the 2-adic part for 2^k, k >= 3.

Characters are enumerated deterministically: index 0 is always the
principal character, and the ordering follows the mixed-radix counting of
generator-exponent tuples, so (q, index) is a stable address.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import InvalidModulus

__all__ = [
    "Character",
    "GaussSumValue",
    "enumerate_characters",
    "character_value",
    "conductor",
    "is_primitive",
    "gauss_sum",
    "euler_phi",
]


def _factorize(q: int) -> list[tuple[int, int]]:
    """Prime factorization as (p, e) pairs, primes ascending."""
    out = []
    n = q
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(q: int) -> int:
    phi = 1
    for p, e in _factorize(q):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def _primitive_root(p: int, e: int) -> int:
    """Primitive root modulo p^e for an odd prime p."""
    phi_p = p - 1
    prime_divs = [f for f, _ in _factorize(phi_p)]
    g = 2
    while True:
        if all(pow(g, phi_p // f, p) != 1 for f in prime_divs):
            break
        g += 1
    # Lift to p^e: g works mod p^e unless g^{p-1} = 1 mod p^2.
    if e > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    return g


class _UnitGroup(NamedTuple):
    q: int
    generators: tuple[int, ...]  # lifted to mod q, cyclic factor i
    orders: tuple[int, ...]      # order of each generator
    dlog: dict[int, tuple[int, ...]]  # unit -> exponent vector


def _crt_lift(r: int, m: int, q: int) -> int:
    """x = r (mod m), x = 1 (mod q/m) with m || q."""
    m2 = q // m
    if m2 == 1:
        return r % q
    inv = pow(m, -1, m2)
    return (r + m * ((1 - r) * inv % m2)) % q


@lru_cache(maxsize=None)
def _unit_group(q: int) -> _UnitGroup:
    if q < 1:
        raise InvalidModulus(f"modulus must be a positive integer, got {q}")
    gens: list[int] = []
    orders: list[int] = []
    local: list[tuple[int, list[int], list[int]]] = []  # (p^e, gens mod p^e, orders)
    for p, e in _factorize(q):
        pe = p ** e
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                local.append((pe, [3], [2]))
            else:
                local.append((pe, [pe - 1, 5], [2, 2 ** (e - 2)]))
        else:
            g = _primitive_root(p, e)
            local.append((pe, [g], [(p - 1) * p ** (e - 1)]))
    for pe, gs, os in local:
        for g, o in zip(gs, os):
            gens.append(_crt_lift(g, pe, q))
            orders.append(o)
    # Discrete logs by direct enumeration of the group; q is desk scale.
    dlog: dict[int, tuple[int, ...]] = {}
    radix = orders
    total = math.prod(radix) if radix else 1
    for idx in range(total):
        vec = []
        rem = idx
        for m in reversed(radix):
            vec.append(rem % m)
            rem //= m
        vec.reverse()
        u = 1 % q
        for g, c in zip(gens, vec):
            u = (u * pow(g, c, q)) % q
        dlog[u] = tuple(vec)
    return _UnitGroup(q, tuple(gens), tuple(orders), dlog)


@dataclass(frozen=True)
class Character:
    """A Dirichlet character mod q, addressed by (modulus, index).

    `exponents[i]` is c_i in chi(g_i) = e^{2*pi*i*c_i/m_i} for the i-th
    generator of (Z/qZ)* with order m_i.
    """

    modulus: int
    index: int
    exponents: tuple[int, ...]

    # -- exact values ----------------------------------------------------

    def log_value(self, n: int) -> Fraction | None:
        """Rational r with chi(n)=e^{2*pi*i*r}, or None when chi(n)=0."""
        grp = _unit_group(self.modulus)
        vec = grp.dlog.get(n % self.modulus)
        if vec is None:
            return None
        r = Fraction(0)
        for c, l, m in zip(self.exponents, vec, grp.orders):
            r += Fraction(c * l, m)
        return r % 1

    def value(self, n: int) -> complex:
        r = self.log_value(n)
        if r is None:
            return 0j
        if r == 0:
            return 1 + 0j
        if 2 * r == 1:
            return -1 + 0j
        return cmath.exp(2j * cmath.pi * float(r))

    # -- structure -------------------------------------------------------

    @property
    def is_principal(self) -> bool:
        return all(c == 0 for c in self.exponents)

    @property
    def parity(self) -> str:
        """'even' if chi(-1)=1 else 'odd'."""
        if self.modulus <= 2:
            return "even"
        return "even" if self.log_value(self.modulus - 1) == 0 else "odd"

    @property
    def is_odd(self) -> bool:
        return self.parity == "odd"

    @property
    def is_even(self) -> bool:
        return self.parity == "even"

    @property
    def order(self) -> int:
        grp = _unit_group(self.modulus)
        o = 1
        for c, m in zip(self.exponents, grp.orders):
            if c:
                o = math.lcm(o, m // math.gcd(c, m))
        return o

    @property
    def is_real(self) -> bool:
        return self.order <= 2

    @property
    def conductor(self) -> int:
        """Smallest f | q from which the character is induced."""
        q = self.modulus
        for f in sorted(_divisors(q)):
            if all(self.log_value(u) == 0
                   for u in range(1, q + 1)
                   if (u - 1) % f == 0 and math.gcd(u, q) == 1):
                return f
        return q  # unreachable; f = q always passes

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    def conjugate(self) -> "Character":
        grp = _unit_group(self.modulus)
        exps = tuple((-c) % m for c, m in zip(self.exponents, grp.orders))
        return Character(self.modulus, _index_of(grp, exps), exps)

    def __call__(self, n: int) -> complex:
        return self.value(n)


def _divisors(q: int) -> list[int]:
    divs = [1]
    for p, e in _factorize(q):
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


def _index_of(grp: _UnitGroup, exps: tuple[int, ...]) -> int:
    idx = 0
    for c, m in zip(exps, grp.orders):
        idx = idx * m + c
    return idx


def enumerate_characters(q: int) -> list[Character]:
    """All phi(q) characters mod q in deterministic order, principal first."""
    if q < 1:
        raise InvalidModulus(f"modulus must be a positive integer, got {q}")
    grp = _unit_group(q)
    out = []
    total = math.prod(grp.orders) if grp.orders else 1
    for idx in range(total):
        vec = []
        rem = idx
        for m in reversed(grp.orders):
            vec.append(rem % m)
            rem //= m
        vec.reverse()
        out.append(Character(q, idx, tuple(vec)))
    return out


def character_value(chi: Character, n: int) -> complex:
    return chi.value(n)


def conductor(chi: Character) -> int:
    return chi.conductor


def is_primitive(chi: Character) -> bool:
    return chi.is_primitive


class GaussSumValue(NamedTuple):
    value: complex
    character: Character


def gauss_sum(chi: Character) -> GaussSumValue:
    """tau(chi) = sum_{h=1}^{q} chi(h) e^{2*pi*i*h/q}."""
    q = chi.modulus
    total = 0j
    for h in range(1, q + 1):
        v = chi.value(h)
        if v:
            total += v * cmath.exp(2j * cmath.pi * h / q)
    if q == 1:
        total = 1 + 0j
    return GaussSumValue(total, chi)
