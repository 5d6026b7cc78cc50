"""Exact Dirichlet-character arithmetic modulo q.

Each character holds one exact table of integer exponents: chi(n) =
e^{2*pi*i*k(n)/E} at a unit n, with E the lcm of the generator orders.
Its complex values, `log_value`, parity, conductor and inducing primitive
character all read that table, so complex doubles only appear when a
value is realized numerically.  The table, the values (shared by every
equal Character), the Gauss sum and the inducing character are formed
once per character, and the characters of each modulus once per process.
The unit group (Z/qZ)* is built by CRT over the prime-power factors of q:
a primitive root generates each odd prime-power factor, and the pair
{-1, 5} generates the 2-adic part for 2^k, k >= 3.

Characters are enumerated deterministically: index 0 is always the
principal character, and the ordering follows the mixed-radix counting of
generator-exponent tuples, so (q, index) is a stable address.  TRIVIAL,
the character mod 1 (L = zeta), equals enumerate_characters(1)[0].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import InvalidModulus, within_budget

__all__ = [
    "TRIVIAL",
    "Character",
    "GaussSumValue",
    "enumerate_characters",
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
    for idx in range(math.prod(orders)):
        vec = _digits(idx, orders)
        u = 1 % q
        for g, c in zip(gens, vec):
            u = (u * pow(g, c, q)) % q
        dlog[u] = vec
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
        E, ks = _exponent_table(self)
        k = ks[n % self.modulus]
        return None if k is None else Fraction(k, E)

    def value(self, n: int) -> complex:
        return _value_table(self)[n % self.modulus]

    # -- structure -------------------------------------------------------

    @property
    def is_principal(self) -> bool:
        return all(c == 0 for c in self.exponents)

    @property
    def parity(self) -> str:
        """'even' if chi(-1)=1 else 'odd'."""
        return "even" if _exponent_table(self)[1][self.modulus - 1] == 0 else "odd"

    @property
    def is_odd(self) -> bool:
        return self.parity == "odd"

    @property
    def is_even(self) -> bool:
        return self.parity == "even"

    @property
    def order(self) -> int:
        E, ks = _exponent_table(self)
        return E // math.gcd(E, *(k for k in ks if k is not None))

    @property
    def is_real(self) -> bool:
        return self.order <= 2

    @property
    def conductor(self) -> int:
        """Smallest f | q from which the character is induced."""
        return _primitive(self).modulus

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    def conjugate(self) -> "Character":
        grp = _unit_group(self.modulus)
        exps = tuple((-c) % m for c, m in zip(self.exponents, grp.orders))
        return Character(self.modulus, _index_of(grp, exps), exps)


TRIVIAL = Character(1, 0, ())


@lru_cache(maxsize=4096)
def _exponent_table(chi: Character) -> tuple[int, tuple[int | None, ...]]:
    """E = lcm(m_i) and k(0), ..., k(q-1) with chi(n) = e^{2*pi*i*k(n)/E}:
    at a unit with exponent vector l, k = sum_i c_i l_i E/m_i mod E, and
    None off the units.  Keyed by value, so every enumeration of the same
    character shares one table."""
    grp = _unit_group(chi.modulus)
    E = math.lcm(*grp.orders)
    weights = [c * (E // m) for c, m in zip(chi.exponents, grp.orders)]
    ks: list[int | None] = [None] * chi.modulus
    for u, vec in grp.dlog.items():
        ks[u] = sum(w * l for w, l in zip(weights, vec)) % E
    return E, tuple(ks)


def _root_of_unity(k: int, E: int) -> complex:
    """e^{2*pi*i*k/E}, exactly 1 at k = 0 and -1 at k = E/2."""
    return 1 + 0j if k == 0 else -1 + 0j if 2 * k == E else cmath.exp(2j * cmath.pi * (k / E))


@lru_cache(maxsize=4096)
def _value_table(chi: Character) -> tuple[complex, ...]:
    """chi(0), ..., chi(q-1) from the exponent table, 0 off the units: each
    value is log_value's rational k/E realized correctly rounded."""
    E, ks = _exponent_table(chi)
    return tuple(0j if k is None else _root_of_unity(k, E) for k in ks)


@lru_cache(maxsize=4096)
def _primitive(chi: Character) -> Character:
    """The primitive character mod the conductor f that induces chi.  f is
    the least divisor of q with k(u) = 0 at every unit u = 1 mod f; the
    exponent on each generator g of order m of (Z/fZ)* is k(n) m/E at a
    lift n of g that is prime to q."""
    q = chi.modulus
    E, ks = _exponent_table(chi)
    f = next(f for f in _divisors(q) if all(not k for k in ks[1::f]))  # k is 0 or None
    if f == q:
        return chi
    grp = _unit_group(f)
    lifts = [next(n for n in range(g, g + q, f) if ks[n % q] is not None) for g in grp.generators]
    exps = tuple(ks[n % q] * m // E for n, m in zip(lifts, grp.orders))
    return Character(f, _index_of(grp, exps), exps)


def _divisors(q: int) -> list[int]:
    divs = [1]
    for p, e in _factorize(q):
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


def _digits(idx: int, radix) -> tuple[int, ...]:
    """The mixed-radix digits of idx, most significant first; the inverse
    of _index_of."""
    vec = []
    for m in reversed(radix):
        idx, c = divmod(idx, m)
        vec.append(c)
    return tuple(reversed(vec))


def _index_of(grp: _UnitGroup, exps: tuple[int, ...]) -> int:
    idx = 0
    for c, m in zip(exps, grp.orders):
        idx = idx * m + c
    return idx


def enumerate_characters(q: int) -> list[Character]:
    """All phi(q) characters mod q in deterministic order, principal first."""
    if q < 1:
        raise InvalidModulus(f"modulus must be a positive integer, got {q}")
    within_budget(q, f"the value table mod {q}")
    return list(_characters(q))


@lru_cache(maxsize=256)
def _characters(q: int) -> tuple[Character, ...]:
    grp = _unit_group(q)
    return tuple(Character(q, idx, _digits(idx, grp.orders))
                 for idx in range(math.prod(grp.orders)))


class GaussSumValue(NamedTuple):
    value: complex
    character: Character


@lru_cache(maxsize=4096)
def gauss_sum(chi: Character) -> GaussSumValue:
    """tau(chi) = sum_{h=1}^{q} chi(h) e^{2*pi*i*h/q}, once per character."""
    q = chi.modulus
    total = 0j
    for h in range(1, q + 1):
        v = chi.value(h)
        if v:
            total += v * cmath.exp(2j * cmath.pi * h / q)
    if q == 1:
        total = 1 + 0j
    return GaussSumValue(total, chi)
