"""Gamma, Hurwitz/Riemann zeta, Dirichlet L-functions and L-derivatives.

The continuation backbone is Euler-Maclaurin summation for the Hurwitz
zeta function; every L-value is assembled from it through
L(s, chi) = q^{-s} * sum_a chi(a) zeta(s, a/q).  For non-principal
characters the simple pole of each zeta(s, a/q) cancels in the character
sum, which is realized exactly by summing the pole-regularized function
zeta(s, a) - 1/(s-1), so evaluation is stable arbitrarily close to s = 1.

Derivatives are Richardson-extrapolated central differences; the table is
grown until the extrapolant stalls at its roundoff floor, which lands
around 1e-11 absolute on the window used by the identity layer.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

from .characters import Character, _factorize, enumerate_characters, gauss_sum
from .errors import DomainError, PoleError

__all__ = [
    "EULER_GAMMA",
    "gamma",
    "digamma",
    "hurwitz_zeta",
    "riemann_zeta",
    "dirichlet_L",
    "generalized_bernoulli",
    "L_derivative",
    "zeta_derivative",
    "functional_equation_residual",
    "bernoulli_number",
    "bernoulli_polynomial",
]

EULER_GAMMA = 0.5772156649015328606

# Rational-coefficient gamma approximation, g = 607/128, 15 terms.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def _is_nonpositive_integer(s: complex) -> bool:
    return abs(s.imag) < 1e-12 and s.real <= 0.5 and abs(s.real - round(s.real)) < 1e-12


def gamma(s: complex | float) -> complex:
    """Gamma(s) for complex s, poles excluded."""
    s = complex(s)
    if _is_nonpositive_integer(s):
        raise PoleError(f"gamma pole at s={s}")
    if s.real < 0.5:
        # reflection: Gamma(s) = pi / (sin(pi s) Gamma(1-s))
        return cmath.pi / (cmath.sin(cmath.pi * s) * gamma(1.0 - s))
    z = s - 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (z + k)
    t = z + _LANCZOS_G + 0.5
    out = math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * acc
    if abs(s.imag) == 0.0:
        return complex(out.real, 0.0)
    return out


def digamma(x: float) -> float:
    """psi(x) for real x > 0."""
    if x <= 0:
        raise DomainError(f"digamma needs x > 0, got {x}")
    acc = 0.0
    while x < 12.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    for c in _DIGAMMA_TAIL:
        tail = (tail + c) * inv2
    return acc + math.log(x) - 0.5 / x - tail


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2)."""
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for k in range(n):
        acc += Fraction(math.comb(n + 1, k)) * bernoulli_number(k)
    return -acc / (n + 1)


# real coefficients B_{2j}/(2j), j = 1..7, for the digamma asymptotic tail
_DIGAMMA_TAIL = tuple(
    float(bernoulli_number(2 * j) / (2 * j)) for j in range(7, 0, -1)
)


def bernoulli_polynomial(n: int, x: Fraction) -> Fraction:
    """Exact B_n(x) for rational x."""
    acc = Fraction(0)
    for k in range(n + 1):
        acc += math.comb(n, k) * bernoulli_number(k) * x ** (n - k)
    return acc


_EM_TERMS = 12

# Left of these lines the Euler-Maclaurin head loses eps*(M+a)^{|Re s|}
# (amplified by q^{|Re s|} in an L-value assembly) to cancellation, so
# rational-a evaluations switch to the reflection route.  The thresholds
# sit left of the functional-equation test windows, which therefore
# exercise the direct continuation.
_REFLECT_RE_ZETA = -3.5   # a = 1: no modulus amplification
_REFLECT_RE = -1.75       # a = r/q, q >= 2


def _reflect_threshold(q: int) -> float:
    return _REFLECT_RE_ZETA if q == 1 else _REFLECT_RE


def _cexpm1(w: complex) -> complex:
    if abs(w) > 0.5:
        return cmath.exp(w) - 1.0
    term = 1.0 + 0j
    acc = 0j
    for k in range(1, 18):
        term *= w / k
        acc += term
    return acc


def _em_head_length(s: complex) -> int:
    im = abs(s.imag)
    if s.real < -0.25 and im <= max(2.0, -s.real):
        # negative real-ish s: a short head caps the eps*(M+a)^{|Re s|}
        # cancellation; the Bernoulli corrections still decay (or terminate)
        return 5
    m = max(15, math.ceil(im) + 10)
    if s.real < _REFLECT_RE_ZETA:
        # only reachable for non-rational a (no reflection route): trade
        # some cancellation for correction-term decay
        m += 3 * math.ceil(_REFLECT_RE_ZETA - s.real)
    return m


def _hurwitz_em(s: complex, a: float, regularized: bool,
                head: int | None) -> complex:
    M = head if head is not None else _em_head_length(s)
    acc = 0j
    for n in range(M):
        acc += (n + a) ** (-s)
    X = M + a
    lx = math.log(X)
    if regularized:
        # [(M+a)^{1-s} - 1]/(s-1): the pole term minus 1/(s-1), stable near s=1
        w = (1.0 - s) * lx
        acc += -_cexpm1(w) / (1.0 - s) if s != 1.0 else complex(-lx)
    else:
        acc += X ** (1.0 - s) / (s - 1.0)
    acc += 0.5 * X ** (-s)
    # correction terms: B_{2j}/(2j)! * (s)_{2j-1} * X^{-s-2j+1}
    poch = s  # (s)_1
    xpow = X ** (-s - 1.0)
    invx2 = 1.0 / (X * X)
    for j in range(1, _EM_TERMS + 1):
        acc += _EM_COEF[j] * poch * xpow
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        xpow *= invx2
    return acc


def _hurwitz_reflected(s: complex, r: int, q: int) -> complex:
    """zeta(s, r/q) for Re s < 0 via the expansion over conjugate
    arguments: zeta(s, r/q) = 2 Gamma(1-s)/(2 pi q)^{1-s}
    * sum_b zeta(1-s, b/q) sin(pi s/2 + 2 pi b r / q).

    Every piece is evaluated in the cancellation-free right half-plane, so
    the result carries relative (not just absolute) accuracy.
    """
    pref = 2.0 * gamma(1.0 - s) * (2.0 * math.pi * q) ** (s - 1.0)
    acc = 0j
    for b in range(1, q + 1):
        acc += (_hurwitz_em(s=1.0 - s, a=b / q, regularized=False, head=None)
                * cmath.sin(cmath.pi * s / 2.0 + 2.0 * math.pi * b * r / q))
    return pref * acc


def _rationalize(a: float) -> tuple[int, int] | None:
    fr = Fraction(a).limit_denominator(256)
    if fr > 0 and abs(float(fr) - a) <= 4e-16 * abs(a):
        return fr.numerator, fr.denominator
    return None


def hurwitz_zeta(s: complex | float, a: float, *, regularized: bool = False,
                 head: int | None = None) -> complex:
    """zeta(s, a) for a > 0, continued everywhere except s = 1.

    Euler-Maclaurin summation with `head` leading terms and 12 Bernoulli
    corrections; for Re s below the cancellation threshold and a
    recognizably rational a, the reflection route takes over.  With
    regularized=True returns zeta(s, a) - 1/(s-1), entire in s.
    """
    s = complex(s)
    if a <= 0:
        raise DomainError(f"hurwitz_zeta needs a > 0, got {a}")
    if not regularized and abs(s - 1.0) < 1e-12:
        raise PoleError("hurwitz_zeta pole at s=1")
    if s.real < _REFLECT_RE and head is None and a <= 1.0:
        rq = _rationalize(a)
        if rq is not None and s.real < _reflect_threshold(rq[1]):
            val = _hurwitz_reflected(s, *rq)
            return val - 1.0 / (s - 1.0) if regularized else val
    return _hurwitz_em(s, a, regularized, head)


_EM_COEF = {j: float(bernoulli_number(2 * j) / math.factorial(2 * j))
            for j in range(1, _EM_TERMS + 1)}


def riemann_zeta(s: complex | float) -> complex:
    """zeta(s), continued everywhere except the pole at s = 1."""
    s = complex(s)
    if abs(s - 1.0) < 1e-12:
        raise PoleError("zeta pole at s=1")
    return hurwitz_zeta(s, 1.0)


@lru_cache(maxsize=65536)
def _dirichlet_L_cached(sre: float, sim: float, chi: Character) -> complex:
    s = complex(sre, sim)
    q = chi.modulus
    if q == 1:
        return riemann_zeta(s)
    if chi.is_principal:
        if abs(s - 1.0) < 1e-12:
            raise PoleError("L(s, principal chi) pole at s=1")
        # L(s, chi_0) = zeta(s) * prod_{p|q} (1 - p^{-s})
        val = riemann_zeta(s)
        for p, _ in _factorize(q):
            val *= 1.0 - p ** (-s)
        return val
    acc = 0j
    reflect = s.real < _REFLECT_RE
    for a in range(1, q):

        v = chi.value(a)
        if v:
            hz = (_hurwitz_reflected(s, a, q) if reflect
                  else _hurwitz_em(s, a / q, regularized=True, head=None))
            acc += v * hz
    # the regularized pole terms cancel since sum_a chi(a) = 0
    return acc * q ** (-s)


def dirichlet_L(s: complex | float, chi: Character) -> complex:
    """L(s, chi) with full analytic continuation.

    Entire for non-principal chi; for the principal character the simple
    pole at s = 1 raises PoleError.
    """
    s = complex(s)
    return _dirichlet_L_cached(s.real, s.imag, chi)


def generalized_bernoulli(n: int, chi: Character) -> complex:
    """B_{n,chi} = q^{n-1} sum_a chi(a) B_n(a/q)."""
    if n < 1:
        raise DomainError("generalized Bernoulli number needs n >= 1")
    q = chi.modulus
    acc = 0j
    for a in range(1, q + 1):
        v = chi.value(a)
        if v:
            acc += v * float(bernoulli_polynomial(n, Fraction(a, q)))
    return acc * q ** (n - 1)


def _richardson_derivative(f, s0: complex, h0: float = 0.5,
                           levels: int = 8) -> complex:
    rows: list[list[complex]] = []
    best = None
    best_err = math.inf
    for i in range(levels):
        h = h0 / 2 ** i
        d0 = (f(s0 + h) - f(s0 - h)) / (2.0 * h)
        row = [d0]
        if rows:
            prev = rows[-1]
            fac = 4.0
            for k in range(len(prev)):
                row.append((fac * row[k] - prev[k]) / (fac - 1.0))
                fac *= 4.0
        rows.append(row)
        if len(row) >= 2:
            err = abs(row[-1] - row[-2])
            if err < best_err:
                best, best_err = row[-1], err
            elif best is not None and err > 16.0 * best_err:
                break  # roundoff floor reached
    return best if best is not None else rows[-1][-1]


def L_derivative(s0: complex | float, chi: Character) -> complex:
    """L'(s0, chi) by Richardson-extrapolated central differences."""
    s0 = complex(s0)
    h0 = 0.5
    if chi.is_principal:
        if abs(s0 - 1.0) < 1e-9:
            raise PoleError("derivative requested at the pole s=1")
        if abs(s0 - 1.0) < 2 * h0:
            h0 = abs(s0 - 1.0) / 4.0
    return _richardson_derivative(lambda s: dirichlet_L(s, chi), s0, h0=h0)


def zeta_derivative(s0: complex | float) -> complex:
    """zeta'(s0) away from s0 = 1."""
    trivial = enumerate_characters(1)[0]
    return L_derivative(s0, trivial)


def functional_equation_residual(s: complex | float, chi: Character) -> float:
    """|L(s,chi) - i^{-kappa} (tau/pi) (2pi/q)^s Gamma(1-s) sin(pi(s+kappa)/2) L(1-s, conj chi)|.

    chi must be primitive; s must avoid the Gamma(1-s) poles.
    """
    if not chi.is_primitive:
        raise DomainError("functional equation holds for primitive characters")
    s = complex(s)
    q = chi.modulus
    kappa = 0 if chi.is_even else 1
    tau = gauss_sum(chi).value
    lhs = dirichlet_L(s, chi)
    chibar = chi.conjugate()
    u = 1.0 - s
    m = -round(u.real)
    if abs(u + m) < 1e-8 and m >= 0:
        # Gamma(1-s) pole at u = -m; it is cancelled either by the trivial
        # zero of L(u, conj chi) (when m = kappa mod 2) or by the zero of
        # sin(pi(s+kappa)/2) (otherwise).  Take the limit explicitly.
        if (m - kappa) % 2 == 0:
            gl = (cmath.sin(cmath.pi * (s + kappa) / 2.0)
                  * (-1.0) ** m / math.factorial(m)
                  * L_derivative(-m, chibar))
        else:
            r = (1 + m + kappa) // 2
            gl = (-(-1.0) ** (m + r) * math.pi / (2.0 * math.factorial(m))
                  * dirichlet_L(-m, chibar))
    else:
        gl = (gamma(u) * cmath.sin(cmath.pi * (s + kappa) / 2.0)
              * dirichlet_L(u, chibar))
    rhs = (-1j) ** kappa * tau / math.pi * (2.0 * math.pi / q) ** s * gl
    return abs(lhs - rhs)
