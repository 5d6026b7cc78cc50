"""Gamma, Hurwitz/Riemann zeta, Dirichlet L-functions and L-derivatives.

The continuation backbone is Euler-Maclaurin summation for the Hurwitz
zeta function; every L-value is assembled from it through
L(s, chi) = q^{-s} * sum_a chi(a) zeta(s, a/q), summed over the units a
in [1, q].  The Riemann zeta function and the principal L-functions take
the same assembly: zeta is L for the character mod 1.  For non-principal
characters the simple pole of each zeta(s, a/q) cancels in the character
sum, which is realized exactly by summing the pole-regularized function
zeta(s, a) - 1/(s-1), so evaluation is stable arbitrarily close to s = 1.

An L-value does its s-dependent work once.  The Euler-Maclaurin routine
takes one s and a batch of arguments a, forming the head length, the
exponents and the correction coefficients once per batch (the scalar
hurwitz_zeta is a batch of one), and all units a of the modulus go into
one batch.  At a non-real s the batch is NumPy array work: one complex
exp over the (units x (head + 1)) grid of log(n + a) gives the head and
one power X^{-s} per unit (X = M + a) for the pole, half and correction
terms, the corrections through one real (units x 12) matrix of the
powers X^{1-2j}.  The logs, X and X^{1-2j} do not depend on s: they are
formed once per unit set and head length M and process (_em_grid), and
each modulus's units and a/q once per q (_units).  Each unit's rows are
summed by themselves, so that its value does not depend on the batch or
the cache.  At a real s, the only s the registry asks for, the batch is
a scalar loop, on whose rounding the recorded values rest.
Left of the reflection threshold, L(s, chi) is E(s) F(s) L(1-s, conj
chi*): chi* mod q* is the primitive character that induces chi,
E(s) = prod (1 - chi*(p) p^{-s}) over the primes p | q not dividing q*
(Montgomery-Vaughan, Multiplicative Number Theory I, 9.1), F is the
factor of chi*'s functional equation (Davenport, ch. 9), and
L(1-s, conj chi*) is one cached Euler-Maclaurin value.  A value outside
the double range, on any route, raises DomainError.

L'(s0) = q^{-s0} sum_a chi(a) zeta'(s0, a/q) - log q L(s0) takes L(s0)
from the cache and the Hurwitz derivatives from one batch: the
Euler-Maclaurin sum differentiated term by term in s (Johansson, Numer.
Algorithms 69, 2015).  Left of the reflection threshold L' is the product
rule on E F L(1-s, conj chi*), with psi(1-s) and L'(1-s, conj chi*).

From Re s = 16 on, L is the Dirichlet series sum chi(n) n^{-s} itself,
for every q, summed until a term's bound falls below 1e-17 of the sum:
about 12 terms, exact to rounding, where the assembly loses about
Re s eps.  L' is -sum chi(n) log n n^{-s} where Re s log max(q, 2) passes
log DBL_MAX, so that the assembly's q^{-s} would leave the double range
(for zeta', q = 1, its Euler-Maclaurin coefficients overflow instead),
and for q > 1 from Re s = 8 on too, where its assembly cancels.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .bessel import _HOT_DOUBLES
from .characters import (TRIVIAL, Character, _exponent_table, _factorize, _primitive,
                         _root_of_unity, _value_table, gauss_sum)
from .errors import DomainError, PoleError, within_budget

__all__ = [
    "EULER_GAMMA",
    "gamma",
    "hurwitz_zeta",
    "riemann_zeta",
    "dirichlet_L",
    "generalized_bernoulli",
    "L_derivative",
    "zeta_derivative",
    "functional_equation_residual",
    "bernoulli_number",
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


def _lanczos(u: complex) -> tuple[complex, complex]:
    """t = u + g - 1/2 and the rational sum A of Gamma(u) = sqrt(2 pi)
    t^{u-1/2} e^{-t} A, for Re u >= 1/2."""
    z = u - 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (z + k)
    return z + _LANCZOS_G + 0.5, acc


def gamma(s: complex | float) -> complex:
    """Gamma(s) for complex s, poles excluded; DomainError past the double range.

    Left of Re s = 1/2 by reflection, pi / (sin(pi s) Gamma(1-s)).  Where
    that product leaves the double range (Gamma(1-s) from s ~ -170.6, sin(pi
    s) from |Im s| ~ 226), the quotient is formed in pieces whose divisors
    are at least 1, so that it falls to a subnormal or, past them, to a zero
    of the sign of sin(pi s).

    At a large |Im s| the value is good to about eps |Im s| log|t| relative
    (t = 1 - s + g - 1/2 for the reflection), on either route: the phase of
    t^{1/2-s} is rounded once.  Against 30-digit values it errs by 1.4e-13
    relative at -0.5 + 225i and by 4.7e-13 at -2.53 + 409.8i; test_gamma
    holds 1e-13 only for |Im s| <= 10, and no laboratory path takes Gamma
    at a larger |Im s|."""
    s = complex(s)
    if _is_nonpositive_integer(s):
        raise PoleError(f"gamma pole at s={s}")
    if s.real < 0.5:
        # reflection: Gamma(s) = pi / (sin(pi s) Gamma(1-s))
        try:
            out = cmath.pi / (cmath.sin(cmath.pi * s) * gamma(1.0 - s))
        except (DomainError, OverflowError):  # Gamma(1-s) or sin(pi s) overflows
            out = 0j
        if out == 0 or not cmath.isfinite(out):  # Gamma has no zero: the product overflowed
            # s = x + iy: sin(pi s) = e^{pi |y|} S, |S| <= 1, and Gamma(1-s) =
            # sqrt(2 pi) t^{1/2-s} e^{-t} A, so pi / (sqrt(2 pi) S e^{-t} A)
            # is divided twice by h, the square root of t^{1/2-s} e^{pi |y|}:
            # |h| = |t|^{(1/2-x)/2} e^{(pi - |arg t|) |y|/2} >= 1, formed as
            # Python's complex power forms t^{(1/2-s)/2}
            y = abs(s.imag)
            ipis = 1j * cmath.pi * s
            S = (cmath.exp(ipis - cmath.pi * y) - cmath.exp(-ipis - cmath.pi * y)) / 2j
            t, acc = _lanczos(1.0 - s)
            w, r, arg = 0.5 * (0.5 - s), abs(t), cmath.phase(t)
            try:
                h = cmath.rect(r ** w.real * math.exp(0.5 * math.pi * y - arg * w.imag),
                               arg * w.real + w.imag * math.log(r))
                out = cmath.pi / (math.sqrt(2.0 * math.pi) * S * cmath.exp(-t) * acc) / h / h
            except (OverflowError, ZeroDivisionError):  # h or e^t overflows
                out = 0j
            if out == 0 or not cmath.isfinite(out):  # below every subnormal
                out = complex(math.copysign(0.0, S.real), 0.0)
    else:
        t, acc = _lanczos(s)
        z = s - 1.0
        try:
            out = math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * acc
        except OverflowError:  # t^{z+1/2} overflows from Re s ~ 143, Gamma at 171.6
            try:
                p = t ** (0.5 * (z + 0.5))
                out = math.sqrt(2.0 * math.pi) * p * (p * cmath.exp(-t)) * acc
            except OverflowError:
                out = cmath.inf
    if not cmath.isfinite(out):
        raise DomainError(f"gamma({s:g}) lies outside the double range")
    if abs(s.imag) == 0.0:
        return complex(out.real, 0.0)
    return out


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


_EM_TERMS = 12
_EM_POWERS = np.arange(-1.0, -2 * _EM_TERMS, -2.0)  # the exponents 1 - 2j of X

# Left of this line the Euler-Maclaurin head loses eps*(M+a)^{|Re s|}
# (amplified by q^{|Re s|} in an L-value assembly) to cancellation, so
# zeta and every L switch to the reflection route, and hurwitz_zeta is
# refused.  It sits left of the functional-equation test windows of L,
# which therefore exercise the direct continuation.
_REFLECT_RE = -1.75
# From this Re s on L takes the Dirichlet series, for every q: the assembly
# loses about Re s eps (1.1e-14 relative at s = 100 for chi mod 40 index 3),
# where the series stops after about 12 terms, exact to rounding.
_SERIES_RE = 16.0
# Past this Re s log max(q, 2) the assembly's q^{-s} leaves the double range,
# and L' takes the Dirichlet series (zeta' from Re s = 1024).
_LOG_DBL_MAX = math.log(sys.float_info.max)
# From this Re s on L' for q > 1 takes the Dirichlet series too: its
# assembly cancels, by 6.9e-12 relative at s = 8 for chi mod 40 index 3,
# where the series takes 496 terms and errs by 4.9e-16.
_DERIVATIVE_SERIES_RE = 8.0


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
    return max(15, math.ceil(im) + 10)


def _em_setup(s: complex, derivative: bool = False) -> tuple[int, list[complex], list[complex]]:
    """The head length M of an Euler-Maclaurin batch at s, refused by
    within_budget before any term is summed, and the correction coefficients
    B_{2j}/(2j)! (s)_{2j-1} of X^{-s-2j+1}, with their s-derivatives for a
    derivative batch (else no derivatives)."""
    M = within_budget(_em_head_length(s), f"the Euler-Maclaurin head of zeta({s:g}, a)")
    coefs, dcoefs = [], []
    poch, dpoch = s, 1.0  # (s)_1 and its derivative
    for j in range(1, _EM_TERMS + 1):
        coefs.append(_EM_COEF[j] * poch)
        step = (s + 2 * j - 1) * (s + 2 * j)
        if derivative:
            dcoefs.append(_EM_COEF[j] * dpoch)
            dpoch = dpoch * step + poch * (2.0 * s + 4 * j - 1)
        poch *= step
    return M, coefs, dcoefs


# A batch at a non-real s takes the array pass, and at a real s the scalar
# loop.  The registry evaluates at real s only, and its recorded values
# rest on the loops' rounding; the loops go once a truth file for those
# values lets them move, and the array pass takes every s.
def _hurwitz_em(s: complex, avals, regularized: bool) -> list[complex]:
    """zeta(s, a), or zeta(s, a) - 1/(s-1) if regularized, for each a of avals."""
    return (_em_array(s, avals, regularized, derivative=False) if s.imag != 0.0
            else _em_loop(s, avals, regularized))


def _hurwitz_em_derivative(s: complex, avals, regularized: bool) -> list[complex]:
    """The s-derivatives of _hurwitz_em's values."""
    return (_em_array(s, avals, regularized, derivative=True) if s.imag != 0.0
            else _em_loop_derivative(s, avals, regularized))


def _em_loop(s: complex, avals, regularized: bool) -> list[complex]:
    """zeta(s, a) for each a of avals by Euler-Maclaurin summation; the
    head length, the powers' exponents and the correction coefficients
    depend on s alone and are formed once for the batch."""
    M, coefs, _ = _em_setup(s)
    ms, ps, ms1 = -s, 1.0 - s, -s - 1.0
    out = []
    for a in avals:
        acc = 0j
        for n in range(M):
            acc += (n + a) ** ms
        X = M + a
        lx = math.log(X)
        if regularized:
            # [(M+a)^{1-s} - 1]/(s-1): the pole term minus 1/(s-1), stable near s=1
            w = ps * lx
            acc += -_cexpm1(w) / ps if s != 1.0 else complex(-lx)
        else:
            acc += X ** ps / (s - 1.0)
        acc += 0.5 * X ** ms
        xpow, invx2 = X ** ms1, 1.0 / (X * X)
        for c in coefs:
            acc += c * xpow
            xpow *= invx2
        out.append(acc)
    return out


def _em_loop_derivative(s: complex, avals, regularized: bool) -> list[complex]:
    """d/ds zeta(s, a), or of zeta(s, a) - 1/(s-1) if regularized, for each
    a of avals: _em_loop's batch differentiated term by term.  A real s
    takes float powers, rounded by libm within an ulp, where Python's complex
    power multiplies an integer exponent out."""
    s = s.real if s.imag == 0.0 else s
    M, coefs, dcoefs = _em_setup(s, derivative=True)
    ms, ps, ms1 = -s, 1.0 - s, -s - 1.0
    out = []
    for a in avals:
        acc = -sum(math.log(n + a) * (n + a) ** ms for n in range(M))
        X = M + a
        lx = math.log(X)
        w = ps * lx
        if regularized and abs(w) <= 2.0:
            # [(X^{1-s} - 1)/(s-1)]' = lx^2 f'(w) for f(w) = (e^w - 1)/w, by
            # the series sum_k k w^{k-1}/(k+1)!, as the closed form cancels
            acc += lx * lx * sum(k * w ** (k - 1) / math.factorial(k + 1) for k in range(1, 28))
        else:  # [X^{1-s}/(s-1)]', and [-1/(s-1)]' = 1/(s-1)^2 if regularized
            acc -= X ** ps / (s - 1.0) * (lx + 1.0 / (s - 1.0))
            acc += 1.0 / (ps * ps) if regularized else 0.0
        acc -= 0.5 * lx * X ** ms
        xpow, invx2 = X ** ms1, 1.0 / (X * X)
        for c, dc in zip(coefs, dcoefs):
            acc += (dc - c * lx) * xpow
            xpow *= invx2
        out.append(acc)
    return out


@lru_cache(maxsize=256)
def _em_grid(avals: tuple[float, ...], M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The s-independent arrays of an Euler-Maclaurin batch with head
    length M, once per (avals, M) and process, read-only: log(n + a) over
    n = 0..M for each a of avals, whose column M is log X (X = M + a), X,
    and the (units x 12) powers X^{1-2j}.  _em_array asks only for a grid
    of at most _HOT_DOUBLES / 2 doubles, so an entry holds at most 32 kB
    and the 256 entries at most 8 MB; lvalue-scan's grids (units <= 36,
    M <= 20) hold under 10 kB each."""
    a = np.array(avals, dtype=float)
    logs = np.log(np.arange(M + 1.0) + a[:, None])
    X = M + a
    powers = X[:, None] ** _EM_POWERS
    for v in (logs, X, powers):
        v.flags.writeable = False
    return logs, X, powers


def _em_array(s: complex, avals, regularized: bool, derivative: bool) -> list[complex]:
    """_em_loop, or _em_loop_derivative if derivative, as array work: the
    head (n + a)^{-s} over the (units x head) grid, and one X^{-s} per unit
    (X = M + a) for the pole term X X^{-s}/(s-1), the half term X^{-s}/2 and
    the corrections X^{-s} sum_j c_j X^{1-2j}, times their log X factors for
    zeta'.  The logs, X and X^{1-2j} do not depend on s: where they fit in
    _HOT_DOUBLES / 2 doubles they come from _em_grid, and one complex exp
    over the log grid gives the head and X^{-s}; a larger head is summed in
    blocks of _HOT_DOUBLES doubles, uncached.  Each unit's head and
    correction row is summed by itself, and every log, power and exp is
    taken element by element, so a unit's value does not depend on its
    batch or on the cache.  A non-finite value raises OverflowError, as the
    loops' complex power does."""
    M, coefs, dcoefs = _em_setup(s, derivative)
    with np.errstate(all="ignore"):
        if len(avals) * (M + 2 + _EM_TERMS) <= _HOT_DOUBLES // 2:  # the doubles of _em_grid
            logs, X, u = _em_grid(tuple(avals), M)
            t = logs * -s
            np.exp(t, out=t)
            out = (t[:, :M] * -logs[:, :M] if derivative else t[:, :M]).sum(axis=1)
            lx, xs = logs[:, M], t[:, M]
        else:
            a = np.array(avals, dtype=float)
            cols = min(M, _HOT_DOUBLES // 2)  # complex values in a block
            rows = max(1, _HOT_DOUBLES // 2 // cols)
            out = np.zeros(a.size, complex)
            for j in range(0, M, cols):
                n = np.arange(j, min(M, j + cols), dtype=float)
                for i in range(0, a.size, rows):
                    lx = np.log(n + a[i:i + rows, None])
                    t = np.exp(lx * -s)
                    out[i:i + rows] += (t * -lx if derivative else t).sum(axis=1)
            X = M + a
            lx = np.log(X)
            xs = np.exp(lx * -s)  # X^{-s}
            u = X[:, None] ** _EM_POWERS
        ps = 1.0 - s
        if not derivative:
            out += -np.expm1(ps * lx) / ps if regularized else X * xs / (s - 1.0)
            out += 0.5 * xs + xs * (u * np.array(coefs)).sum(axis=1)
        else:
            pole = -X * xs / (s - 1.0) * (lx + 1.0 / (s - 1.0))
            if regularized:
                pole += 1.0 / (ps * ps)
                w = ps * lx
                small = abs(w) <= 2.0  # the loop's series branch, by Horner
                if small.any():
                    w, slope = w[small], 0.0
                    for k in range(27, 0, -1):
                        slope = slope * w + k / math.factorial(k + 1)
                    pole[small] = lx[small] ** 2 * slope
            dc = np.array(dcoefs) - lx[:, None] * np.array(coefs)
            out += pole - 0.5 * lx * xs + xs * (u * dc).sum(axis=1)
    if not np.isfinite(out).all():
        raise OverflowError(f"an Euler-Maclaurin sum at s = {s:g} leaves the double range")
    return out.tolist()


def _digamma(z: complex) -> complex:
    """psi(z): shifted to Re z >= 12 by psi(z) = psi(z + 1) - 1/z, then
    log z - 1/(2z) - sum_k B_{2k}/(2k z^{2k}) (DLMF 5.11.2)."""
    acc = 0j
    while z.real < 12.0:
        acc, z = acc - 1.0 / z, z + 1.0
    return acc + cmath.log(z) - 0.5 / z - sum(
        float(bernoulli_number(2 * k)) / (2 * k * z ** (2 * k)) for k in range(1, 9))


def hurwitz_zeta(s: complex | float, a: float, *, regularized: bool = False) -> complex:
    """zeta(s, a) for a finite a > 0 and finite s with Re s >= -1.75, s != 1.

    The Euler-Maclaurin batch of one that every L value takes right of the
    reflection threshold: a head of leading terms set by s and 12
    Bernoulli corrections, as NumPy array work at a non-real s and a
    scalar loop at a real s, the same value as in any larger batch.  With
    regularized=True returns zeta(s, a) - 1/(s-1), entire in s.  Left of
    the threshold the head cancels, so DomainError is raised there
    (dirichlet_L reflects), as it is for a value outside the double range
    (a^{-s} alone is, for a tiny a).
    """
    s = complex(s)
    if not (cmath.isfinite(s) and 0 < a < math.inf):
        raise DomainError(f"hurwitz_zeta needs a finite s and a finite a > 0, got s={s}, a={a}")
    if s.real < _REFLECT_RE:
        raise DomainError(f"hurwitz_zeta needs Re s >= {_REFLECT_RE}, got s={s}; "
                          "left of that line dirichlet_L takes the reflected route")
    if not regularized and abs(s - 1.0) < 1e-12:
        raise PoleError("hurwitz_zeta pole at s=1")
    try:
        return _hurwitz_em(s, [a], regularized)[0]
    except (OverflowError, ZeroDivisionError):  # Python's complex power overflowing
        raise DomainError(f"zeta({s:g}, {a:g}) lies outside the double range") from None


_EM_COEF = {j: float(bernoulli_number(2 * j) / math.factorial(2 * j))
            for j in range(1, _EM_TERMS + 1)}


def riemann_zeta(s: complex | float) -> complex:
    """zeta(s), continued everywhere except the pole at s = 1."""
    return dirichlet_L(s, TRIVIAL)


@lru_cache(maxsize=65536)
def _dirichlet_L_cached(sre: float, sim: float, chi: Character) -> complex:
    s = complex(sre, sim)
    q = chi.modulus
    if chi.is_principal and abs(s - 1.0) < 1e-12:
        raise PoleError(f"L(s, principal chi mod {q}) pole at s=1")
    if s.real < _REFLECT_RE:
        return _reflected(s, chi, derivative=False)
    if s.real >= _SERIES_RE:
        return _dirichlet_series(s, chi, derivative=False)
    return _assemble(s, chi, _hurwitz_em)


def _dirichlet_series(s: complex, chi: Character, derivative: bool) -> complex:
    """sum chi(n) n^{-s} from Re s = _SERIES_RE, or its s-derivative
    -sum chi(n) log n n^{-s} for Re s log q > _LOG_DBL_MAX or from
    _DERIVATIVE_SERIES_RE: from n = 2 on, until the bound n^{-Re s} on a
    term (times log n) falls to 1e-17 of the running sum, within
    N / (Re s - 1) (20 at Re s = 8) of the bound on the whole tail.  The
    value is the math.fsum of the terms' real and imaginary parts; the
    running sum only decides when to stop."""
    table, q = _value_table(chi), chi.modulus
    terms = [] if derivative else [table[1 % q]]
    acc, n = sum(terms, 0j), 2
    while True:
        log_n = math.log(n)
        bound = n ** -s.real * (log_n if derivative else 1.0)
        if bound <= 1e-17 * abs(acc):
            return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
        if table[n % q]:
            term = table[n % q] * n ** (-s)
            terms.append(-log_n * term if derivative else term)
            acc += terms[-1]
        n += 1


@lru_cache(maxsize=128)
def _units(q: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """The units a in [1, q] and their a/q, once per modulus: about 70
    bytes a unit, so 128 moduli below 1,000 hold under 9 MB."""
    units = tuple(a for a in range(1, q + 1) if math.gcd(a, q) == 1)
    return units, tuple(a / q for a in units)


def _assemble(s: complex, chi: Character, em) -> complex:
    """q^{-s} sum_a chi(a) f(s, a/q) over the units a, the batch of f (zeta
    or its s-derivative) from em."""
    q = chi.modulus
    table = _value_table(chi)
    units, avals = _units(q)
    # for a non-principal chi the regularized pole terms cancel, since
    # sum_a chi(a) = 0
    hzs = em(s, avals, regularized=not chi.is_principal)
    acc = 0j
    for a, hz in zip(units, hzs):
        acc += table[a % q] * hz
    return acc * q ** (-s)


def _fe_factor(s: complex, chi: Character) -> tuple[complex, complex, complex]:
    """P = (-i)^kappa tau/pi (2pi/q)^s for a primitive chi mod q, and sin and
    cos of pi(s+kappa)/2: L(s, chi) = P Gamma(1-s) sin L(1-s, conj chi).
    Re(s+kappa) is reduced exactly to its nearest integer n first and n
    taken in quarter turns, so a trivial zero is exactly 0."""
    kappa = 0 if chi.is_even else 1
    n = round(s.real)
    half = cmath.pi * complex(s.real - n, s.imag) / 2.0
    sn, cn = cmath.sin(half), cmath.cos(half)
    for _ in range((n + kappa) % 4):
        sn, cn = cn, -sn
    P = (-1j) ** kappa * gauss_sum(chi).value / math.pi * (2.0 * math.pi / chi.modulus) ** s
    return P, sn, cn


def _reflected(s: complex, chi: Character, derivative: bool) -> complex:
    """L(s, chi), or L'(s, chi) by the product rule if derivative, left of
    the reflection threshold: E(s) P Gamma(1-s) sin L(1-s, conj chi*), as
    in the module docstring, with P and sin from _fe_factor."""
    star = _primitive(chi)
    table = _value_table(star)
    e, de = 1.0, 0.0
    for p, _ in _factorize(chi.modulus):
        if star.modulus % p:
            c = table[p % star.modulus] * p ** (-s)
            e, de = e * (1.0 - c), de * (1.0 - c) + e * c * math.log(p)
    u, bar = 1.0 - s, star.conjugate()
    P, sn, cn = _fe_factor(s, star)
    A, value = P * gamma(u), dirichlet_L(u, bar)
    if not derivative:
        return e * A * sn * value
    dF = A * ((math.log(2.0 * math.pi / star.modulus) - _digamma(u)) * sn + 0.5 * math.pi * cn)
    return (de * A * sn + e * dF) * value - e * A * sn * L_derivative(u, bar)


def dirichlet_L(s: complex | float, chi: Character) -> complex:
    """L(s, chi) with full analytic continuation.

    Entire for non-principal chi; for the principal character the simple
    pole at s = 1 raises PoleError.  An s that is not finite, or a value
    outside the double range, raises DomainError.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"L(s, chi) needs a finite s, got {s}")
    try:
        value = _dirichlet_L_cached(s.real, s.imag, chi)
        if cmath.isfinite(value):  # else the reflection's product overflowed
            return value
    except (OverflowError, ZeroDivisionError):  # Python's complex power overflowing
        pass
    raise DomainError(f"L({s:g}, chi) overflows the double range")


def generalized_bernoulli(n: int, chi: Character) -> complex:
    """B_{n,chi} = q^{n-1} sum_a chi(a) B_n(a/q).  The exact B_n(a/q) are
    summed in Fraction within each class of units of equal exponent k, the
    class k + E/2 folded into the class k with a minus sign, as chi takes
    opposite values there, and each class sum is rounded once."""
    if n < 1:
        raise DomainError("generalized Bernoulli number needs n >= 1")
    q = chi.modulus
    E, ks = _exponent_table(chi)
    classes: dict[int, Fraction] = {}
    for a in range(1, q + 1):
        k = ks[a % q]
        if k is not None:
            x = Fraction(a, q)
            b = sum(math.comb(n, j) * bernoulli_number(j) * x ** (n - j) for j in range(n + 1))
            if 2 * k >= E:  # chi(a) = -e^{2 pi i (k - E/2)/E}; E = 1 only for q <= 2
                k, b = k - E // 2, -b
            classes[k] = classes.get(k, 0) + b
    acc = 0j
    for k, b in classes.items():
        acc += _root_of_unity(k, E) * float(b * q ** (n - 1))
    return acc


def L_derivative(s0: complex | float, chi: Character) -> complex:
    """L'(s0, chi) = q^{-s0} sum_a chi(a) zeta'(s0, a/q) - log q L(s0, chi),
    with L(s0, chi) from dirichlet_L's cache; left of the reflection
    threshold, the product rule of _reflected; the Dirichlet series where
    that difference cancels (q > 1, Re s0 >= 8) or q^{Re s0} overflows.
    For a principal chi, an s0 within 1e-9 of the pole raises PoleError."""
    s0 = complex(s0)
    if chi.is_principal and abs(s0 - 1.0) < 1e-9:
        raise PoleError("derivative requested at the pole s=1")
    value = dirichlet_L(s0, chi)  # refuses what L refuses
    try:
        log_q = math.log(chi.modulus)
        if s0.real < _REFLECT_RE:
            out = _reflected(s0, chi, derivative=True)
        elif (s0.real * math.log(max(chi.modulus, 2)) > _LOG_DBL_MAX
              or (log_q and s0.real >= _DERIVATIVE_SERIES_RE)):
            out = _dirichlet_series(s0, chi, derivative=True)
        else:
            out = _assemble(s0, chi, _hurwitz_em_derivative) - log_q * value
        if cmath.isfinite(out):
            return out
    except (OverflowError, ZeroDivisionError):  # Python's complex power overflowing
        pass
    raise DomainError(f"L'({s0:g}, chi) overflows the double range")


def zeta_derivative(s0: complex | float) -> complex:
    """zeta'(s0) away from s0 = 1."""
    return L_derivative(s0, TRIVIAL)


def functional_equation_residual(s: complex | float, chi: Character) -> float:
    """|L(s,chi) - i^{-kappa} (tau/pi) (2pi/q)^s Gamma(1-s) sin(pi(s+kappa)/2) L(1-s, conj chi)|.

    chi must be primitive; s must avoid the Gamma(1-s) poles.
    """
    if not chi.is_primitive:
        raise DomainError("functional equation holds for primitive characters")
    s = complex(s)
    kappa = 0 if chi.is_even else 1
    lhs = dirichlet_L(s, chi)
    P, sn, _ = _fe_factor(s, chi)
    chibar = chi.conjugate()
    u = 1.0 - s
    m = -round(u.real)
    if abs(u + m) < 1e-8 and m >= 0:
        # Gamma(1-s) pole at u = -m; it is cancelled either by the trivial
        # zero of L(u, conj chi) (when m = kappa mod 2) or by the zero of
        # sin(pi(s+kappa)/2) (otherwise).  Take the limit explicitly.
        if (m - kappa) % 2 == 0:
            gl = sn * (-1.0) ** m / math.factorial(m) * L_derivative(-m, chibar)
        else:
            r = (1 + m + kappa) // 2
            gl = (-(-1.0) ** (m + r) * math.pi / (2.0 * math.factorial(m))
                  * dirichlet_L(-m, chibar))
    else:
        gl = gamma(u) * sn * dirichlet_L(u, chibar)
    return abs(lhs - P * gl)
