"""Gamma, Hurwitz zeta, L and L' against mpmath at 30 digits.

Points are drawn over Re s in [-4, 3], |Im s| <= 10, a in (0, 1] and
every primitive non-principal character mod q <= 40.  Each error is
|got - value| / max(1, |value|): absolute where the function is small,
as at its zeros, and relative elsewhere.  The draws are derandomized, so
a run is repeatable.  Each bound is about 3 times the worst error of
random draws: 3,000 for Gamma and Hurwitz zeta, and for L and L' 1,600
over the whole range plus 600 with Re s in [-1.75, -1.27].  The worst
were 2.7e-14 (Gamma near its pole at -4), 2.9e-10 (zeta(s, a) at Re s
near -4 with an a that is not a small-denominator rational), 3.2e-12
(L just right of its reflection threshold at Re s = -1.75) and 9.9e-12
(L' at s = -1.52 + 0.03i, chi mod 19 index 4, where L' takes log q times
the error of L(s) just right of that threshold).  So the L' bound, kept
at 1e-11, is only about 1 times its worst error.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tblab.characters import _factorize, enumerate_characters
from tblab.errors import DomainError, PoleError
from tblab.specfun import (
    L_derivative,
    _digamma,
    dirichlet_L,
    gamma,
    hurwitz_zeta,
    zeta_derivative,
)

mpmath = pytest.importorskip("mpmath")

CHARS = [chi for q in range(3, 41) for chi in enumerate_characters(q)
         if chi.is_primitive and not chi.is_principal]

GAMMA_BOUND = 1e-13
HURWITZ_BOUND = 1e-9
L_BOUND = 1e-11
# worst 8.8e-12, chi_0 mod 40 at s = -1.6: the Euler-Maclaurin route just
# right of the reflection threshold, as for L above
PRINCIPAL_L_BOUND = 3e-11
L_DERIVATIVE_BOUND = 1e-11

# s on a grid of step 2^-10, whole numbers included: mpmath's zeta(s, a)
# and L(s, chi) raise ZeroDivisionError at some |s| below about 1e-80
points = st.builds(complex, st.integers(-4 * 1024, 3 * 1024).map(lambda k: k / 1024),
                   st.integers(-10 * 1024, 10 * 1024).map(lambda k: k / 1024))
shifts = st.floats(0.0, 1.0, exclude_min=True)
characters = st.sampled_from(CHARS)
oracle = settings(max_examples=40, deadline=None, derandomize=True)


def _error(got, value) -> float:
    return float(abs(got - complex(value)) / max(1, abs(value)))


def _mp_L(chi):
    """s -> L(s, chi) in mpmath, from exact character values: summed over
    Hurwitz zeta for Re s >= 1/2, else by the functional equation, as
    mpmath's Hurwitz zeta takes seconds at Re s = -4."""
    q, kappa = chi.modulus, 1 if chi.is_odd else 0
    logs = [chi.log_value(n) for n in range(q)]
    values = [0 if r is None else mpmath.expjpi(2 * mpmath.mpf(r.numerator) / r.denominator)
              for r in logs]
    conj = [mpmath.conj(v) for v in values]
    tau = sum(v * mpmath.expjpi(mpmath.mpf(2 * n) / q) for n, v in enumerate(values))
    root = tau / (mpmath.j ** kappa * mpmath.sqrt(q))

    def L(s):
        s = mpmath.mpc(s)
        if s.real >= 0.5:
            return mpmath.dirichlet(s, values)
        return (root * (q / mpmath.pi) ** (0.5 - s) * mpmath.gamma((1 - s + kappa) / 2)
                * mpmath.rgamma((s + kappa) / 2) * mpmath.dirichlet(1 - s, conj))
    return L


@oracle
@given(points)
def test_gamma(s):
    try:
        got = gamma(s)
    except PoleError:
        assert s.imag == 0 and s.real == round(s.real) <= 0
        return
    with mpmath.workdps(30):
        assert _error(got, mpmath.gamma(s)) < GAMMA_BOUND


@oracle
@given(points, shifts)
def test_hurwitz_zeta(s, a):
    assume(s != 1)
    with mpmath.workdps(30):
        value = mpmath.zeta(s, a)
    try:
        got = hurwitz_zeta(s, a)
    except DomainError:
        assert abs(value) > 1e307  # only a value outside the double range
        return
    assert _error(got, value) < HURWITZ_BOUND


@settings(oracle, max_examples=25)
@given(points, characters)
def test_dirichlet_L(s, chi):
    with mpmath.workdps(30):
        assert _error(dirichlet_L(s, chi), _mp_L(chi)(s)) < L_BOUND


@settings(oracle, max_examples=25)
@given(points, characters)
def test_L_derivative(s, chi):
    with mpmath.workdps(40):  # a central difference good to about 1e-18
        L = _mp_L(chi)  # tau and the root number at 40 digits too
        h = mpmath.mpf("1e-9")
        value = (L(s + h) - L(s - h)) / (2 * h)
    assert _error(L_derivative(s, chi), value) < L_DERIVATIVE_BOUND


# both routes, either side of the threshold -1.75, and around the pole
PRINCIPAL_POINTS = [complex(-3.0, 0.5), complex(-2.2, -7.1), complex(-1.9, 3.0),
                    complex(-1.6, 0.0), complex(-1.0, -4.2), 0j, complex(0.5, 9.3),
                    complex(1.001, 0.0), complex(0.9999, 0.0), complex(1.0, 1e-5),
                    complex(1 + 1e-7, -1e-7), complex(2.0, -10.0), complex(3.0, 1.7)]


@pytest.mark.parametrize("q", range(2, 41))
def test_principal_L_against_zeta_euler_factors(q):
    # L(s, chi_0) = zeta(s) prod_{p | q} (1 - p^{-s})
    chi = enumerate_characters(q)[0]
    assert chi.is_principal
    with mpmath.workdps(30):
        for s in PRINCIPAL_POINTS:
            value = mpmath.zeta(s)
            for p, _ in _factorize(q):
                value *= 1 - mpmath.power(p, -mpmath.mpc(s))
            assert _error(dirichlet_L(s, chi), value) < PRINCIPAL_L_BOUND, s


def test_oracle_characters_and_its_functional_equation_branch():
    assert {chi.modulus for chi in CHARS} == {q for q in range(3, 41) if q % 4 != 2}
    assert len(CHARS) == 284
    # at Re s = 1/4 mpmath's direct sum is still fast: both branches agree
    with mpmath.workdps(30):
        s = mpmath.mpc(0.25, 3)
        for chi in CHARS[::29]:
            direct = mpmath.dirichlet(s, [complex(chi.value(n)) for n in range(chi.modulus)])
            assert abs(_mp_L(chi)(s) - direct) < 1e-14 * max(1, abs(direct))


# the arguments 1 - s of the reflected route of L': Re s < -1.75
@oracle
@given(points.filter(lambda s: s.real < -1.75))
def test_digamma_on_the_reflected_route(s):
    with mpmath.workdps(30):
        assert _error(_digamma(1.0 - s), mpmath.digamma(1 - mpmath.mpc(s))) < 1e-15


@pytest.mark.parametrize("s", [1 + 1e-2, 1 + 1e-4, 1 + 1e-6, 1 + 1e-8, complex(1, 1e-3)])
def test_zeta_derivative_near_its_pole(s):
    got = zeta_derivative(s)
    with mpmath.workdps(30):
        value = mpmath.zeta(mpmath.mpc(s), 1, 1)
    assert abs(got - complex(value)) < 1e-13 * abs(value)
    if isinstance(s, float):
        assert got.imag == 0.0


@pytest.mark.parametrize("chi", [chi for chi in CHARS if chi.is_real],
                         ids=lambda chi: f"{chi.modulus}-{chi.index}")
def test_L_derivative_around_one(chi):
    values = [int(chi.value(n).real) for n in range(chi.modulus)]
    # L is real on the real axis, so L'(x) = Im L(x + ih)/h + O(h^2 L'''):
    # one mpmath L value per real point, at 40 digits as L(x + ih) ~ 1/h
    h = mpmath.mpf("1e-10")
    for x in (1.0, 1 + 1e-6, 1 - 1e-6):
        with mpmath.workdps(40):
            value = mpmath.dirichlet(mpmath.mpc(x, h), values).imag / h
        assert _error(L_derivative(x, chi), value) < 1e-13, x
    s = complex(1, 1e-4)
    with mpmath.workdps(30):
        assert _error(L_derivative(s, chi), mpmath.dirichlet(s, values, 1)) < 1e-13
