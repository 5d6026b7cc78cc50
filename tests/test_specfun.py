import cmath
import math
import sys

import pytest

from tblab import clear_caches, specfun
from tblab.characters import enumerate_characters, gauss_sum
from tblab.errors import ConvergenceError, DomainError, PoleError
from tblab.specfun import (
    L_derivative,
    bernoulli_number,
    dirichlet_L,
    functional_equation_residual,
    gamma,
    generalized_bernoulli,
    hurwitz_zeta,
    riemann_zeta,
    zeta_derivative,
)

PI = math.pi


def euler_phi(q):
    return sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)


class TestGamma:
    def test_half_integer_and_factorial(self):
        assert abs(gamma(0.5) - math.sqrt(PI)) < 1e-14
        assert abs(gamma(5.0) - 24.0) < 1e-12

    def test_recurrence_self_consistency(self):
        s = complex(0.3, 0.7)
        assert abs(gamma(s + 1) / s - gamma(s)) < 1e-12 * abs(gamma(s))

    def test_reflection(self):
        s = complex(-2.3, 1.1)
        lhs = gamma(s) * gamma(1 - s)
        assert abs(lhs - PI / cmath.sin(PI * s)) < 1e-12 * abs(lhs)

    def test_poles(self):
        for s in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                gamma(s)

    def test_finite_up_to_its_overflow(self):
        # t^{s-1/2} alone leaves the double range from s ~ 143 on, Gamma
        # itself only past 171.6
        for s in [143.0 + 0.143 * i for i in range(201)]:
            assert abs(gamma(s).real / math.gamma(s) - 1.0) < 1e-14, s
        with pytest.raises(DomainError, match="outside the double range"):
            gamma(172.0)


class TestHurwitzZeta:
    def test_basel(self):
        assert abs(hurwitz_zeta(2.0, 1.0) - PI * PI / 6) < 1e-13

    def test_zero_at_half(self):
        # zeta(0, a) = 1/2 - a
        assert abs(hurwitz_zeta(0.0, 0.5)) < 1e-13
        assert abs(hurwitz_zeta(0.0, 0.25) - 0.25) < 1e-13

    def test_two_at_half(self):
        # sum over half-integers: zeta(2, 1/2) = pi^2/2
        assert abs(hurwitz_zeta(2.0, 0.5) - PI * PI / 2) < 1e-12

    def test_brute_summation_with_integral_tail(self):
        # direct summation oracle for Re s > 1
        s, a = 2.7, 0.3
        N = 200000
        head = sum((n + a) ** -s for n in range(N))
        tail = (N + a) ** (1 - s) / (s - 1)  # integral estimate
        assert abs(hurwitz_zeta(s, a) - (head + tail)) < 1e-10

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for s in (complex(-1.5, 0.0), complex(0.3, 5.0), complex(4.0, -2.0)):
            for a in (0.25, 1.0):
                with mpmath.workdps(30):
                    ref = complex(mpmath.zeta(mpmath.mpc(s), a))
                assert abs(hurwitz_zeta(s, a) - ref) < 1e-12

    def test_pole(self):
        with pytest.raises(PoleError):
            hurwitz_zeta(1.0, 0.5)

    def test_refused_left_of_the_reflection_line(self):
        # Re s = -1.75 itself is the Euler-Maclaurin route's; left of it
        # only L values, by dirichlet_L's reflected route, are served
        assert hurwitz_zeta(-1.75, 0.5) == specfun._hurwitz_em(-1.75, [0.5], False)[0]
        for s, a in ((-1.7500001, 0.5), (-150.0, 0.3), (complex(-4.0, 6.9), 0.861)):
            for regularized in (False, True):
                with pytest.raises(DomainError, match="Re s >= -1.75, got .* dirichlet_L"):
                    hurwitz_zeta(s, a, regularized=regularized)


class TestRiemannZeta:
    def test_large_negative_s(self):
        mpmath = pytest.importorskip("mpmath")
        assert riemann_zeta(-150.0) == 0  # a trivial zero
        with mpmath.workdps(30):
            ref = float(mpmath.zeta(-169))
        assert abs(riemann_zeta(-169.0) / ref - 1.0) < 1e-13

    def test_known_values(self):
        assert abs(riemann_zeta(2.0) - PI * PI / 6) < 1e-13
        assert abs(riemann_zeta(0.0) + 0.5) < 1e-13
        assert abs(riemann_zeta(-1.0) + 1.0 / 12.0) < 1e-13

    def test_functional_equation_grid(self):
        # 20 points in -3 <= Re s <= 4 avoiding poles and trivial zeros;
        # zeta reflects left of Re s = -1.75, so the points -3.0, -2.6, -2.2
        # and -2.8+1i compare the reflected route with itself
        grid = [-3.0, -2.6, -2.2, -1.7, -1.3, -0.7, -0.5, -0.1, 0.3, 0.6,
                2.2, 2.5, 3.2, 3.7, 3.95,
                complex(-2.8, 1.0), complex(-1.5, 2.0), complex(0.5, 3.0),
                complex(2.5, 2.5), complex(3.9, 1.5)]
        assert len(grid) == 20
        for s in grid:
            s = complex(s)
            rhs = (2.0 ** s * PI ** (s - 1) * cmath.sin(PI * s / 2)
                   * gamma(1.0 - s) * riemann_zeta(1.0 - s))
            assert abs(riemann_zeta(s) - rhs) < 1e-10, s


class TestDirichletL:
    def test_leibniz(self):
        chi4 = enumerate_characters(4)[1]
        # Leibniz alternating series as the independent oracle
        oracle = sum((-1) ** k / (2 * k + 1) for k in range(200000))
        oracle += 1.0 / (4 * 200000)  # midpoint correction of the tail
        val = dirichlet_L(1.0, chi4)
        assert abs(val - PI / 4) < 1e-13
        assert abs(val - oracle) < 1e-10

    def test_value_at_zero(self):
        chi3 = enumerate_characters(3)[1]
        assert abs(dirichlet_L(0.0, chi3) - 1.0 / 3.0) < 1e-13

    def test_trivial_character_is_zeta(self):
        triv = enumerate_characters(1)[0]
        assert abs(dirichlet_L(2.0, triv) - PI * PI / 6) < 1e-13

    def test_direct_series_agreement(self):
        # matches the defining series for Re s >= 2
        for q, idx in ((5, 1), (7, 2), (8, 3)):
            chi = enumerate_characters(q)[idx]
            s = 2.0
            partial = sum(chi.value(n) * n ** -s for n in range(1, 200001))
            assert abs(dirichlet_L(s, chi) - partial) < 1e-10

    @pytest.mark.parametrize("q, index, s, dps", [(40, 3, 200.0, 120), (3, 1, 700.0, 230)])
    def test_L_and_derivative_where_q_to_the_s_leaves_the_double_range(self, q, index, s, dps):
        # Re s log q > log DBL_MAX: the Dirichlet series, not the assembly
        # whose q^{-s} overflows; mpmath's L' cancels log q L(s) against the
        # Hurwitz derivatives, so it takes about 17 - log10 |L'| digits
        pytest.importorskip("mpmath")
        from golden_distances import mp_L
        chi = enumerate_characters(q)[index]
        for d, got in ((0, dirichlet_L(s, chi)), (1, L_derivative(s, chi))):
            value = mp_L(s, chi, d, dps)
            assert abs(got - value) <= 1e-15 * abs(value), d

    @pytest.mark.parametrize("q, index", [(1, 0), (3, 1), (40, 3)])
    def test_L_from_re_s_16_is_its_dirichlet_series(self, q, index):
        # the assembly loses about Re s eps there (1.1e-14 relative at
        # s = 100 for chi mod 40 index 3), where the series stops after
        # about 12 terms, exact to rounding
        pytest.importorskip("mpmath")
        from golden_distances import mp_L
        chi = enumerate_characters(q)[index]
        for s in (16.0, 30.0, 100.0, 600.0):
            value = mp_L(s, chi, 0, 40)
            assert abs(dirichlet_L(s, chi) - value) <= 2 * sys.float_info.epsilon * abs(value), s

    def test_L_and_derivative_far_past_the_double_range(self):
        # 2^{-Re s} underflows: L is 1 and L' is 0 in double precision, with
        # no Euler-Maclaurin head of |Im s| terms
        chi = enumerate_characters(5)[1]
        for s in (1e300, complex(1e308, 1e308)):
            assert (dirichlet_L(s, chi), L_derivative(s, chi)) == (1, 0)

    @pytest.mark.parametrize("value, s", [(riemann_zeta, 3e13), (zeta_derivative, 3e13),
                                          (riemann_zeta, complex(1e20, 1.0))],
                             ids=["zeta", "zeta'", "zeta at 1e20+i"])
    def test_zeta_far_right_takes_the_dirichlet_series(self, value, s):
        # log q = 0 for zeta, so the route test takes log 2: from Re s = 1024
        # on, zeta is 1 and zeta' is 0 in double precision, where the
        # Euler-Maclaurin coefficients would overflow
        assert value(s) == (1 if value is riemann_zeta else 0)

    def test_principal_pole(self):
        with pytest.raises(PoleError):
            dirichlet_L(1.0, enumerate_characters(6)[0])

    # right of the reflection threshold only: left of it the per-residue sum
    # is the less accurate route, and test_specfun_oracle's table checks L
    @pytest.mark.parametrize("s", [complex(-1.0, -4.2), complex(-1.0, 10.0),
                                   complex(0.5, 0.0), complex(0.5, 9.3),
                                   complex(2.0, -10.0), complex(2.0, 1.7)])
    def test_assembly_matches_per_residue_hurwitz_values(self, s):
        # L(s, chi) = q^{-s} sum_a chi(a) zeta(s, a/q), bit for bit: the
        # pole terms of the regularized zeta(s, a/q) cancel in the sum
        chars = [chi for q in (5, 8, 12, 21, 40)
                 for chi in enumerate_characters(q) if not chi.is_principal]
        assert any(c.is_real for c in chars) and not all(c.is_real for c in chars)
        assert not all(c.is_primitive for c in chars)
        for chi in chars:
            q = chi.modulus
            acc = 0j
            for a in range(1, q):
                v = chi.value(a)
                if v:
                    acc += v * hurwitz_zeta(s, a / q, regularized=True)
            assert dirichlet_L(s, chi) == acc * q ** (-s), (q, chi.index)

    def test_reflected_route_evaluates_q_conjugate_values(self, monkeypatch):
        # left of the threshold one L(1-s, conj chi*) for the primitive chi*
        # mod q* inducing chi: one batch of phi(q*) values at 1-s
        batches = []
        em = specfun._hurwitz_em

        def counting(s, avals, *args, **kwargs):
            batches.append(len(avals))
            return em(s, avals, *args, **kwargs)

        monkeypatch.setattr(specfun, "_hurwitz_em", counting)
        for q, idx in ((37, 5), (40, 3), (9, 1)):
            chi = enumerate_characters(q)[idx]
            for s, count in ((complex(-2.718, 3.14), euler_phi(chi.conductor)),
                             (complex(0.577, -1.41), euler_phi(q))):
                batches.clear()
                clear_caches()
                dirichlet_L(s, chi)
                assert batches == [count], (q, idx, s)


# The array pass that takes every non-real s against the scalar loop that
# every real s keeps: both ways, at each unit of q = 3, 4, 7, 37 and 40,
# over Re s in [-1.75, 8) and |Im s| <= 40, differ by at most 8.2 eps
# times the head's sum of |(n + a)^{-s}| (times |log(n + a)| for zeta')
# plus |zeta| (|zeta'|), at Re s = 5.5 and 7.99 with Im s = 26 (q = 37),
# where each route's x^{-s} errs by about eps |s| log x
EM_AGREEMENT_BOUND = 32.0


@pytest.mark.parametrize("q", [3, 4, 7, 37, 40])
def test_the_array_pass_agrees_with_the_loop(q):
    avals = [a / q for a in range(1, q) if math.gcd(a, q) == 1]
    series_branch = 0
    for re in (-1.75, -1.2, -0.5, 0.0, 0.45, 0.97, 1.3, 2.5, 4.0, 5.5, 7.99):
        for im in (-40.0, -17.3, -3.7, -0.6, -0.02, 1e-7, 0.3, 5.2, 11.1, 26.0, 40.0):
            s = complex(re, im)
            M = specfun._em_setup(s)[0]
            for regularized in (False, True):
                for derivative, loop, weight in (
                        (False, specfun._em_loop, lambda x: 1.0),
                        (True, specfun._em_loop_derivative, lambda x: abs(math.log(x)))):
                    got = specfun._em_array(s, avals, regularized, derivative)
                    for a, want, value in zip(avals, loop(s, avals, regularized), got):
                        head = math.fsum(weight(n + a) * (n + a) ** -re for n in range(M))
                        scale = sys.float_info.epsilon * (head + abs(want))
                        assert abs(value - want) <= EM_AGREEMENT_BOUND * scale, (s, a)
                    # the loop's series for the regularized pole term of zeta'
                    series_branch += derivative and regularized and any(
                        abs((1 - s) * math.log(M + a)) <= 2.0 for a in avals)
    assert series_branch


class TestGeneralizedBernoulli:
    def test_examples(self):
        chi3 = enumerate_characters(3)[1]
        assert abs(generalized_bernoulli(1, chi3) + 1.0 / 3.0) < 1e-15
        chi4 = enumerate_characters(4)[1]
        assert abs(generalized_bernoulli(1, chi4) + 0.5) < 1e-15
        # opposite parity forces zero
        assert abs(generalized_bernoulli(2, chi4)) < 1e-15
        assert abs(generalized_bernoulli(2, chi3)) < 1e-15

    def test_l_value_consistency(self):
        # |L(1-n, chi) + B_{n,chi}/n| small for all chi mod q <= 20, n <= 6
        for q in range(1, 21):
            for chi in enumerate_characters(q):
                for n in range(1, 7):
                    err = abs(dirichlet_L(1.0 - n, chi)
                              + generalized_bernoulli(n, chi) / n)
                    assert err < 1e-9, (q, chi.index, n, err)


class TestDerivatives:
    def test_zeta_prime_zero(self):
        assert abs(zeta_derivative(0.0) + 0.5 * math.log(2 * PI)) < 1e-11

    def test_l_prime_relation_even_character(self):
        # L'(0, chi) = (tau/2) L(1, conj chi) for even primitive chi
        chi5 = enumerate_characters(5)[2]
        tau = gauss_sum(chi5).value
        lhs = L_derivative(0.0, chi5)
        rhs = tau / 2.0 * dirichlet_L(1.0, chi5.conjugate())
        assert abs(lhs - rhs) < 1e-7

    def test_derivative_batches_on_each_route(self, monkeypatch):
        # L'(s0) = q^{-s0} sum_a chi(a) zeta'(s0, a/q) - log q L(s0): one
        # derivative batch over the units on the Euler-Maclaurin route; on
        # the reflected route one batch of phi(q*) derivatives at 1 - s0 for
        # the primitive chi* mod q* inducing chi; and a warm L(s0), and on
        # the reflected route a warm L(1 - s0, conj chi*), from the cache
        batches = []
        for name in ("_hurwitz_em", "_hurwitz_em_derivative"):
            def counting(s, avals, *args, _name=name, _batch=getattr(specfun, name), **kwargs):
                batches.append((_name, len(avals)))
                return _batch(s, avals, *args, **kwargs)

            monkeypatch.setattr(specfun, name, counting)
        for q, idx in ((37, 5), (40, 3), (9, 1), (1, 0)):
            chi = enumerate_characters(q)[idx]
            for s, route in ((complex(-3.718, 3.14),
                              [("_hurwitz_em_derivative", euler_phi(chi.conductor))]),
                             (complex(0.577, -1.41), [("_hurwitz_em_derivative", euler_phi(q))])):
                dirichlet_L(s, chi)
                batches.clear()
                L_derivative(s, chi)
                assert batches == route, (q, idx, s)

    def test_derivative_refuses_what_L_refuses_and_the_pole(self):
        chi = enumerate_characters(5)[1]
        for s in (complex(math.nan, 0.0), complex(0.0, math.inf), -math.inf, -400.0):
            with pytest.raises(DomainError):
                L_derivative(s, chi)
        with pytest.raises(ConvergenceError, match="head of .* 1e\\+09 terms, over the term "
                                                   "budget of 1000000"):
            L_derivative(complex(0.0, 1e9), chi)
        for q in (1, 6):
            for s in (1.0, 1 + 5e-10, complex(1.0, -9e-10)):
                with pytest.raises(PoleError):
                    L_derivative(s, enumerate_characters(q)[0])


class TestFunctionalEquation:
    def test_residual_examples(self):
        chi3 = enumerate_characters(3)[1]
        chi5 = enumerate_characters(5)[2]
        chi4 = enumerate_characters(4)[1]
        assert functional_equation_residual(0.3, chi3) < 1e-9
        assert functional_equation_residual(0.5, chi5) < 1e-9
        assert functional_equation_residual(2.0, chi4) < 1e-9

    def test_gamma_pole_cancelled_by_the_sine(self):
        # at s = 2 for even chi and s = 1 for odd chi, Gamma(1 - s) has a pole
        # that sin(pi (s + kappa)/2) cancels, not a trivial zero of L(1 - s)
        assert functional_equation_residual(2.0, enumerate_characters(5)[2]) < 1e-13
        assert functional_equation_residual(1.0, enumerate_characters(4)[1]) < 1e-13
        assert functional_equation_residual(1.0, enumerate_characters(7)[1]) < 1e-13

    def test_imprimitive_rejected(self):
        from tblab.errors import DomainError
        with pytest.raises(DomainError):
            functional_equation_residual(0.5, enumerate_characters(8)[2])


def test_bernoulli_numbers():
    from fractions import Fraction
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(12) == Fraction(-691, 2730)
    assert bernoulli_number(7) == 0


def test_positivity_q_to_50():
    phi = (1 + math.sqrt(5)) / 2
    spot = {3: PI / (3 * math.sqrt(3)), 4: PI / 4,
            5: 2 / math.sqrt(5) * math.log(phi)}
    seen = set()
    for q in range(3, 51):
        for chi in enumerate_characters(q):
            if chi.is_real and chi.is_primitive and not chi.is_principal:
                val = dirichlet_L(1.0, chi).real
                assert val > 0, (q, chi.index)
                if q in spot:
                    assert abs(val - spot[q]) < 1e-9
                    seen.add(q)
    assert seen == {3, 4, 5}
