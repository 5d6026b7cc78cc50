"""Each input check of the library raises the TblabError subclass it names."""

import math
import re
import warnings

import numpy as np
import pytest

from tblab import clear_caches
from tblab.arith import DivisorSumSpec, coefficient_array
from tblab.bessel import bessel_I, bessel_J, bessel_K, bessel_Y, jy_values, k_values
from tblab.characters import enumerate_characters
from tblab.errors import ConvergenceError, DivergenceError, DomainError
from tblab.identities import IdentityCase, positivity_scan, verify
from tblab.series import (
    adaptive_integral,
    bessel_series,
    cohen_tail_series,
    log_kernel_series,
    oscillatory_kernel_integrals,
    shifted_power_series,
    voronoi_kernel_values,
)
from tblab.specfun import L_derivative, dirichlet_L, gamma, generalized_bernoulli, hurwitz_zeta

SPEC = DivisorSumSpec()  # d(n), both slots trivial
CHI5 = enumerate_characters(5)[2]
T2_13 = {"a": 1.0, "x": 0.3}


@pytest.mark.parametrize("call, error, match", [
    (lambda: bessel_series(SPEC, 0.0, 1.0), DomainError, "a > 0 and x > 0"),
    (lambda: bessel_series(SPEC, 1.0, -1.0), DomainError, "a > 0 and x > 0"),
    (lambda: bessel_series(SPEC, 1.0, 1.0, tol=0.0), DomainError,
     "tolerance must be positive"),
    (lambda: adaptive_integral(lambda t: t, 2.0, 2.0), DomainError, "alpha < beta"),
    (lambda: adaptive_integral(lambda t: math.inf, 0.0, 1.0), DomainError, "not finite"),
    (lambda: adaptive_integral(lambda t: t, 0.0, 1.0, tol=0.0), DomainError,
     "tolerance must be positive"),
    (lambda: adaptive_integral(lambda t: t, 0.0, 1.0, tol=math.nan), DomainError,
     "tolerance must be positive"),
    (lambda: shifted_power_series(SPEC, 2.5, 0.3, tol=math.nan), DomainError,
     "tolerance must be positive"),
    (lambda: shifted_power_series(SPEC, 2.5, -0.1), DomainError, "c must be >= 0"),
    (lambda: log_kernel_series(SPEC, 0.0), DomainError, "c > 0"),
    (lambda: log_kernel_series(DivisorSumSpec(1, CHI5), 0.7), DivergenceError,
     "weight below 1 \\+ delta"),
    (lambda: cohen_tail_series(SPEC, -1.7, 0.0), DomainError, "Q > 0"),
    (lambda: voronoi_kernel_values("even-cos", 0.25, np.array([0.0])), DomainError, "u > 0"),
    (lambda: k_values(0.25, np.array([1.0, 0.0])), DomainError, "x > 0"),
    (lambda: jy_values(0.25, np.array([-1.0])), DomainError, "x > 0"),
    (lambda: bessel_I(0.25, -1.0), DomainError, "x >= 0"),
    (lambda: bessel_J(0.25, -1.0), DomainError, "x >= 0"),
    (lambda: hurwitz_zeta(2.0, 0.0), DomainError, "a > 0"),
    (lambda: hurwitz_zeta(2.0, math.nan), DomainError, "finite a > 0, got .* a=nan"),
    (lambda: hurwitz_zeta(2.0, math.inf), DomainError, "finite a > 0, got .* a=inf"),
    (lambda: hurwitz_zeta(math.nan, 0.5), DomainError, "finite s .* got s=\\(nan"),
    (lambda: hurwitz_zeta(math.inf, 0.5), DomainError, "finite s .* got s=\\(inf"),
    (lambda: generalized_bernoulli(0, CHI5), DomainError, "n >= 1"),
    (lambda: verify(IdentityCase("T2_13", char_index=2, **T2_13)), DomainError,
     "modulus and character index are required"),
    (lambda: verify(IdentityCase("T2_13", q=0, char_index=0, **T2_13)), DomainError,
     "modulus must be positive"),
    (lambda: verify(IdentityCase("T2_13", q=5, char_index=4, **T2_13)), DomainError,
     "character index 4 out of range"),
    # a non-finite order or argument, and a head length past the budget,
    # are named as such
    (lambda: bessel_K(math.nan, 1.0), DomainError, "order must be finite, got nan"),
    (lambda: bessel_Y(math.inf, 1.0), DomainError, "order must be finite, got inf"),
    (lambda: bessel_I(0.5, math.nan), DomainError, "x >= 0"),
    (lambda: k_values(0.25, np.array([1.0, math.nan])), DomainError, "x > 0"),
    (lambda: jy_values(0.25, np.array([math.nan])), DomainError, "x > 0"),
    (lambda: dirichlet_L(complex(2.0, 1e308), CHI5), ConvergenceError,
     "head of .* 1e\\+308 terms, over the term budget of 1000000"),
    (lambda: shifted_power_series(SPEC, 2.5, math.inf), DomainError, "finite, got inf"),
    (lambda: cohen_tail_series(SPEC, -1.7, math.nan), DomainError, "Q = nan must be finite"),
    # before the tail bound takes the logarithm of 1 / (a sqrt(x))
    (lambda: bessel_series(SPEC, 1e300, 1e300), DomainError, "finite a sqrt\\(x\\)"),
    (lambda: bessel_series(SPEC, math.inf, 1.0), DomainError, "finite a sqrt\\(x\\)"),
    (lambda: bessel_series(SPEC, 1.0, math.inf), DomainError, "finite a sqrt\\(x\\)"),
    (lambda: adaptive_integral(math.exp, -math.inf, 0.0), DomainError, "finite alpha < beta"),
    (lambda: adaptive_integral(lambda t: 1.0, 0.0, math.nan), DomainError, "finite alpha < beta"),
    # an integrand that does not give one value per node
    (lambda: adaptive_integral(lambda t: 1.0, 0.0, 1.0), DomainError,
     r"one value per node: 16 nodes gave shape \(\)"),
    (lambda: adaptive_integral(lambda t: t[:1], 0.0, 1.0), DomainError,
     r"one value per node: 16 nodes gave shape \(1,\)"),
    # the kernel integrals, before they build the endpoint expansion
    (lambda: voronoi_kernel_values("even-cos", math.inf, np.array([1.0])), DomainError,
     "order must be finite, got inf"),
    (lambda: oscillatory_kernel_integrals(np.exp, 0.5, 3.4, math.inf, [20.0], -0.125,
                                          "even-cos"), DomainError, "order must be finite"),
    (lambda: oscillatory_kernel_integrals(np.exp, 0.5, math.inf, 0.25, [20.0], -0.125,
                                          "even-cos"), DomainError, "alpha < beta < inf"),
    (lambda: oscillatory_kernel_integrals(np.exp, 0.5, 3.4, 0.25, [20.0, math.inf], -0.125,
                                          "even-cos"), DomainError,
     "finite t_exponent and scales"),
    (lambda: oscillatory_kernel_integrals(np.exp, 0.5, 3.4, 0.25, [20.0], math.nan,
                                          "even-cos"), DomainError,
     "finite t_exponent and scales"),
    (lambda: oscillatory_kernel_integrals(np.exp, 0.5, 3.4, 0.25, [0.0], -0.125,
                                          "even-cos"), DomainError, r"scales > 0, .*\[0\.0\]"),
    (lambda: oscillatory_kernel_integrals(np.exp, 0.5, 3.4, 0.25, [-1.0, 20.0], -0.125,
                                          "even-cos"), DomainError, r"scales > 0, .*\[-1\.0\]"),
    # a count that is not an int >= 0; a bool reads no int's table entry
    (lambda: coefficient_array(SPEC, -1), DomainError, "int count >= 0, got -1"),
    (lambda: coefficient_array(SPEC, 2.5), DomainError, "int count >= 0, got 2.5"),
    (lambda: coefficient_array(SPEC, 5000.0), DomainError, "int count >= 0, got 5000.0"),
    (lambda: (coefficient_array(SPEC, 1), coefficient_array(SPEC, True)), DomainError,
     "int count >= 0, got True"),
    # a count past the term budget, refused before the array is allocated
    (lambda: coefficient_array(SPEC, 10 ** 12), ConvergenceError,
     r"a coefficient array needs 1e\+12 terms, over the term budget of 1000000$"),
    (lambda: coefficient_array(SPEC, 10 ** 19), ConvergenceError,
     r"a coefficient array needs 1e\+19 terms, over the term budget of 1000000$"),
    # n^(Re z + 1) past the double range, before any power is formed; and a
    # tail bound of inf - inf, before any coefficient is built
    (lambda: coefficient_array(DivisorSumSpec(9.740598742493492e57), 100), DomainError,
     "100 terms at weight 9.7406e\\+57 may leave the double range"),
    (lambda: bessel_series(DivisorSumSpec(1e20, CHI5), 1.26759308430862e239, 1e20, -1e308),
     DomainError, "no tail bound at nu = -1e\\+308"),
    # L' at an s that L refuses, before the pole check takes |s - 1|
    *((lambda q=q: L_derivative(-1e308 + 1.7976931348623157e308j, enumerate_characters(q)[0]),
       DomainError, r"L\(-1e\+308\+1.79769e\+308j, chi\) overflows")
      for q in (1, 3, 4, 5, 7, 8, 12)),
])
def test_input_check_raises_its_error(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_a_tabled_count_past_the_term_budget_is_refused(monkeypatch):
    # the budget is checked before the coefficient table is read: a count
    # the table could serve is refused as one it would have to build
    spec = DivisorSumSpec(0.5)
    clear_caches()
    coefficient_array(spec, 2000)
    monkeypatch.setenv("TBL_MAX_TERMS", "100")
    for count in (2000, 1999):
        with pytest.raises(ConvergenceError, match=re.escape(f"needs {count:.3g} terms, over the "
                                                             "term budget of 100")):
            coefficient_array(spec, count)


# at a non-real s, where the Euler-Maclaurin sums are numpy array work: a
# tiny a's a^{-s}, and L' of the reflection at -167 + i, where Gamma(168 - i)
# and both parts of L are finite but L' passes the double range
@pytest.mark.parametrize("call, match", [
    (lambda: hurwitz_zeta(2 + 3j, 1e-300), r"zeta\(2\+3j, 1e-300\) lies outside the double range"),
    (lambda: L_derivative(complex(-167, 1), enumerate_characters(7)[1]),
     r"L'\(-167\+1j, chi\) overflows the double range"),
])
def test_a_value_past_the_double_range_at_a_non_real_s(call, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        with pytest.raises(DomainError, match=match):
            call()


def test_a_gamma_below_every_subnormal_is_a_zero():
    # at 7.9 - 1e308i the direct route's complex power t^{s-1/2} raises
    # ZeroDivisionError: Gamma is a zero there, as at 1 + 1e300i
    for s in (7.908262328084312 - 1e308j, 1 + 1e300j, 2 + 1e200j):
        assert gamma(s) == 0


T2_1 = dict(q=4, char_index=1, k=0, nu=0.6, a=1.0, x=0.75)
P1_1 = dict(nu=0.3, N=2, x=0.75)


@pytest.mark.parametrize("theorem, point, field, value, message", [
    ("T2_1", T2_1, "x", 10 ** 400, "x must be a finite number, got 1000"),
    ("T2_1", T2_1, "x", "1", "x must be of type float, got '1'"),
    ("T2_1", T2_1, "q", 4.0, "q must be of type int, got 4.0"),
    ("T2_1", T2_1, "char_index", 1.5, "char_index must be of type int, got 1.5"),
    ("T2_1", T2_1, "nu", 0.6 + 0j, "nu must be of type float, got (0.6+0j)"),
    # which would run, and pass, as N = 2
    ("P1_1", P1_1, "N", 2.7, "N must be of type int, got 2.7"),
    # bool is a subclass of int, so True would run as char_index 1 and False as k 0
    ("T2_1", T2_1, "char_index", True, "char_index must be of type int, got True"),
    ("T2_1", T2_1, "k", False, "k must be of type int, got False"),
    ("T2_1", T2_1, "a", True, "a must be of type float, got True"),
], ids=["huge-x", "string-x", "float-q", "float-char-index", "complex-nu", "float-N",
        "bool-char-index", "bool-k", "bool-a"])
def test_a_field_of_the_wrong_type_is_refused(theorem, point, field, value, message):
    # each given field is checked against its IdentityCase annotation
    # before any hypothesis reads it
    with pytest.raises(DomainError, match=re.escape(message)):
        verify(IdentityCase(theorem, **dict(point, **{field: value})))


@pytest.mark.parametrize("call, message", [
    (lambda: verify(IdentityCase("T2_13", q=5, char_index=2, **T2_13), tol="1"),
     "tol must be of type float, got '1'"),
    (lambda: verify(IdentityCase("T2_13", q=5, char_index=2, **T2_13), tol=1e-3 + 0j),
     "tol must be of type float, got (0.001+0j)"),
    (lambda: verify(IdentityCase("T2_13", q=5, char_index=2, **T2_13), tol=10 ** 400),
     "tol must be a finite number > 0, got 1000"),
    (lambda: verify(IdentityCase("T2_13", q=5, char_index=2, **T2_13), tol=True),
     "tol must be of type float, got True"),
    (lambda: positivity_scan(True), "q_max must be of type int, got True"),
    (lambda: positivity_scan("7"), "q_max must be of type int, got '7'"),
    (lambda: positivity_scan(50.0), "q_max must be of type int, got 50.0"),
], ids=["string-tol", "complex-tol", "huge-tol", "bool-tol", "bool-q-max",
        "string-q-max", "float-q-max"])
def test_tol_and_q_max_are_checked_like_a_field(call, message):
    # verify's tol is checked as a float field, then > 0; positivity_scan's
    # q_max as an int field, then >= 3
    with pytest.raises(DomainError, match=re.escape(message)):
        call()


def _refuse(*args):
    raise AssertionError("allocated past the term budget")


class _RefusingTable(dict):
    def __getitem__(self, key):
        _refuse()


@pytest.mark.parametrize("call, cap, count, allocator, stand_in", [
    # the e^{-4 pi sqrt(n x)} sum of C3_1, (45 / 4 pi sqrt x)^2 + 8 terms
    (lambda: verify(IdentityCase("C3_1", q=5, char_index=2, x=0.001)), 1000, "1.28e+04",
     "tblab.identities.coefficient_array", _refuse),
    # the finite sum of T4_1, the 3,000 coefficients below beta
    (lambda: verify(IdentityCase("T4_1", q=5, char_index=2, nu=0.25, alpha=0.5,
                                 beta=3000.5, f="exp")), 1000, "3e+03",
     "tblab.identities.coefficient_array", _refuse),
    # a closed-form tail's head of 2,500 c terms for a shift c > 1
    (lambda: shifted_power_series(SPEC, 2.5, 1.5), 1000, "3.75e+03",
     "tblab.series.coefficient_array", _refuse),
    # an Euler-Maclaurin head of |Im s| + 10 terms, before its corrections
    (lambda: dirichlet_L(complex(0.0, 1e9), CHI5), 1000, "1e+09",
     "tblab.specfun._EM_COEF", _RefusingTable()),
    # the q-entry value table of each character mod q, before the unit group
    (lambda: enumerate_characters(101), 100, "101", "tblab.characters._unit_group", _refuse),
], ids=["exp-half-sum", "finite-side", "closed-tail", "euler-maclaurin-head", "characters"])
def test_sum_past_the_term_budget_is_refused_before_it_allocates(
        monkeypatch, call, cap, count, allocator, stand_in):
    # each sum is sized first and refused by errors.within_budget, which
    # names its length and the budget
    monkeypatch.setenv("TBL_MAX_TERMS", str(cap))
    monkeypatch.setattr(allocator, stand_in)
    with pytest.raises(ConvergenceError,
                       match=f" needs {re.escape(count)} terms, over the term budget of {cap}$"):
        call()
