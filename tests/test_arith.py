import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tblab.arith import (
    DivisorSumSpec,
    _char_values,
    closed_form_F,
    closed_form_F_prime,
    coefficient_array,
    divisor_sum,
)
from tblab.characters import TRIVIAL, enumerate_characters
from tblab.errors import DomainError


@pytest.fixture(scope="module")
def chi4():
    return enumerate_characters(4)[1]


@pytest.fixture(scope="module")
def chi3():
    return enumerate_characters(3)[1]


def test_twisted_examples(chi4):
    # chi on d, the trivial character on n/d: sum_{d|n} d^z chi(d)
    spec = DivisorSumSpec(0, chi4)
    assert divisor_sum(spec, 5) == 2  # chi(1) + chi(5)
    spec2 = DivisorSumSpec(2, chi4)
    assert divisor_sum(spec2, 6) == -8  # 1*1 + 4*0 + 9*(-1) + 36*0
    # and on n/d: sum_{d|n} d^z chi(n/d)
    bar2 = DivisorSumSpec(2, TRIVIAL, chi4)
    assert divisor_sum(bar2, 6) == 32  # 1*0 + 4*(-1) + 9*0 + 36*1
    # n = 1 always gives chi(1) = 1
    for spec in (DivisorSumSpec(3.7, chi4), DivisorSumSpec(3.7, TRIVIAL, chi4)):
        assert divisor_sum(spec, 1) == 1
    # both slots trivial: sigma_z(n)
    assert divisor_sum(DivisorSumSpec(), 12) == 6
    assert divisor_sum(DivisorSumSpec(2), 6) == 50


def test_spec_validation():
    with pytest.raises(DomainError):
        divisor_sum(DivisorSumSpec(), 0)


# counts on both sides of a square, where the sweep's split isqrt(count)
# moves: 8 | 9, 10; 399 | 400, 401, 420
@pytest.mark.parametrize("count", [1, 2, 3, 8, 9, 10, 399, 400, 401, 420, 1009])
def test_coefficient_array_matches_direct(chi4, chi3, count):
    specs = [DivisorSumSpec(2, chi4),
             DivisorSumSpec(1, TRIVIAL, chi3),
             DivisorSumSpec(0, chi3, chi4),
             DivisorSumSpec(-0.3, chi4),
             DivisorSumSpec(0.3 + 0.7j, chi4, enumerate_characters(5)[1]),
             DivisorSumSpec()]
    for spec in specs:
        arr = coefficient_array(spec, count)
        assert len(arr) == count + 1
        for n in range(1, count + 1):
            assert abs(arr[n] - divisor_sum(spec, n)) < 1e-12


def test_trivial_is_the_character_mod_1(chi4, chi3):
    # TRIVIAL equals the enumerated character mod 1, so a sum with either
    # in a slot is the same computation, to the last bit, and shares its
    # value-keyed caches
    one = enumerate_characters(1)[0]
    assert TRIVIAL == one and hash(TRIVIAL) == hash(one) and TRIVIAL.conjugate() == one
    for weight in (2, -0.25, 0.3 + 0.7j):
        for spec, same in ((DivisorSumSpec(weight, chi4), DivisorSumSpec(weight, chi4, one)),
                           (DivisorSumSpec(weight, TRIVIAL, chi3),
                            DivisorSumSpec(weight, one, chi3))):
            assert np.array_equal(coefficient_array(spec, 500), coefficient_array(same, 500))
            for s in (2.5, 3.1 + 0.4j):
                assert closed_form_F(spec, s) == closed_form_F(same, s)
                assert closed_form_F_prime(spec, s) == closed_form_F_prime(same, s)


def _multiplying_sweeps(spec: DivisorSumSpec, count: int) -> np.ndarray:
    """coefficient_array's two sweeps with b = chi2 formed and multiplied
    in, whatever chi2 is."""
    arr = np.zeros(count + 1, dtype=complex)
    a = _char_values(spec.chi1, count, complex(spec.weight))
    b = _char_values(spec.chi2, count)
    root = math.isqrt(count)
    for d in range(1, root + 1):
        if a[d]:
            arr[d::d] += a[d] * b[1:count // d + 1]
    for e in range(count // (root + 1), 0, -1):
        if b[e]:
            arr[(root + 1) * e::e] += a[root + 1:count // e + 1] * b[e]
    return arr


@pytest.mark.parametrize("count", [1, 2, 4, 10, 99, 100, 101, 1024, 4095])
def test_trivial_chi2_is_the_multiplying_sweeps_byte_for_byte(count):
    # with a trivial chi2 the sweeps skip the products with b = 1 + 0j,
    # which are exact
    for q in range(1, 13):
        for chi in enumerate_characters(q):
            for weight in (0, 3, -0.25, 1.5 + 0.5j):
                spec = DivisorSumSpec(weight, chi)
                got = coefficient_array(spec, count)
                assert got.tobytes() == _multiplying_sweeps(spec, count).tobytes()


def test_trivial_character_slot_matches_direct(chi4, chi3):
    # a two-character sum with the trivial character mod 1 in one slot;
    # the sweep and the direct sum both keep the two slots
    for spec in (DivisorSumSpec(2, chi4, TRIVIAL),
                 DivisorSumSpec(-0.3, TRIVIAL, chi3)):
        arr = coefficient_array(spec, 400)
        for n in (1, 2, 17, 36, 399, 400):
            assert abs(arr[n] - divisor_sum(spec, n)) < 1e-12


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


def test_dirichlet_series_checks(chi4, chi3):
    # the residual is the genuine series tail (~4e-9 at 1e4 terms), always
    # inside the analytic bound returned alongside it
    resid, bound = dirichlet_series_check(DivisorSumSpec(0, chi4), 3.0, 10 ** 4)
    assert resid < 1e-8 and resid <= bound
    resid, bound = dirichlet_series_check(DivisorSumSpec(2, TRIVIAL, chi3), 5.0, 10 ** 4)
    assert resid < 1e-8 and resid <= bound
    resid, bound = dirichlet_series_check(DivisorSumSpec(0, chi4), 4.0, 10 ** 5)
    assert resid < 1e-9 and resid <= bound
    with pytest.raises(DomainError):
        dirichlet_series_check(DivisorSumSpec(2, chi4), 3.0, 100)


def test_equal_characters_collapse(chi4):
    # sigma_{k,chi,chi}(n) = chi(n) sigma_k(n)
    spec = DivisorSumSpec(2, chi4, chi4)
    for n in range(1, 1001):
        sigma_k = sum(d ** 2 for d in range(1, n + 1) if n % d == 0)
        assert abs(divisor_sum(spec, n) - chi4.value(n) * sigma_k) < 1e-9


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 4),
       st.sampled_from([0.25, 0.5, 1.3]))
def test_reflection(n, nu):
    chi = enumerate_characters(5)[2]
    lhs = n ** nu * divisor_sum(DivisorSumSpec(-nu, chi), n)
    rhs = divisor_sum(DivisorSumSpec(nu, TRIVIAL, chi), n)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_nonnegativity_for_real_primitive():
    for q, idx in ((3, 1), (4, 1), (5, 2), (8, 1)):
        chi = enumerate_characters(q)[idx]
        arr = coefficient_array(DivisorSumSpec(0, chi), 10 ** 4)
        assert np.all(arr[1:].real >= -1e-12)
        assert np.all(np.abs(arr[1:].imag) < 1e-12)
        squares = np.arange(1, 100) ** 2
        assert np.all(arr[squares].real >= 1 - 1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=999),
       st.integers(min_value=1, max_value=999))
def test_multiplicative_over_coprime(m, n):
    if math.gcd(m, n) != 1:
        return
    chi = enumerate_characters(4)[1]
    for spec in (DivisorSumSpec(1, chi),
                 DivisorSumSpec(2, TRIVIAL, chi),
                 DivisorSumSpec(1, chi, enumerate_characters(3)[1])):
        fm, fn = divisor_sum(spec, m), divisor_sum(spec, n)
        fmn = divisor_sum(spec, m * n)
        assert abs(fmn - fm * fn) < 1e-9 * max(1.0, abs(fm * fn))
