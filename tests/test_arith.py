import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tblab import arith, clear_caches
from tblab.arith import (
    DivisorSumSpec,
    _char_values,
    _coefficients,
    closed_form_F,
    closed_form_F_prime,
    coefficient_array,
    divisor_sum,
)
from tblab.bessel import _HOT_DOUBLES
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


def _is_real(spec: DivisorSumSpec) -> bool:
    return complex(spec.weight).imag == 0.0 and spec.chi1.is_real and spec.chi2.is_real


def _expected(spec: DivisorSumSpec, count: int) -> np.ndarray:
    """_multiplying_sweeps in coefficient_array's dtype: for a real weight
    and characters its real parts, its imaginary parts being all +0.0."""
    ref = _multiplying_sweeps(spec, count)
    if not _is_real(spec):
        return ref
    assert not ref.imag.any() and not np.signbit(ref.imag).any()
    return ref.real


@pytest.mark.parametrize("count", [1, 2, 4, 10, 99, 100, 101, 1024, 4095])
def test_trivial_chi2_is_the_multiplying_sweeps_byte_for_byte(count):
    # with a trivial chi2 the sweeps skip the products with b = 1 + 0j,
    # which are exact
    for q in range(1, 13):
        for chi in enumerate_characters(q):
            for weight in (0, 3, -0.25, 1.5 + 0.5j):
                spec = DivisorSumSpec(weight, chi)
                got = coefficient_array(spec, count)
                assert got.tobytes() == _expected(spec, count).tobytes()


@pytest.mark.parametrize("count", [1, 400, 2048, 2049, 5000, _HOT_DOUBLES, _HOT_DOUBLES + 1])
def test_coefficient_array_is_read_only_and_the_same_bits_cold_and_warm(chi4, chi3, count):
    # up to _HOT_DOUBLES the array is a view of a table entry, past it
    # afresh; either way no caller can write into what another reads
    spec = DivisorSumSpec(0.3 + 0.7j, chi4, chi3)
    clear_caches()
    cold = coefficient_array(spec, count)
    warm = coefficient_array(spec, count)
    assert np.shares_memory(warm, cold) == (count <= _HOT_DOUBLES)
    assert cold.tobytes() == warm.tobytes() == _multiplying_sweeps(spec, count).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        warm[1] = 0.0


def test_the_table_serves_every_count_in_any_order_with_the_bits_of_a_fresh_array():
    # one entry per spec, the longest array of up to _HOT_DOUBLES terms
    # built so far: ascending, descending or shuffled counts, cold or
    # warm, each read is a fresh array's bytes, in its dtype, read-only
    chi4, chi3 = enumerate_characters(4)[1], enumerate_characters(3)[1]
    chi5, chi8 = enumerate_characters(5)[1], enumerate_characters(8)[3]
    specs = [DivisorSumSpec(2, chi4), DivisorSumSpec(1, chi3, chi4),
             DivisorSumSpec(-0.25, TRIVIAL, chi8), DivisorSumSpec(1.5, chi5),
             DivisorSumSpec(0.3 + 0.7j, chi4, chi3), DivisorSumSpec(0, chi3, chi5)]
    assert [_is_real(spec) for spec in specs] == [True] * 3 + [False] * 3
    counts = [0, 1, 9, 400, 2049, 5000, _HOT_DOUBLES, _HOT_DOUBLES + 1, 9000]
    shuffled = counts[:]
    random.Random(0).shuffle(shuffled)
    for order in (counts, counts[::-1], shuffled):
        clear_caches()
        for _ in ("cold", "warm"):
            for spec in specs:
                for count in order:
                    got = coefficient_array(spec, count)
                    assert got.dtype == (np.float64 if _is_real(spec) else np.complex128)
                    assert got.size == count + 1 and not got.flags.writeable
                    assert got.tobytes() == _coefficients(spec, count).tobytes()
        assert set(arith._coefficient_table) == set(specs)
        assert all(a.size == _HOT_DOUBLES + 1 for a in arith._coefficient_table.values())
    clear_caches()
    assert not arith._coefficient_table


def test_the_table_holds_at_most_8_mb_and_the_latest_spec():
    # 80 complex arrays of _HOT_DOUBLES terms are 10 MB: the least
    # recently used specs leave, and a read moves its spec to the back
    chi5 = enumerate_characters(5)[1]
    specs = [DivisorSumSpec(complex(0.5, k / 100), chi5) for k in range(80)]
    clear_caches()
    for i, spec in enumerate(specs):
        coefficient_array(spec, _HOT_DOUBLES)
        coefficient_array(specs[0], 1)
        assert sum(a.nbytes for a in arith._coefficient_table.values()) <= 8 << 20
        assert list(arith._coefficient_table)[-2:] == [spec, specs[0]][-min(i + 1, 2):]
    assert len(arith._coefficient_table) < len(specs)
    assert arith._coefficient_table[specs[0]].size == _HOT_DOUBLES + 1
    clear_caches()


def _real_specs():
    """Every (chi1, chi2) of real characters with moduli <= 12 where chi2
    is trivial or shares chi1's modulus, and chi1 trivial with any chi2."""
    real = [chi for q in range(1, 13) for chi in enumerate_characters(q) if chi.is_real]
    return [(chi1, chi2) for chi1 in real for chi2 in real
            if chi1.modulus == 1 or chi2.modulus in (1, chi1.modulus)]


@pytest.mark.parametrize("count", [1, 7, 2048, 2049, _HOT_DOUBLES, _HOT_DOUBLES + 1, 40000])
def test_the_real_sweep_is_the_complex_sweep_byte_for_byte(count, monkeypatch):
    # a real weight with real characters runs the sweeps in float64 and
    # keeps them so: the real parts are the same products and sums, and
    # the complex sweeps' imaginary parts stay +0.0
    pairs = _real_specs()
    assert len(pairs) > 80
    dtypes = []
    monkeypatch.setattr(arith, "_char_values", lambda chi, count, z=0, dtype=complex:
                        dtypes.append(dtype) or _char_values(chi, count, z, dtype))
    clear_caches()
    for chi1, chi2 in pairs:
        for weight in (0, 1, 3, 0.5, -0.25):
            spec = DivisorSumSpec(weight, chi1, chi2)
            dtypes.clear()
            got = coefficient_array(spec, count)
            assert dtypes and set(dtypes) == {float}
            assert got.dtype == np.float64
            assert got.tobytes() == _expected(spec, count).tobytes()


@pytest.mark.parametrize("count", [1, 2, 9, 100, 401, 2048, 2049, 4096, 5000])
def test_a_shorter_array_is_the_prefix_of_a_longer_one(count):
    # every n gets its terms in ascending d whatever the count, real sweep
    # or complex, tabled or not: the Voronoi kernel rounds keep the new n
    # of each longer array and concatenate them
    chi8, chi12 = enumerate_characters(8)[3], enumerate_characters(12)[2]
    for spec in (DivisorSumSpec(), DivisorSumSpec(-0.5, chi8.conjugate(), chi8),
                 DivisorSumSpec(0.3 + 0.7j, chi12, enumerate_characters(5)[1]),
                 DivisorSumSpec(-1.25, enumerate_characters(7)[2], TRIVIAL)):
        short, whole = coefficient_array(spec, count), coefficient_array(spec, 10 ** 4)
        assert short.size == count + 1 and not short.flags.writeable
        assert short[1:].tobytes() == whole[1:count + 1].tobytes()


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
