import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractions import Fraction

from tblab.characters import (
    Character,
    _factorize,
    _primitive,
    _primitive_root,
    _unit_group,
    enumerate_characters,
    gauss_sum,
)
from tblab import characters
from tblab.errors import ConvergenceError, InvalidModulus


def euler_phi(q):
    return sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)


def test_enumeration_counts():
    assert len(enumerate_characters(4)) == 2
    assert len(enumerate_characters(1)) == 1
    for q in range(1, 31):
        chars = enumerate_characters(q)
        assert len(chars) == euler_phi(q)
        assert chars[0].is_principal


def test_modulus_past_the_term_budget_is_refused_before_the_unit_group(monkeypatch):
    def refuse(q):
        raise AssertionError("unit group built for a refused modulus")

    monkeypatch.setenv("TBL_MAX_TERMS", "100")
    monkeypatch.setattr(characters, "_unit_group", refuse)
    with pytest.raises(ConvergenceError, match="term budget of 100"):
        enumerate_characters(101)


def test_q5_has_one_real_nonprincipal_and_it_is_even():
    chars = enumerate_characters(5)
    real_np = [c for c in chars if c.is_real and not c.is_principal]
    assert len(real_np) == 1
    assert real_np[0].is_even


def test_trivial_character_mod_1():
    triv = enumerate_characters(1)[0]
    assert all(triv.value(n) == 1 for n in range(-3, 10))


def test_invalid_modulus():
    with pytest.raises(InvalidModulus):
        enumerate_characters(0)


def test_character_values():
    chi4 = enumerate_characters(4)[1]
    assert chi4.is_odd and chi4.is_real
    assert chi4.value(3) == -1
    assert chi4.value(7) == -1
    # zero off the units, for every modulus > 1
    for q in (2, 6, 9):
        for chi in enumerate_characters(q):
            assert chi.value(q) == 0
    principal5 = enumerate_characters(5)[0]
    assert principal5.value(7) == 1


def test_value_table_realizes_the_exact_exponents(monkeypatch):
    for q in range(1, 41):
        for chi in enumerate_characters(q):
            for n in range(-q, 2 * q):
                r = chi.log_value(n)
                if r is None:
                    want = 0j
                elif r == 0:
                    want = 1 + 0j
                elif 2 * r == 1:
                    want = -1 + 0j
                else:
                    want = cmath.exp(2j * cmath.pi * float(r))
                assert chi.value(n) == want, (q, chi.index, n)
    # a fresh enumeration reads the tables already realized
    calls = []
    monkeypatch.setattr(Character, "log_value", lambda chi, n: calls.append(n))
    for q in range(1, 41):
        for chi in enumerate_characters(q):
            for n in range(q):
                chi.value(n)
    assert calls == []


def _exact_exponents(chi):
    """n -> sum_i c_i l_i / m_i mod 1 at each unit n, from the discrete logs
    l of n and the character's exponents c, without its exponent table."""
    grp = _unit_group(chi.modulus)
    return {n: sum((Fraction(c * l, m) for c, l, m in zip(chi.exponents, vec, grp.orders)),
                   Fraction(0)) % 1
            for n, vec in grp.dlog.items()}


def test_exponent_table_against_the_discrete_logs():
    for q in range(1, 61):
        for chi in enumerate_characters(q):
            r = _exact_exponents(chi)
            assert [chi.log_value(n) for n in range(q)] == [r.get(n) for n in range(q)]
            assert chi.parity == ("even" if r[(q - 1) % q] == 0 else "odd")
            # the least f | q with chi(u) = 1 at every unit u = 1 mod f
            f = next(f for f in range(1, q + 1)
                     if q % f == 0 and all(r[u] == 0 for u in r if u % f == 1 % f))
            assert chi.conductor == f, (q, chi.index)
            star = _primitive(chi)
            assert star.modulus == f and star == enumerate_characters(f)[star.index]
            r_star = _exact_exponents(star)
            assert all(r[n] == r_star[n % f] for n in r), (q, chi.index)


def test_periodicity_and_multiplicativity():
    for chi in enumerate_characters(7):
        for n in range(1, 15):
            assert chi.value(n + 7) == chi.value(n)
        for m in range(1, 8):
            for n in range(1, 8):
                assert abs(chi.value(m * n) - chi.value(m) * chi.value(n)) < 1e-14


def test_conductors():
    assert enumerate_characters(6)[0].conductor == 1
    chi3 = enumerate_characters(3)[1]
    assert chi3.conductor == 3 and chi3.is_primitive
    # mod-8 character agreeing with the mod-4 odd character on odd residues
    chi4 = enumerate_characters(4)[1]
    induced = [c for c in enumerate_characters(8)
               if all(c.value(n) == chi4.value(n) for n in (1, 3, 5, 7))]
    assert len(induced) == 1
    assert induced[0].conductor == 4 and not induced[0].is_primitive


def test_primitive_root_lifts_to_the_prime_square():
    # 5 is the least primitive root mod p = 40487, but 5^(p-1) = 1 mod p^2,
    # so 5 has order p - 1 mod p^2 and the lift takes 5 + p
    p = 40487
    assert _primitive_root(p, 1) == 5 and pow(5, p - 1, p * p) == 1
    g = _primitive_root(p, 2)
    order = p * (p - 1)
    assert g == 40492
    assert all(pow(g, order // f, p * p) != 1 for f, _ in _factorize(order))


def test_gauss_sum_examples():
    chi4 = enumerate_characters(4)[1]
    assert abs(gauss_sum(chi4).value - 2j) < 1e-13
    chi5 = enumerate_characters(5)[2]
    assert abs(gauss_sum(chi5).value - math.sqrt(5)) < 1e-13
    triv = enumerate_characters(1)[0]
    assert gauss_sum(triv).value == 1


def test_orthogonality_to_q30():
    for q in range(1, 31):
        chars = enumerate_characters(q)
        phi = len(chars)
        for c1 in chars:
            for c2 in chars:
                acc = sum(c1.value(n) * c2.value(n).conjugate()
                          for n in range(1, q + 1))
                expected = phi if c1.index == c2.index else 0.0
                assert abs(acc - expected) < 1e-12 * max(1, phi)


def test_gauss_product_signs():
    # tau(chi) tau(conj chi) = chi(-1) q for primitive non-principal chi
    for q in range(2, 31):
        for chi in enumerate_characters(q):
            if not chi.is_primitive or chi.is_principal:
                continue
            prod = gauss_sum(chi).value * gauss_sum(chi.conjugate()).value
            expected = -q if chi.is_odd else q
            assert abs(prod - expected) < 1e-10
            assert abs(abs(gauss_sum(chi).value) ** 2 - q) < 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.data())
def test_conjugate_closure(q, data):
    chars = enumerate_characters(q)
    chi = data.draw(st.sampled_from(chars))
    twice = chi.conjugate().conjugate()
    assert twice == chi
    conj = chi.conjugate()
    for n in range(1, q + 1):
        r = chi.log_value(n)
        if r is None:
            assert conj.log_value(n) is None
        else:
            assert conj.log_value(n) == (-r) % 1  # exact rational arithmetic
        assert abs(conj.value(n) - chi.value(n).conjugate()) < 1e-15


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.data())
def test_order_divides_group_order(q, data):
    chars = enumerate_characters(q)
    chi = data.draw(st.sampled_from(chars))
    assert euler_phi(q) % chi.order == 0
    assert chi.conductor > 0 and q % chi.conductor == 0
