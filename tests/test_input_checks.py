"""Each input check of the library raises the TblabError subclass it names."""

import math

import numpy as np
import pytest

from tblab.arith import TWISTED, UNIT, DivisorSumSpec, divisors
from tblab.bessel import bessel_I, bessel_J, jy_values, k_values
from tblab.characters import enumerate_characters
from tblab.errors import DivergenceError, DomainError
from tblab.identities import IdentityCase, verify
from tblab.series import (
    QuadratureSpec,
    SeriesParams,
    adaptive_integral,
    cohen_tail_series,
    log_kernel_series,
    shifted_power_series,
    voronoi_kernel,
)
from tblab.specfun import generalized_bernoulli, hurwitz_zeta

UNIT_SPEC = DivisorSumSpec(UNIT)
CHI5 = enumerate_characters(5)[2]
T2_13 = {"a": 1.0, "x": 0.3}


@pytest.mark.parametrize("call, error, match", [
    (lambda: SeriesParams(0.0, 1.0), DomainError, "a > 0 and x > 0"),
    (lambda: SeriesParams(1.0, -1.0), DomainError, "a > 0 and x > 0"),
    (lambda: SeriesParams(1.0, 1.0, tol=0.0), DomainError, "tolerance must be positive"),
    (lambda: QuadratureSpec(2.0, 2.0), DomainError, "alpha < beta"),
    (lambda: adaptive_integral(lambda t: math.inf, QuadratureSpec(0.0, 1.0)),
     DomainError, "not finite"),
    (lambda: shifted_power_series(UNIT_SPEC, 2.5, -0.1), DomainError, "c must be >= 0"),
    (lambda: log_kernel_series(UNIT_SPEC, 0.0), DomainError, "c > 0"),
    (lambda: log_kernel_series(DivisorSumSpec(TWISTED, 1, CHI5), 0.7), DivergenceError,
     "weight below 1 \\+ delta"),
    (lambda: cohen_tail_series(UNIT_SPEC, -1.7, 0.0), DomainError, "Q > 0"),
    (lambda: voronoi_kernel("even-cos", 0.25, 0.0), DomainError, "u > 0"),
    (lambda: k_values(0.25, np.array([1.0, 0.0])), DomainError, "x > 0"),
    (lambda: jy_values(0.25, np.array([-1.0])), DomainError, "x > 0"),
    (lambda: bessel_I(0.25, -1.0), DomainError, "x >= 0"),
    (lambda: bessel_J(0.25, -1.0), DomainError, "x >= 0"),
    (lambda: hurwitz_zeta(2.0, 0.0), DomainError, "a > 0"),
    (lambda: generalized_bernoulli(0, CHI5), DomainError, "n >= 1"),
    (lambda: divisors(0), DomainError, "n >= 1"),
    (lambda: verify(IdentityCase("T2_13", char_index=2, **T2_13)), DomainError,
     "modulus and character index are required"),
    (lambda: verify(IdentityCase("T2_13", q=0, char_index=0, **T2_13)), DomainError,
     "modulus must be positive"),
    (lambda: verify(IdentityCase("T2_13", q=5, char_index=4, **T2_13)), DomainError,
     "character index 4 out of range"),
])
def test_input_check_raises_its_error(call, error, match):
    with pytest.raises(error, match=match):
        call()
