"""tblab: a verification laboratory for character-twisted Bessel series.

The library computes both sides of exact identities that express
K-Bessel-weighted twisted divisor sums through Dirichlet L-values,
auxiliary rational-tail series and Voronoi-type kernel expansions, and
certifies the agreement numerically.
"""

from .arith import DivisorSumSpec, divisor_sum
from .bessel import bessel_I, bessel_J, bessel_K, bessel_Y
from .characters import (
    Character,
    GaussSumValue,
    enumerate_characters,
    gauss_sum,
)
from .errors import (
    ConvergenceError,
    DivergenceError,
    DomainError,
    ExcludedParameter,
    HypothesisError,
    InvalidModulus,
    PoleError,
    QuadratureError,
    TblabError,
)
from .identities import (
    IdentityCase,
    VerificationReport,
    positivity_scan,
    run_suite,
    verify,
)
from .specfun import (
    EULER_GAMMA,
    L_derivative,
    dirichlet_L,
    gamma,
    generalized_bernoulli,
    hurwitz_zeta,
    riemann_zeta,
)

from . import arith, characters, identities, series, specfun

__version__ = "0.1.0"

# Every process-level cache of the library, each bounded by its lru_cache
# maxsize but bernoulli_number's and _unit_group's, which grow with the
# orders and moduli asked for.  specfun._units and specfun._em_grid hold the
# s-independent parts of an L-value: each modulus's units, and the log
# grid, X and X^{1-2j} of an Euler-Maclaurin batch per (unit set, head).
# arith._coefficient_table, a dict with a cache_clear, holds per spec the
# longest coefficient array of up to 8,192 terms built so far, float64 for
# a real spec, at most 8 MB in all, least-recently-used specs leaving first;
# series._kernel_store, a _Table too, the values K_nu(lam sqrt(n)) of
# bessel_series per (nu, lam), the longest run of 8,192-argument chunks
# from n = 1 formed so far, at most 4 MB, least-recently-used (nu, lam) cut
# to their quadrature-regime chunks, then leaving; series._dirichlet_tail
# the closed-form tails at the default head per (spec, head, s, log).
_CACHES = (
    characters._unit_group,
    characters._exponent_table,
    characters._value_table,
    characters._primitive,
    characters._characters,
    characters.gauss_sum,
    specfun.bernoulli_number,
    specfun._dirichlet_L_cached,
    specfun._units,
    specfun._em_grid,
    arith._coefficient_table,
    series._kernel_store,
    series._dirichlet_tail,
    series._page_coefs,
    series._endpoint_expansion,
)


def clear_caches() -> None:
    """Empty every cache of _CACHES, as in a fresh process."""
    for cache in _CACHES:
        cache.cache_clear()
