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
    euler_phi,
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

__version__ = "0.1.0"
