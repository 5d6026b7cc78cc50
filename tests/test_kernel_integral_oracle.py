"""oscillatory_kernel_integrals against mpmath at 25 digits.

Six points over the test functions exp, t2 and gauss, the intervals
(0.5, 3.4) and (1.3, 5.7), three (order, t exponent) pairs and all four
kernel variants, each at 0.99 and 1.01 times the endpoint expansion's
least_scale, on either side of the hand-over from the panel quadrature,
and, where there is one, at the largest scale below it at which each of
at least two panels spans the full phase a panel may.  Each scale is
integrated alone, so the quadrature's grid is the coarsest it takes
there.  The values come from tests/kernel_integral_reference.py, which
takes minutes, so they are held here as literals.  The worst error is
1.5e-15, against the 5e-15 bound (1.4e-15 with the kernel evaluated at
every node, not interpolated; 5.1e-16 with a hand-over at c sqrt(alpha)
= 40 and panels of 10 radians).

The same six points at c sqrt(alpha) = 3 and 13 (SMALL_REFERENCE) reach
the kernel interpolant's pieces nearest u = 0 and those on either side
of bessel's seams at 14 and 18.  Their worst error is 4.3e-14 against
the 1e-13 bound, 7.8e-14 with the kernel evaluated at every node: at
these scales the error is the kernel values' own, from the rounding of
J's ascending series below 14.
"""

import numpy as np
import pytest

from tblab.identities import TEST_FUNCTIONS
from tblab.series import oscillatory_kernel_integrals

BOUND = 5e-15
# at the small scales the error is the kernel values' own rounding
SMALL_BOUND = 1e-13

# (test function, alpha, beta, nu, t exponent, variant, scale, integral)
SMALL_REFERENCE = [
    ('exp', 0.5, 3.4, 0.25, -0.125, 'even-cos', 4.242640687119285, 0.03705842034200944),
    ('exp', 0.5, 3.4, 0.25, -0.125, 'even-cos', 18.384776310850235, -0.010289716095879337),
    ('t2', 1.3, 5.7, 0.25, -1.125, 'odd-sin', 2.6311740579210876, -1.1578680242316983),
    ('t2', 1.3, 5.7, 0.25, -1.125, 'odd-sin', 11.40175425099138, 0.29854141667428297),
    ('gauss', 0.5, 3.4, 0.45, 0.225, 'plus-y-sin', 4.242640687119285, 0.1606708093078009),
    ('gauss', 0.5, 3.4, 0.45, 0.225, 'plus-y-sin', 18.384776310850235, -0.005994513133998503),
    ('gauss', 1.3, 5.7, 0.25, -0.125, 'plus-y-cos', 2.6311740579210876, 0.06719980348467339),
    ('gauss', 1.3, 5.7, 0.25, -0.125, 'plus-y-cos', 11.40175425099138, 0.025703674055556958),
    ('exp', 1.3, 5.7, 0.45, 0.225, 'odd-sin', 2.6311740579210876, -0.09897479489714796),
    ('exp', 1.3, 5.7, 0.45, 0.225, 'odd-sin', 11.40175425099138, 0.0062928835709830065),
    ('t2', 0.5, 3.4, 0.25, -1.125, 'plus-y-cos', 4.242640687119285, -0.44138276114861796),
    ('t2', 0.5, 3.4, 0.25, -1.125, 'plus-y-cos', 18.384776310850235, 0.024352054940004586),
]
REFERENCE = [
    ('exp', 0.5, 3.4, 0.25, -0.125, 'even-cos', 28.14913845677379, -0.005493546922821394),
    ('exp', 0.5, 3.4, 0.25, -0.125, 'even-cos', 39.34191455082199, 0.0008543223272652865),
    ('exp', 0.5, 3.4, 0.25, -0.125, 'even-cos', 40.13670070336385, 0.0024971961278905633),
    ('t2', 1.3, 5.7, 0.25, -1.125, 'odd-sin', 18.36442570939252, -0.13700684118307746),
    ('t2', 1.3, 5.7, 0.25, -1.125, 'odd-sin', 18.73542420857217, -0.024044252472503164),
    ('gauss', 0.5, 3.4, 0.45, 0.225, 'plus-y-sin', 28.14913845677379, 0.0015329501953164394),
    ('gauss', 0.5, 3.4, 0.45, 0.225, 'plus-y-sin', 33.635629249692755, -0.0039762122125853415),
    ('gauss', 0.5, 3.4, 0.45, 0.225, 'plus-y-sin', 34.315136911302716, -0.0049855157347590915),
    ('gauss', 1.3, 5.7, 0.25, -0.125, 'plus-y-cos', 25.65558328990402, -0.008272739354712285),
    ('gauss', 1.3, 5.7, 0.25, -0.125, 'plus-y-cos', 30.47587912411917, -0.0051706482339550245),
    ('gauss', 1.3, 5.7, 0.25, -0.125, 'plus-y-cos', 31.091553449858953, -0.006239872711252557),
    ('exp', 1.3, 5.7, 0.45, 0.225, 'odd-sin', 21.830570013464826, 0.004399047361620085),
    ('exp', 1.3, 5.7, 0.45, 0.225, 'odd-sin', 22.271591629898456, 0.002728481009114266),
    ('t2', 0.5, 3.4, 0.25, -1.125, 'plus-y-cos', 28.14913845677379, -0.021924031824101672),
    ('t2', 0.5, 3.4, 0.25, -1.125, 'plus-y-cos', 29.075034503924837, 0.036976466399057904),
    ('t2', 0.5, 3.4, 0.25, -1.125, 'plus-y-cos', 29.662408938347564, 0.03410598275277242),
]


@pytest.mark.parametrize("fname, alpha, beta, nu, t_exp, variant, c, value, bound",
                         [(*row, SMALL_BOUND) for row in SMALL_REFERENCE]
                         + [(*row, BOUND) for row in REFERENCE])
def test_kernel_integral_against_mpmath(fname, alpha, beta, nu, t_exp, variant, c, value, bound):
    got = oscillatory_kernel_integrals(TEST_FUNCTIONS[fname], alpha, beta, nu,
                                       np.array([c]), t_exp, variant)[0]
    assert abs(got - value) <= bound
