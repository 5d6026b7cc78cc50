"""Reference values of series.oscillatory_kernel_integrals from mpmath.

Run it from the repository root as

    PYTHONPATH=src python3 tests/kernel_integral_reference.py

It prints the SMALL_REFERENCE and REFERENCE tables of
tests/test_kernel_integral_oracle.py.  For each point (test function,
interval, order, t exponent, variant) REFERENCE takes three scales: 0.99
and 1.01 times the endpoint expansion's least_scale, where the
quadrature hands over to the expansion, and the largest scale below that
at which a quadrature panel spans the full _PHASE_PER_PANEL radians (at
least two panels), where the panels are coarsest.  SMALL_REFERENCE takes
the scales c with c sqrt(alpha) in SMALL_SCALES, far below least_scale,
where the panels' kernel interpolant has its pieces nearest u = 0 and
across bessel's seams at 14 and 18.  Each value is mpmath.quad at 25
digits of int 2 r f(r^2) r^{2e} kernel(c r) dr over [sqrt(alpha), sqrt(beta)],
the kernel built from besselk, bessely and besselj, split into panels of
at most pi radians of kernel phase.  It takes a few minutes.

The name does not start with test_, so pytest does not collect it.
"""

from __future__ import annotations

import math

import mpmath

from tblab.identities import TEST_FUNCTIONS
from tblab.series import _PHASE_PER_PANEL, VORONOI_VARIANTS, _EndpointExpansion

# (test function, alpha, beta, nu, t exponent, variant)
POINTS = [
    ("exp", 0.5, 3.4, 0.25, -0.125, "even-cos"),
    ("t2", 1.3, 5.7, 0.25, -1.125, "odd-sin"),
    ("gauss", 0.5, 3.4, 0.45, 0.225, "plus-y-sin"),
    ("gauss", 1.3, 5.7, 0.25, -0.125, "plus-y-cos"),
    ("exp", 1.3, 5.7, 0.45, 0.225, "odd-sin"),
    ("t2", 0.5, 3.4, 0.25, -1.125, "plus-y-cos"),
]

# c sqrt(alpha) of the small scales: kernel arguments from 3 to at most
# 8, on the pieces nearest u = 0, and from 13 across both seams.  Between
# them (c sqrt(alpha) of 6.5 to 12) the nodes sit on 6 <= u <= 14, where
# the direct J carries its ascending series' e^u eps, and the integrals
# err by up to 1.4e-12 with the kernel interpolant or without it
SMALL_SCALES = (3.0, 13.0)

MP_FUNCTIONS = {
    "exp": lambda t: mpmath.exp(-t),
    "t2": lambda t: t * t,
    "gauss": lambda t: mpmath.exp(-t * t / 4),
}


def scales(fname, alpha, beta, nu, t_exp):
    least = float(_EndpointExpansion(TEST_FUNCTIONS[fname], alpha, beta, nu, t_exp).least_scale)
    span = math.sqrt(beta) - math.sqrt(alpha)
    full = math.floor(0.99 * least * span / _PHASE_PER_PANEL)
    out = [0.99 * least, 1.01 * least]
    if full >= 2:
        out.insert(0, full * _PHASE_PER_PANEL / span)
    return out


def reference(fname, alpha, beta, nu, t_exp, variant, c):
    main_is_cos, ys, js = VORONOI_VARIANTS[variant]
    nu_m, c_m = mpmath.mpf(nu), mpmath.mpf(c)
    a = mpmath.pi * nu_m / 2
    main = mpmath.cos(a) if main_is_cos else mpmath.sin(a)
    jc = js * (mpmath.sin(a) if main_is_cos else mpmath.cos(a))
    f = MP_FUNCTIONS[fname]

    def integrand(r):
        u = c_m * r
        kern = ((2 / mpmath.pi * mpmath.besselk(nu_m, u) + ys * mpmath.bessely(nu_m, u)) * main
                + jc * mpmath.besselj(nu_m, u))
        return 2 * r * f(r * r) * r ** (2 * mpmath.mpf(t_exp)) * kern

    ra, rb = mpmath.sqrt(mpmath.mpf(alpha)), mpmath.sqrt(mpmath.mpf(beta))
    panels = max(2, math.ceil(c * float(rb - ra) / math.pi))
    return mpmath.quad(integrand, mpmath.linspace(ra, rb, panels + 1))


def small_scales(fname, alpha, beta, nu, t_exp):
    return [s / math.sqrt(alpha) for s in SMALL_SCALES]


def main():
    mpmath.mp.dps = 25
    for name, which in (("SMALL_REFERENCE", small_scales), ("REFERENCE", scales)):
        print(f"{name} = [")
        for point in POINTS:
            for c in which(*point[:5]):
                value = reference(*point, c)
                print(f"    ({', '.join(map(repr, point))}, {c!r}, {float(value)!r}),")
        print("]")


if __name__ == "__main__":
    main()
