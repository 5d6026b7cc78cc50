"""The three workloads: how each makes its ops from a seed, runs one op
through tblab's public API, and checks the op's output afterwards.

A run is a number of passes over a workload's op list.  Every run with
the same number of passes covers the same set of ops; the seed decides
which pass each op falls in and the order within each pass.  A random
draw per run instead made the failures and the worst error differ from
seed to seed, which would hide a change in accuracy behind the draw.

Every op of every workload passes its checks at the commit the benchmark
was defined on; the inputs tblab gets wrong there are left out, by name
(KNOWN_MISSES) or by range (the x scales), and listed below, so that a
run whose outputs are wrong means the code changed.

* closed-form: every registered point of sec2, classical, cohen and
  cohen-half.  Over P passes each point's x is scaled once by each of
  2^u, u = -1 + (2k + 1)/(2P) for k < P: a stratified cover of
  2^U(-1, 0), so x runs from half the registered value up to it.
  Scales above 1 are left out: T2_10's x = 1.9 point misses its 1e-8
  tolerance from about x = 2.6 on (err/tol up to 44) and T2_14's x = 1.9
  point near x = 2.9 (err/tol 1.13).
* voronoi: one registered point of each summation formula (T4_1..T4_8,
  C4_1, C4_2), the one whose kernel series converges slowest among those
  that pass: on the interval (1.3, 5.7) when it has one, with the test
  function that is largest at beta.  KNOWN_MISSES are the registered
  points that miss their 1e-3 tolerance.
* lvalue-scan: every primitive character mod q, 3 <= q <= 40; one op
  asks for its Gauss sum, L at three points (Re s in [1.5, 3], in the
  critical strip, in [-4, -2]; |Im s| <= 10) and L' at the strip point.
  Each character gets P fixed draws of the three points.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import replace

import mpmath

from tblab import characters, identities, specfun
from tblab.errors import TblabError

CLOSED_FORM_SECTIONS = ("sec2", "classical", "cohen", "cohen-half")
# registered voronoi points that miss tolerance: (theorem, f, alpha, beta),
# err/tol 7-70 (T4_5..T4_8) and 41 (C4_1)
KNOWN_MISSES = frozenset((tid, "t2", 1.3, 5.7)
                         for tid in ("T4_5", "T4_6", "T4_7", "T4_8", "C4_1"))
LVALUE_QMAX = 40
IM_RANGE = 10.0

# The stated tolerance and pass rule of each section, restated here so the
# check does not take them from the code it checks: below the cutoff |lhs|
# the error is absolute, above it relative.
TOLERANCES = {"sec2": 1e-8, "classical": 1e-8, "cohen": 1e-7,
              "cohen-half": 1e-9, "voronoi": 1e-3}
ABS_CUTOFF = {"voronoi": 1.0}
ABS_CUTOFF_DEFAULT = 1e-6

# bounds of the lvalue-scan checks, each on |residual| / max(1, |value|)
FE_BOUND = 1e-9        # functional equation, as in acceptance criterion 2
BERNOULLI_BOUND = 1e-9  # L(1-n, chi) = -B_{n,chi}/n, as in criterion 2
DERIV_BOUND = 1e-8     # L' against a four-point central difference of L
GAUSS_BOUND = 1e-10    # tau(chi) against its defining sum
DERIV_STEP = 1e-3
CHECK_DIGITS = 25


def _rng(*key) -> random.Random:
    return random.Random("/".join(map(str, key)))


def _deal(variants: list[list], seed, name: str) -> list[list]:
    """Passes in which op i takes each of its variants variants[i][k] once,
    in an order the seed sets, and the ops of every pass are shuffled."""
    rng = _rng(name, seed)
    slots = []
    for own in variants:
        order = list(range(len(own)))
        rng.shuffle(order)
        slots.append(order)
    passes = []
    for p in range(len(variants[0])):
        batch = [own[order[p]] for own, order in zip(variants, slots)]
        rng.shuffle(batch)
        passes.append(batch)
    return passes


def _registered(sections) -> list[identities.IdentityCase]:
    return [identities.IdentityCase(theorem=tid, **point)
            for tid, entry in identities.THEOREMS.items()
            if entry.section in sections for point in entry.points]


class RegistryWorkload:
    """Ops are identities.verify calls on registry points."""

    def run(self, case):
        return identities.verify(case)

    def check(self, case, report) -> tuple[bool, float | None]:
        """Recompute the error from lhs and rhs and apply the section's
        pass rule; the op fails if it misses tolerance, if its output is
        not finite, or if the report's verdict disagrees.  Returns
        (passed, error over tolerance), the ratio None when not finite."""
        section = identities.THEOREMS[case.theorem].section
        tol = TOLERANCES[section]
        lhs, rhs = complex(report.lhs), complex(report.rhs)
        if not (_finite(lhs) and _finite(rhs)) or lhs == 0:
            return False, None
        abs_err = abs(lhs - rhs)
        cutoff = ABS_CUTOFF.get(section, ABS_CUTOFF_DEFAULT)
        err = abs_err if abs(lhs) < cutoff else abs_err / abs(lhs)
        passed = err <= tol
        return passed and report.passed == passed, err / tol


class ClosedForm(RegistryWorkload):
    name = "closed-form"

    def __init__(self):
        self.points = _registered(CLOSED_FORM_SECTIONS)

    def make_run(self, seed: int, passes: int) -> list[list]:
        scales = [2.0 ** (-1.0 + (2 * k + 1) / (2 * passes)) for k in range(passes)]
        return _deal([[replace(case, x=case.x * f) for f in scales]
                      for case in self.points], seed, self.name)


class Voronoi(RegistryWorkload):
    name = "voronoi"

    def __init__(self):
        by_theorem: dict[str, list] = {}
        for case in _registered(("voronoi",)):
            if (case.theorem, case.f, case.alpha, case.beta) not in KNOWN_MISSES:
                by_theorem.setdefault(case.theorem, []).append(case)
        grow = identities.TEST_FUNCTIONS
        self.points = [max(cases, key=lambda c: (c.beta, float(grow[c.f](c.beta))))
                       for cases in by_theorem.values()]

    def make_run(self, seed: int, passes: int) -> list[list]:
        return _deal([[case] * passes for case in self.points], seed, self.name)


class LValueScan:
    """Ops are (q, index, s_right, s_strip, s_left) for one primitive chi."""

    name = "lvalue-scan"

    def __init__(self):
        self.chars = [(q, chi.index)
                      for q in range(3, LVALUE_QMAX + 1)
                      for chi in characters.enumerate_characters(q)
                      if chi.is_primitive]

    def make_run(self, seed: int, passes: int) -> list[list]:
        rng = _rng(self.name, "points", passes)

        def draw(lo, hi):
            return complex(rng.uniform(lo, hi), rng.uniform(-IM_RANGE, IM_RANGE))

        return _deal([[(q, idx, draw(1.5, 3.0), draw(0.05, 0.95), draw(-4.0, -2.0))
                       for _ in range(passes)] for q, idx in self.chars],
                     seed, self.name)

    def run(self, op):
        q, idx, *points = op
        chi = characters.enumerate_characters(q)[idx]
        tau = characters.gauss_sum(chi).value
        values = [specfun.dirichlet_L(s, chi) for s in points]
        deriv = specfun.L_derivative(points[1], chi)
        return tau, values, deriv

    def check(self, op, result) -> tuple[bool, float | None]:
        """Functional equation at each point, L(1-n) = -B_{n,chi}/n for
        the n of chi's parity, L' against a four-point central difference
        and tau against its defining sum; the ratio is the worst residual
        over its bound."""
        q, idx, *points = op
        tau, values, deriv = result
        if not all(_finite(v) for v in (tau, deriv, *values)):
            return False, None
        chi = characters.enumerate_characters(q)[idx]
        n = 1 if chi.is_odd else 2
        tau_ref, minus_b = _references(chi, n)
        with mpmath.workdps(CHECK_DIGITS):
            fe = [_fe_rhs(s, chi, tau_ref) for s in points]
        ratios = [abs(tau - complex(tau_ref)) / GAUSS_BOUND]
        for value, rhs in zip(values, fe):
            ratios.append(_scaled(value - rhs, value) / FE_BOUND)
        ratios.append(_scaled(specfun.dirichlet_L(1 - n, chi) - minus_b, minus_b)
                      / BERNOULLI_BOUND)
        s, h = points[1], DERIV_STEP
        L = [specfun.dirichlet_L(s + k * h, chi) for k in (-2, -1, 1, 2)]
        diff = (8.0 * (L[2] - L[1]) - (L[3] - L[0])) / (12.0 * h)
        ratios.append(_scaled(deriv - diff, deriv) / DERIV_BOUND)
        worst = max(ratios)
        return worst <= 1.0, worst


def _finite(z) -> bool:
    z = complex(z)
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _scaled(residual, value) -> float:
    return abs(residual) / max(1.0, abs(value))


def _chi_mp(chi, a: int):
    r = chi.log_value(a)
    return None if r is None else mpmath.expjpi(2 * mpmath.mpf(r.numerator) / r.denominator)


@functools.lru_cache(maxsize=None)
def _references(chi, n: int):
    """tau(chi) = sum_a chi(a) e(a/q) and -B_{n,chi}/n, where
    B_{n,chi} = q^{n-1} sum_a chi(a) B_n(a/q); the same for every pass."""
    q = chi.modulus
    with mpmath.workdps(CHECK_DIGITS):
        values = [(a, v) for a in range(1, q + 1) if (v := _chi_mp(chi, a)) is not None]
        tau = mpmath.fsum(v * mpmath.expjpi(mpmath.mpf(2 * a) / q) for a, v in values)
        bern = q ** (n - 1) * mpmath.fsum(v * mpmath.bernpoly(n, mpmath.mpf(a) / q)
                                          for a, v in values)
    return tau, -complex(bern) / n


def _fe_rhs(s: complex, chi, tau) -> complex:
    """i^-kappa (tau/pi) (2pi/q)^s Gamma(1-s) sin(pi(s+kappa)/2) L(1-s, conj chi)."""
    kappa = 1 if chi.is_odd else 0
    sm = mpmath.mpc(s)
    factor = ((-1j) ** kappa * tau / mpmath.pi * (2 * mpmath.pi / chi.modulus) ** sm
              * mpmath.gamma(1 - sm) * mpmath.sin(mpmath.pi * (sm + kappa) / 2))
    return complex(factor) * specfun.dirichlet_L(1 - s, chi.conjugate())


WORKLOADS = {cls.name: cls for cls in (ClosedForm, Voronoi, LValueScan)}


def run_op(workload, op):
    """One op; a TblabError is the op's failure, not the benchmark's."""
    try:
        return workload.run(op), None
    except TblabError as exc:
        return None, type(exc).__name__
