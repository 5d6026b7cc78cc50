"""Distances of the registry's rhs to its golden records and to an mpmath-L' run.

Run it from the repository root as

    PYTHONPATH=src python3 tests/golden_distances.py

For every record outside voronoi whose rhs differs from
tests/data/registry_golden.jsonl it prints how far the rhs moved, and the
old (golden) and new rhs's distance to a reference run that takes L' and
zeta' from mpmath (the run of test_registry_rhs_matches_mpmath_derivatives),
all divided by |lhs|.  Below each record it lists the L inputs left of
the reflection line specfun._REFLECT_RE (zeta as L for the character
mod 1) and the L' inputs the record takes, with their relative errors
against mpmath (absolute where the value is 0).  A record that moved by more than 1e-14 |lhs|, the golden
test's bound, is marked with "*".

The name does not start with test_, so pytest does not collect it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath

from tblab import arith, identities, specfun
from tblab.characters import enumerate_characters

GOLDEN = Path(__file__).parent / "data" / "registry_golden.jsonl"
GOLDEN_BOUND = 1e-14
ZETA = enumerate_characters(1)[0]


def mp_L(s, chi, derivative=0) -> complex:
    """L(s, chi), or L'(s, chi) if derivative=1, from mpmath at 30 digits
    and exact character values."""
    values = [0 if r is None else mpmath.expjpi(2 * mpmath.mpf(r.numerator) / r.denominator)
              for r in map(chi.log_value, range(chi.modulus))]
    with mpmath.workdps(30):
        return complex(mpmath.dirichlet(mpmath.mpc(s), values, derivative))


def _run(cases, L_derivative, L=None) -> list[tuple[complex, complex]]:
    """(lhs, rhs) of each case with L_derivative in place of the library's,
    and L, if given, in place of dirichlet_L where the registry calls it."""
    saved = {m: (m.L_derivative, m.zeta_derivative) for m in (specfun, arith, identities)}
    saved_L = {m: (m.dirichlet_L, m.riemann_zeta) for m in (arith, identities)}
    try:
        for m in saved:
            m.L_derivative = L_derivative
            m.zeta_derivative = lambda s0: L_derivative(s0, ZETA)
        for m in saved_L if L else ():
            m.dirichlet_L = L
            m.riemann_zeta = lambda s: L(s, ZETA)
        return [(r.lhs, r.rhs) for r in map(identities.verify, cases)]
    finally:
        for m, (d, z) in saved.items():
            m.L_derivative, m.zeta_derivative = d, z
        for m, (f, z) in saved_L.items():
            m.dirichlet_L, m.riemann_zeta = f, z


def _error(got, value) -> float:
    return abs(got - value) / abs(value) if value else abs(got)


def main() -> int:
    golden = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    tids = [tid for tid, entry in identities.THEOREMS.items() if entry.section != "voronoi"]
    cases = identities.default_cases(tids)
    assert len(cases) == len(golden)

    inputs: list[set] = []
    library = specfun.L_derivative

    def recording(s0, chi):
        inputs[-1].add((complex(s0), chi, 1))
        return library(s0, chi)

    def recording_L(s, chi):
        if complex(s).real < specfun._REFLECT_RE:
            inputs[-1].add((complex(s), chi, 0))
        return specfun.dirichlet_L(s, chi)

    ours = []
    for case in cases:
        inputs.append(set())
        ours += _run([case], recording, recording_L)
    reference = _run(cases, lambda s0, chi: mp_L(s0, chi, 1))

    moved = 0
    print(f"  {'moved':>9} {'old':>9} {'new':>9}  record")
    for case, gold, (lhs, rhs), (_, ref), used in zip(cases, golden, ours, reference, inputs):
        assert (gold["theorem_id"], gold["params"]) == (case.theorem, case.params())
        old = complex(gold["rhs_re"], gold["rhs_im"])
        if rhs == old:
            continue
        shift = abs(rhs - old) / abs(lhs)
        moved += shift > GOLDEN_BOUND
        params = ", ".join(f"{k}={v}" for k, v in case.params().items())
        print(f"{'*' if shift > GOLDEN_BOUND else ' '} {shift:9.2e} {abs(old - ref) / abs(lhs):9.2e}",
              f"{abs(rhs - ref) / abs(lhs):9.2e}  {case.theorem} ({params})")
        for s, chi, d in sorted(used, key=lambda u: (u[2], u[1].modulus, u[1].index, u[0].real)):
            name, got = ("L'", library(s, chi)) if d else ("L", specfun.dirichlet_L(s, chi))
            point = s.real if s.imag == 0 else s
            print(f"    {name}({point:g}, chi mod {chi.modulus} index {chi.index}):",
                  f"{_error(got, mp_L(s, chi, d)):.2e}")
    print(f"{moved} records moved by more than {GOLDEN_BOUND:g} |lhs|")
    return 0


if __name__ == "__main__":
    sys.exit(main())
