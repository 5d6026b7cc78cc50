"""Distances of the registry's rhs to its golden records and to an mpmath-L' run.

Run it from the repository root as

    PYTHONPATH=src python3 tests/golden_distances.py

For every record outside voronoi whose rhs differs from
tests/data/registry_golden.jsonl it prints how far the rhs moved, and the
old (golden) and new rhs's distance to a reference run that takes L'
from mpmath, all divided by |lhs|.  Below each record it lists the L
inputs left of the reflection line specfun._REFLECT_RE (zeta as L for
the character mod 1) and the L' inputs the record takes, with their
relative errors against mpmath (absolute where the value is 0).  A
record that moved by more than 1e-14 |lhs|, the golden test's bound, is
marked with "*".

The reference run must call L' at 41 distinct inputs, leave every lhs as
it is and keep every rhs within 1e-12 |lhs| of the library's, or an
assertion fails.

The name does not start with test_, so pytest does not collect it;
tests/test_golden_distances.py runs it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath

import tblab
from tblab import arith, identities, specfun
from tblab.characters import TRIVIAL

GOLDEN = Path(__file__).parent / "data" / "registry_golden.jsonl"
GOLDEN_BOUND = 1e-14
REFERENCE_BOUND = 1e-12


def mp_values(chi) -> list:
    """chi(0), ..., chi(q-1) in mpmath, from the exact exponents."""
    return [0 if r is None else mpmath.expjpi(2 * mpmath.mpf(r.numerator) / r.denominator)
            for r in map(chi.log_value, range(chi.modulus))]


def mp_L(s, chi, derivative=0, dps=30) -> complex:
    """L(s, chi), or L'(s, chi) if derivative=1, from mpmath at dps digits
    and exact character values."""
    with mpmath.workdps(dps):
        return complex(mpmath.dirichlet(mpmath.mpc(s), mp_values(chi), derivative))


def _run(cases, L_derivative, L=None) -> list[tuple[complex, complex]]:
    """(lhs, rhs) of each case with L_derivative in place of the library's
    (zeta' calls it by name), and L, if given, in place of dirichlet_L and
    zeta where the registry calls them.  The library's caches are cleared
    before the swap and after it, so that no value computed outside the
    swap is read inside it, and none computed inside outlives it."""
    swaps = [(m, "L_derivative", L_derivative) for m in (specfun, arith, identities)]
    if L:
        swaps += [(arith, "dirichlet_L", L), (identities, "dirichlet_L", L),
                  (identities, "riemann_zeta", lambda s: L(s, TRIVIAL))]
    saved = [(m, name, getattr(m, name)) for m, name, _ in swaps]
    tblab.clear_caches()
    try:
        for m, name, value in swaps:
            setattr(m, name, value)
        return [(r.lhs, r.rhs) for r in map(identities.verify, cases)]
    finally:
        for m, name, value in saved:
            setattr(m, name, value)
        tblab.clear_caches()


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
    points = set()

    def reference_derivative(s0, chi):
        points.add((complex(s0), chi.modulus, chi.index))
        return mp_L(s0, chi, 1)

    reference = _run(cases, reference_derivative)
    assert len(points) == 41, len(points)
    for case, (lhs, rhs), (ref_lhs, ref) in zip(cases, ours, reference):
        assert ref_lhs == lhs and abs(rhs - ref) <= REFERENCE_BOUND * abs(lhs), case

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
