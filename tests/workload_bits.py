"""One digest per benchmark workload of every op's outputs, to diff two trees.

Run it from the repository root as

    PYTHONPATH=src python3 tests/workload_bits.py

For each workload of bench/workloads.py it runs the ops of one seed-0 run
(4 passes of closed-form, 1 of voronoi and 3 of lvalue-scan, the passes
`bench/run.py --seconds 15` makes) and prints a line

    <workload> <ops> <sha256>

where the digest is the SHA-256 of the repr of every op's outputs in op
order: lhs and rhs of a registry op, the Gauss sum, L-values and L' of an
lvalue-scan op, or the name of the error an op raised.  Two trees whose
lines are equal computed every output of the benchmark to the same bits,
so "no value moved" is one diff.  It imports bench/workloads.py and
changes nothing there.

The name does not start with test_, so pytest does not collect it;
tests/test_workload_bits.py runs it.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402  (after the path insert)

SEED = 0
PASSES = {"closed-form": 4, "voronoi": 1, "lvalue-scan": 3}


def _outputs(result, error):
    if error is not None:
        return error
    if isinstance(result, tuple):  # lvalue-scan
        return result
    return result.lhs, result.rhs


def digest(name: str) -> tuple[int, str]:
    """(ops, SHA-256 of the outputs' reprs) of the workload's seed-0 run."""
    workload = workloads.WORKLOADS[name]()
    sha = hashlib.sha256()
    ops = 0
    for batch in workload.make_run(SEED, PASSES[name]):
        for op in batch:
            sha.update(repr(_outputs(*workloads.run_op(workload, op))).encode())
            sha.update(b"\n")
            ops += 1
    return ops, sha.hexdigest()


def main(argv: list[str] | None = None) -> int:
    if argv if argv is not None else sys.argv[1:]:
        print("workload_bits.py takes no arguments", file=sys.stderr)
        return 2
    for name in PASSES:
        ops, hexdigest = digest(name)
        print(name, ops, hexdigest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
