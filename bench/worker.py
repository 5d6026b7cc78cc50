"""Run one workload in this (fresh) interpreter and print one JSON line.

The worker first times set-up: importing tblab and building its
registry.  With --passes 0 it stops there.  Otherwise the ops of
--passes passes run one at a time, a pass after another, and peak RSS is
read when the last op ends.  Set-up and every op are timed with
harness.ProbedTimer, which also gives the host's speed over each.  Tracing, when asked for, covers the ops
only and its spans go to bench/out/spans-<workload>-seed<seed>.json; the
correctness checks run after it is removed, outside the timed region.
run.py starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH.parent / "src"))

import harness  # noqa: E402


def time_setup() -> harness.ProbedTimer:
    """Import tblab and have the registry ready."""
    with harness.ProbedTimer() as timer:
        import tblab  # noqa: F401
        from tblab import identities
        identities.default_cases()
    return timer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setup = time_setup()
    if args.passes == 0:
        print(harness.dumps({"setup_s": setup.seconds, "setup_probe_s": setup.probe_s}))
        return 0
    # imported after the timed set-up, which they would otherwise warm
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    batches = workload.make_run(args.seed, args.passes)
    tracer = swaps = None
    if args.trace:
        tracer = harness.Tracer()
        swaps = tracing.install(tracer)

    ops, outputs, latency_s, probe_s = [], [], [], []
    busy = 0.0
    for batch in batches:
        for op in batch:
            if tracer is not None:
                tracer.op = len(ops)
            with harness.ProbedTimer() as timer:
                out = workloads.run_op(workload, op)
            dt = timer.seconds
            probe_s.append(timer.probe_s)
            ops.append(op)
            outputs.append(out)
            latency_s.append(dt)
            busy += dt
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracing.uninstall(swaps)
        layers = tracing.layer_metrics(tracer)
        layers["trace.overhead_frac"] = tracer.own_s / busy
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w",
                  encoding="utf-8") as fh:
            fh.write(harness.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                    "spans": tracer.spans}))

    passed, err_ratio, failures = [], [], []
    for op, (result, error) in zip(ops, outputs):
        ok, ratio = (False, None) if error else workload.check(op, result)
        passed.append(ok)
        err_ratio.append(ratio)
        if not ok:
            failures.append({"op": repr(op), "error": error, "err_ratio": ratio})

    print(harness.dumps({
        "setup_s": setup.seconds,
        "setup_probe_s": setup.probe_s,
        "passes": args.passes,
        "busy_s": busy,
        "rss_peak_mb": rss_mb,
        "failures": failures,
        "latency_s": latency_s,
        "probe_s": probe_s,
        "passed": passed,
        "err_ratio": err_ratio,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
