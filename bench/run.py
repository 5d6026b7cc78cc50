"""The tblab benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload closed-form --seed 0 --seconds 20 --trace 0

Workloads (see workloads.py): closed-form, voronoi, lvalue-scan.  The
benchmark is the only client of a closed loop and issues one op at a
time, in a fresh interpreter per run (worker.py), so every run pays the
cold caches a `tblab suite` or `tblab verify` call pays.

--trace 0 prints the end-to-end metrics.  Every time among them is put
at the host's reference speed (harness.at_reference): its wall time
times PROBE_REF_S over the mean time that a fixed pure-Python probe loop
took before, during (every 50 ms) and after it.  Raw wall times and
probe times stay in the record.
  setup_s          median of 7 samples of the time a fresh interpreter
                   takes to import tblab and have the registry ready: the
                   workload's own interpreter and 6 that do nothing else,
                   3 started before it and 3 after
  ops_per_s        ops over the sum of their times
  op_ms_p50/p90    nearest-rank percentiles of the op time
  pass_frac        ops that passed every check over ops attempted
  worst_err_ratio  the largest error over its tolerance (for lvalue-scan,
                   check residual over its bound) of any op in the run,
                   read as ERR_RATIO_FLOOR when smaller: an error below a
                   tenth of its tolerance is rounding, not truncation, and
                   would move with any reordering of floating-point work
  rss_peak_mb      peak RSS of the workload process
--trace 1 runs the same ops traced and prints the per-layer metrics of
tracing.py plus trace.overhead_frac, the share of the traced ops' time
that the tracing stand-ins spent around the calls they wrap, counters
included: the ops_per_s that tracing costs, measured in the same run.

The last line of standard output is the result,
{"correct", "attempted", "failed", "metrics"}; the line before it names
the machine.  The full record, in strict JSON, goes to bench/out/.
--seconds sets the work of a run: round(seconds / PASS_SECONDS) whole
passes over the workload's op list, at least one, where PASS_SECONDS is
the time one pass took at the baseline (on 2 cores of an Intel Xeon).
The work is thus the same on every commit and every machine; a voronoi
run is one pass of about 35-45 s whatever --seconds asks for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402

SETUP_ONLY_RUNS = 3  # set-up-only interpreters before and again after the workload's
DEADLINE_S = 175.0
PASS_SECONDS = {"closed-form": 4.0, "voronoi": 35.0, "lvalue-scan": 4.4}
ERR_RATIO_FLOOR = 0.1


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("TBL_MAX_TERMS", None)  # every op runs at the library's defaults
    return env


def _run(cmd: list[str], deadline: float) -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              env=_child_env(), timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1]} did not finish in time") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{' '.join(cmd[1:3])} exited with {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def run_worker(workload: str, seed: int, passes: int, deadline: float,
               trace: int = 0) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--passes", str(passes), "--trace", str(trace)]
    return json.loads(_run(cmd, deadline))


def setup_time(w: dict) -> float:
    return harness.at_reference(w["setup_s"], w["setup_probe_s"])


def setup_only(workload: str, deadline: float) -> list[float]:
    return [setup_time(run_worker(workload, 0, 0, deadline))
            for _ in range(SETUP_ONLY_RUNS)]


def op_times(w: dict) -> list[float]:
    """Each op's time at the reference speed, in seconds."""
    return [harness.at_reference(t, p) for t, p in zip(w["latency_s"], w["probe_s"])]


def end_to_end(setup: list[float], w: dict) -> dict[str, tuple[float, str]]:
    times = op_times(w)
    attempted = len(times)
    lat_ms = [t * 1000.0 for t in times]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (attempted / sum(times), "1/s"),
        "op_ms_p50": (harness.percentile(lat_ms, 50), "ms"),
        "op_ms_p90": (harness.percentile(lat_ms, 90), "ms"),
        "pass_frac": (sum(w["passed"]) / attempted, "frac"),
        "worst_err_ratio": (max([ERR_RATIO_FLOOR] + [r for r in w["err_ratio"]
                                                     if r is not None]), "ratio"),
        "rss_peak_mb": (w["rss_peak_mb"], "MB"),
    }


def per_layer(traced: dict) -> dict[str, tuple[float, str]]:
    return {name: (value, _layer_unit(name)) for name, value in traced["layers"].items()}


def _layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last.endswith("_per_s"):
        return "1/s"
    if last.endswith("_s"):
        return "s"
    if last == "overhead_frac":
        return "frac"
    return "ratio" if last == "repeat_ratio" else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=tuple(PASS_SECONDS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "tblab" / "__init__.py").is_file():
        print(f"bench: no tblab sources under {SRC}", file=sys.stderr)
        return 2
    passes = passes_for(args.workload, args.seconds)
    try:
        if args.trace:
            run = run_worker(args.workload, args.seed, passes, deadline, trace=1)
            metrics = per_layer(run)
            setup = None
        else:
            setup = setup_only(args.workload, deadline)
            run = run_worker(args.workload, args.seed, passes, deadline)
            setup += [setup_time(run)] + setup_only(args.workload, deadline)
            metrics = end_to_end(setup, run)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = len(run["latency_s"])
    failed = attempted - sum(run["passed"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {
        "machine": harness.machine_info(ROOT),
        "args": vars(args),
        "result": result,
        "passes": run["passes"],
        "failed_frac": failed / attempted,
        "failures": run["failures"],
        "op_ms_p90_samples_beyond": harness.samples_beyond(attempted, 90),
        "setup_samples_s": setup,
        "wall_ops_per_s": attempted / run["busy_s"],
        "latency_s": run["latency_s"],
        "probe_s": run["probe_s"],
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(harness.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(harness.dumps({"machine": record["machine"], "record": str(path.relative_to(ROOT))}))
    print(harness.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
