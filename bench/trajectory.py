"""Run the benchmark over several seeds and save one point of the
BENCH_* trajectory.

    python3 bench/trajectory.py --label baseline

For every workload of BENCHMARK.json this runs bench/run.py once per
seed 0..9 with the file's run_seconds, then one traced run on seed 0.  It prints each end-to-end metric's median and its
quartile spread (Q3 - Q1 over the median) next to the metric's bound,
and writes everything, with the machine, to bench/history/BENCH_<label>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402

SEEDS = 10


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
    *_, header, result = proc.stdout.strip().splitlines()
    record = json.loads((ROOT / json.loads(header)["record"]).read_text(encoding="utf-8"))
    return {"seed": seed, **json.loads(result),
            "failures": record["failures"], "passes": record["passes"]}


def summarize(runs: list[dict], spec: list[dict]) -> dict:
    out = {}
    for metric in spec:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        entry = {"median": statistics.median(values), "bound": metric["bound"]}
        q1, _, q3 = statistics.quantiles(values, n=4)
        entry.update(q1=q1, q3=q3, spread=(q3 - q1) / entry["median"])
        out[metric["name"]] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]

    doc = {"label": args.label, "machine": harness.machine_info(ROOT),
           "run_seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for name in names:
        runs = [bench_run(name, seed, spec["run_seconds"], 0) for seed in range(SEEDS)]
        entry = {"runs": runs, "summary": summarize(runs, spec["end_to_end"]),
                 "traced": bench_run(name, 0, spec["run_seconds"], 1)}
        doc["workloads"][name] = entry
        for metric, s in entry["summary"].items():
            print(f"{name:12s} {metric:16s} median {s['median']:.6g}  "
                  f"spread {s['spread']:.4f}  bound {s['bound']}",
                  flush=True)
        fails = [r["failed"] for r in runs]
        print(f"{name:12s} failed per run {fails}", flush=True)

    path = BENCH / "history" / f"BENCH_{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(harness.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(path.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
