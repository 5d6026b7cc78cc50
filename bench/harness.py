"""Helpers of the benchmark that need no part of tblab.

* nearest-rank percentiles;
* the speed probe that puts a timing at the host's reference speed;
* the span recorder behind the traced run, and self time from its spans;
* strict JSON (no NaN or Infinity) and the machine facts every record
  carries.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import signal
import subprocess
import time
from pathlib import Path


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {p}")
    xs = sorted(values)
    return xs[max(1, math.ceil(p / 100.0 * len(xs))) - 1]


# The time probe() takes at the reference speed: about its median on 2
# cores of an Intel Xeon at 2.1 GHz, where it reads 0.37 to 0.77 ms as
# the shared host's speed swings.
PROBE_REF_S = 0.5e-3
PROBE_LOOPS = 4000


def probe() -> float:
    """Seconds a fixed pure-Python loop takes now: how fast the host runs
    this process at this moment.  It needs no part of tblab or numpy."""
    t0 = time.perf_counter()
    acc, slots = 0.0, {}
    for i in range(PROBE_LOOPS):
        acc += (i % 7) * 0.5
        slots[i & 255] = acc
    return time.perf_counter() - t0


def at_reference(seconds: float, probe_s: float) -> float:
    """A wall time scaled to the host's reference speed by the mean probe
    time over it.  A shared host can swing between speeds over seconds,
    by up to 2x on 2 cores of an Intel Xeon; probes taken through a
    timing swing with it, so the ratio stays steady where the raw time
    does not."""
    return seconds * PROBE_REF_S / probe_s


class ProbedTimer:
    """Times a block while probing the host's speed: once before it, every
    PROBE_EVERY_S of it from a timer signal, and once after it.

    `seconds` is the block's wall time less the time spent in the probes
    it was interrupted for; `probe_s` is the mean of all its probes.  Only
    the main thread may use it, one block at a time.
    """

    PROBE_EVERY_S = 0.05

    def __enter__(self):
        self._probes = [probe()]
        self._inside = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PROBE_EVERY_S, self.PROBE_EVERY_S)
        self._t0 = time.perf_counter()
        return self

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._probes.append(probe())
        self._inside += time.perf_counter() - t0

    def __exit__(self, *exc):
        wall = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.seconds = wall - self._inside
        self._probes.append(probe())
        self.probe_s = sum(self._probes) / len(self._probes)
        return False


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def dumps(obj, **kw) -> str:
    """json.dumps that refuses NaN and Infinity instead of writing them."""
    return json.dumps(obj, allow_nan=False, **kw)


class Tracer:
    """Spans held in memory: [name, start, end, parent index, op id].

    wrap() returns a stand-in for a function that records one span per
    call, nested under whichever span is open, and then lets an optional
    counter add to `counts` from the call's arguments and result.  The
    span covers the wrapped call only; the stand-in's own time around it,
    counter included, adds up in `own_s`.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.op = -1
        self.own_s = 0.0
        self._open: list[int] = []

    def add(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def wrap(self, name: str, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = tracer.clock()
            span = [name, 0.0, 0.0, tracer._open[-1] if tracer._open else -1, tracer.op]
            tracer._open.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = tracer.clock()
                tracer._open.pop()
            if counter is not None:
                counter(tracer, args, kwargs, result, span[2] - span[1])
            tracer.own_s += span[1] - entered + tracer.clock() - span[2]
            return result

        return traced


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest strictly, so the children of a span cover
    disjoint parts of it and their durations add.
    """
    out = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def machine_info(root: Path) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "commit": _git_commit(root),
    }
