"""Tests of the benchmark's own logic.

    python3 -m unittest bench/selftest.py      (or: python3 bench/selftest.py)

The file name keeps it out of the repository's pytest run.
"""

from __future__ import annotations

import json
import math
import signal
import sys
import time
import unittest
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import numpy as np  # noqa: E402

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSpans(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        clock = FakeClock()
        tr = harness.Tracer(clock)

        def leaf():
            clock.now += 2.0

        def middle():
            clock.now += 1.0
            wrapped_leaf()
            clock.now += 3.0
            wrapped_leaf()

        def root():
            clock.now += 5.0
            wrapped_middle()

        wrapped_leaf = tr.wrap("leaf", leaf)
        wrapped_middle = tr.wrap("middle", middle)
        tr.wrap("root", root)()

        names = [s[0] for s in tr.spans]
        self.assertEqual(names, ["root", "middle", "leaf", "leaf"])
        self.assertEqual([s[3] for s in tr.spans], [-1, 0, 1, 1])
        self.assertEqual(harness.self_times(tr.spans), [5.0, 4.0, 2.0, 2.0])

    def test_span_closes_when_the_call_raises(self):
        clock = FakeClock()
        tr = harness.Tracer(clock)

        def boom():
            clock.now += 1.5
            raise ValueError("x")

        with self.assertRaises(ValueError):
            tr.wrap("boom", boom)()
        self.assertEqual(harness.self_times(tr.spans), [1.5])
        self.assertEqual(tr._open, [])

    def test_counter_sees_arguments_and_duration(self):
        clock = FakeClock()
        tr = harness.Tracer(clock)

        def work(n):
            clock.now += 0.25
            return n

        def count(tracer, args, kwargs, result, dt):
            tracer.add("items", args[0])
            tracer.add("busy", dt)

        f = tr.wrap("work", work, count)
        f(3)
        f(4)
        self.assertEqual(tr.counts, {"items": 7.0, "busy": 0.5})

    def test_own_time_is_the_time_around_the_wrapped_call(self):
        clock = FakeClock()
        tr = harness.Tracer(clock)

        def work():
            clock.now += 1.0

        def count(tracer, args, kwargs, result, dt):
            clock.now += 0.25

        tr.wrap("work", work, count)()
        self.assertEqual(harness.self_times(tr.spans), [1.0])
        self.assertEqual(tr.own_s, 0.25)


class TestStatistics(unittest.TestCase):
    def test_nearest_rank_percentile(self):
        xs = list(range(1, 11))
        self.assertEqual(harness.percentile(xs, 50), 5)
        self.assertEqual(harness.percentile(xs, 90), 9)
        self.assertEqual(harness.percentile(xs, 100), 10)
        self.assertEqual(harness.percentile([7.0], 90), 7.0)
        self.assertEqual(harness.percentile(list(range(1, 101)), 90), 90)
        self.assertEqual(harness.percentile([3, 1, 2], 50), 2)
        with self.assertRaises(ValueError):
            harness.percentile([], 50)

    def test_samples_beyond(self):
        self.assertEqual(harness.samples_beyond(100, 90), 10)
        self.assertEqual(harness.samples_beyond(10, 90), 1)

    def test_at_reference_scales_by_the_probe(self):
        ref = harness.PROBE_REF_S
        self.assertEqual(harness.at_reference(0.3, ref), 0.3)
        self.assertAlmostEqual(harness.at_reference(0.3, 2 * ref), 0.15)
        self.assertGreater(harness.probe(), 0.0)

    def test_probed_timer_probes_inside_and_leaves_its_probes_out(self):
        with harness.ProbedTimer() as timer:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.3:
                pass
        probes = timer._probes
        self.assertGreaterEqual(len(probes), 2 + 3)
        self.assertAlmostEqual(timer.probe_s, sum(probes) / len(probes))
        self.assertLess(timer.seconds, 0.3 + 0.01)
        self.assertGreater(timer.seconds, 0.3 - sum(probes[1:-1]) - 0.01)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))

    def test_strict_json(self):
        self.assertEqual(harness.dumps({"a": 1.5}), '{"a": 1.5}')
        for bad in (math.inf, -math.inf, math.nan):
            with self.assertRaises(ValueError):
                harness.dumps({"a": bad})


class TestWorkloads(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for cls in workloads.WORKLOADS.values():
            run = cls().make_run(7, 3)
            self.assertEqual(len(run), 3)
            self.assertEqual(run, cls().make_run(7, 3))
            self.assertNotEqual(run, cls().make_run(8, 3))

    def test_seed_changes_order_not_the_set_of_ops(self):
        for cls in workloads.WORKLOADS.values():
            a = [op for batch in cls().make_run(1, 4) for op in batch]
            b = [op for batch in cls().make_run(2, 4) for op in batch]
            self.assertEqual(sorted(map(repr, a)), sorted(map(repr, b)))

    def test_sizes(self):
        self.assertEqual(len(workloads.ClosedForm().points), 125)
        theorems = sorted(c.theorem for c in workloads.Voronoi().points)
        self.assertEqual(theorems, ["C4_1", "C4_2"] + [f"T4_{i}" for i in range(1, 9)])
        self.assertEqual(len(workloads.LValueScan().chars), 284)

    def test_closed_form_scales_x_once_by_each_stratum(self):
        wl = workloads.ClosedForm()
        run = wl.make_run(3, 4)
        for case in wl.points:
            same = [op for batch in run for op in batch
                    if replace(op, x=case.x) == case]
            factors = sorted(op.x / case.x for op in same)
            self.assertEqual(len(factors), 4)
            for k, f in enumerate(factors):
                self.assertAlmostEqual(math.log2(f), -1.0 + (2 * k + 1) / 8)

    def test_voronoi_leaves_out_the_known_misses(self):
        chosen = {(c.theorem, c.f, c.alpha, c.beta) for c in workloads.Voronoi().points}
        self.assertFalse(chosen & workloads.KNOWN_MISSES)
        self.assertIn(("T4_1", "t2", 1.3, 5.7), chosen)
        self.assertIn(("T4_5", "exp", 1.3, 5.7), chosen)
        self.assertIn(("C4_1", "exp", 0.5, 3.4), chosen)

    def test_lvalue_points_lie_in_their_regions(self):
        for q, idx, right, strip, left in workloads.LValueScan().make_run(0, 2)[1]:
            self.assertTrue(1.5 <= right.real <= 3.0)
            self.assertTrue(0.0 < strip.real < 1.0)
            self.assertTrue(-4.0 <= left.real <= -2.0)
            for s in (right, strip, left):
                self.assertLessEqual(abs(s.imag), workloads.IM_RANGE)

    def test_registry_check_applies_the_pass_rule(self):
        wl = workloads.ClosedForm()
        case = wl.points[0]  # sec2, tol 1e-8, relative above |lhs| = 1e-6

        def report(lhs, rhs, passed):
            return SimpleNamespace(lhs=lhs, rhs=rhs, passed=passed)

        ok, ratio = wl.check(case, report(2.0, 2.0 + 1e-8, True))
        self.assertTrue(ok)
        self.assertAlmostEqual(ratio, 0.5, places=6)
        ok, ratio = wl.check(case, report(2.0, 2.0 + 4e-8, False))
        self.assertFalse(ok)
        self.assertAlmostEqual(ratio, 2.0, places=6)
        self.assertFalse(wl.check(case, report(2.0, 2.0 + 1e-8, False))[0])  # verdict disagrees
        self.assertEqual(wl.check(case, report(0.0, 1e-20, False)), (False, None))
        self.assertEqual(wl.check(case, report(complex(math.inf), 1.0, False)), (False, None))


class TestTracing(unittest.TestCase):
    def test_install_traces_callers_bindings_and_uninstall_restores(self):
        from tblab import bessel, series
        original = series.jy_values
        tr = harness.Tracer()
        swaps = tracing.install(tr)
        try:
            self.assertIsNot(series.jy_values, original)
            series.voronoi_kernel_values("even-cos", 0.25, np.array([1.0, 3.0, 20.0]))
        finally:
            tracing.uninstall(swaps)
        self.assertIs(series.jy_values, original)
        self.assertIs(bessel.jy_values, original)
        m = tracing.layer_metrics(tr)
        self.assertEqual(m["bessel.jy_values.calls"], 1)
        self.assertEqual(m["bessel.jy_values.small_points"], 2)
        self.assertEqual(m["bessel.jy_values.big_points"], 1)
        self.assertEqual(m["bessel.k_values.small_points"], 1)
        self.assertEqual(m["bessel.k_values.mid_points"], 1)
        self.assertEqual(m["bessel.k_values.big_points"], 1)
        self.assertEqual(m["identities.verify.calls"], 0)

    def test_repeat_ratio_counts_repeated_arguments(self):
        from tblab import characters, specfun
        chi = characters.enumerate_characters(5)[1]
        tr = harness.Tracer()
        swaps = tracing.install(tr)
        try:
            for s in (2.0, 2.0, 3.0, 2.0):
                specfun.dirichlet_L(s, chi)
        finally:
            tracing.uninstall(swaps)
        self.assertEqual(tracing.layer_metrics(tr)["specfun.dirichlet_L.repeat_ratio"], 0.5)


class TestDeclaredMetrics(unittest.TestCase):
    def test_printed_metrics_are_those_benchmark_json_declares(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        ref = harness.PROBE_REF_S
        worker = {"latency_s": [0.1, 0.2], "probe_s": [ref, 2 * ref], "busy_s": 0.3,
                  "passed": [True, False], "err_ratio": [0.5, None], "rss_peak_mb": 40.0}
        e2e = run.end_to_end([0.2, 0.3, 0.25], worker)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         {name: unit for name, (_, unit) in e2e.items()})
        self.assertEqual(e2e["setup_s"][0], 0.25)
        self.assertAlmostEqual(e2e["ops_per_s"][0], 2 / 0.2)  # both ops read 0.1 s
        self.assertAlmostEqual(e2e["op_ms_p90"][0], 100.0)
        self.assertEqual(e2e["pass_frac"][0], 0.5)
        self.assertEqual(e2e["worst_err_ratio"][0], 0.5)
        tiny = dict(worker, err_ratio=[1e-3, None])
        self.assertEqual(run.end_to_end([0.2], tiny)["worst_err_ratio"][0], run.ERR_RATIO_FLOOR)
        layers = run.per_layer({"layers": dict(tracing.layer_metrics(harness.Tracer()),
                                               **{"trace.overhead_frac": 0.01})})
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {name: unit for name, (_, unit) in layers.items()})

    def test_passes_follow_seconds(self):
        self.assertEqual(run.passes_for("closed-form", 20), 5)
        self.assertEqual(run.passes_for("voronoi", 20), 1)
        self.assertEqual(run.passes_for("lvalue-scan", 1), 1)


if __name__ == "__main__":
    unittest.main()
