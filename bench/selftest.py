"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Checks that a seed fixes the inputs, that self time is computed correctly
on nested spans, and that a failed operation ranks as infinitely slow.
"""

from __future__ import annotations

import math
import sys
import unittest
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from worker import (REF_NOMINAL_S, Outcome, best_of_passes, end_to_end, host_speed,  # noqa: E402
                    percentile)


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


class SeedTest(unittest.TestCase):
    def flatten(self, cases):
        out = []
        for case in cases:
            out.append((case.dim, case.epsilon, case.feasible, case.svg))
            for A, b in case.blocks:
                out.append((A.tobytes(), b.tobytes()))
        return out

    def test_same_seed_gives_identical_inputs(self):
        generators = {**workloads.GENERATORS, "slab_probe": workloads.slab_probe}
        for name, generate in generators.items():
            with self.subTest(workload=name):
                self.assertEqual(self.flatten(generate(7)), self.flatten(generate(7)))
                self.assertNotEqual(self.flatten(generate(7)), self.flatten(generate(8)))

    def test_truth_holds_by_construction(self):
        # Every feasible case contains a point meeting all rows; every empty
        # case contains an opposing pair of rows with a positive gap.
        for case in workloads.wide_feasible(3)[:8] + workloads.cli_mixed(3):
            A, b = case.rows()
            if case.feasible:
                binding = case.blocks[-1]
                # The hidden point solves the binding rows with slack rho.
                p, *_ = np.linalg.lstsq(binding[0], binding[1] + workloads.RHO, rcond=None)
                self.assertTrue(np.all(A @ p - b >= -1e-9))
            else:
                self.assertTrue(np.allclose(A[0], -A[1]) and b[0] + b[1] > 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 10] > a [1, 4] > leaf [2, 3]; root > b [5, 6]
        rec = spans.SpanRecorder(clock=fake_clock([0, 1, 2, 3, 4, 5, 6, 10]))
        with rec.span("root"):
            with rec.span("a"):
                with rec.span("leaf"):
                    pass
            with rec.span("b"):
                pass
        self.assertEqual([s[spans.PARENT] for s in rec.spans], [None, 0, 1, 0])
        self.assertEqual(spans.self_times(rec.spans), [6, 2, 1, 1])
        agg = spans.aggregate(rec.spans)
        self.assertEqual(agg["root"], {"calls": 1, "total_s": 10, "self_s": 6})

    def test_overlapping_children_count_once(self):
        spans_ = [["p", 0.0, 10.0, None, 0], ["c", 1.0, 5.0, 0, 0], ["c", 3.0, 7.0, 0, 0],
                  ["c", 9.0, 12.0, 0, 0]]
        self.assertEqual(spans.self_times(spans_)[0], 10.0 - 6.0 - 1.0)

    def test_aggregate_filters_by_operation(self):
        spans_ = [["r", 0.0, 2.0, None, 0], ["r", 2.0, 5.0, None, 1]]
        self.assertEqual(spans.aggregate(spans_, {1})["r"]["total_s"], 3.0)

    def test_removed_function_reads_as_absent(self):
        wrapped = spans.WRAPPED
        spans.WRAPPED = wrapped + (("ellipsoid.solver", "no_such_function", "gone", None),)
        try:
            rec = spans.SpanRecorder()
            with rec.installed():
                pass
        finally:
            spans.WRAPPED = wrapped
        self.assertNotIn("gone", rec.present)
        self.assertIn("solver.find_violated", rec.present)


class FailureRankTest(unittest.TestCase):
    def test_failed_operation_is_infinitely_slow(self):
        ok = [Outcome(0.001 * (i + 1), cuts=10) for i in range(17)]
        failed = [Outcome(0.0001, error="numerical breakdown")] * 3
        metrics = end_to_end(ok + failed, count=20)
        self.assertEqual(metrics["solve_ms_p90"][0], math.inf)
        self.assertAlmostEqual(metrics["solve_ms_p50"][0], 10.0)
        self.assertAlmostEqual(metrics["cut_us_p50"][0], 1000.0)
        self.assertEqual(metrics["answered_share"][0], 0.85)
        self.assertAlmostEqual(metrics["answered_per_s"][0], 17 / (0.153 + 0.0003))
        # A fast failure never reads better than the answer it replaced.
        clean = end_to_end(ok + [Outcome(0.5, cuts=10)] * 3, count=20)
        for name in ("solve_ms_p50", "solve_ms_p90"):
            self.assertLessEqual(clean[name][0], metrics[name][0])

    def test_best_of_passes(self):
        # Two passes over two cases: case 0 keeps its faster pass; case 1
        # failed in one pass, which marks it failed whichever pass is faster.
        outcomes = [Outcome(0.2, cuts=4), Outcome(0.1, cuts=5),
                    Outcome(0.1, cuts=4), Outcome(0.3, error="exit 3")]
        self.assertEqual(best_of_passes(outcomes, 2),
                         [(outcomes[2], False), (outcomes[1], True)])
        metrics = end_to_end(outcomes, count=2)
        self.assertEqual(metrics["solve_ms_p90"][0], math.inf)
        self.assertAlmostEqual(metrics["solve_ms_p50"][0], 100.0)

    def test_host_speed_scales_times(self):
        # The slowdown around an operation is the windowed median kernel time
        # over its nominal time; a host twice as slow halves the scaled times.
        refs = [REF_NOMINAL_S] * 10 + [2 * REF_NOMINAL_S] * 20
        speed = host_speed(refs)
        self.assertEqual(speed[0], 1.0)
        self.assertEqual(speed[-1], 2.0)
        outcomes = [Outcome(0.2, cuts=10)] * 20
        scaled = end_to_end(outcomes, count=20, speed=[2.0] * 20)
        self.assertAlmostEqual(scaled["solve_ms_p50"][0], 100.0)
        self.assertAlmostEqual(scaled["cut_us_p50"][0], 10000.0)
        self.assertAlmostEqual(scaled["answered_per_s"][0], 10.0)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(percentile(values, 0.5), 50)
        self.assertEqual(percentile(values, 0.9), 90)
        self.assertEqual(percentile([3.0], 0.9), 3.0)


if __name__ == "__main__":
    unittest.main()
