"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import unittest

import reference
import run
from child import trace_record
from stats import (fail_ratio, interquartile_mean, invocation_failures, percentile,
                   repeat_share, tail)
from tracer import UNATTRIBUTED, Tracer


class TailRule(unittest.TestCase):
    def test_ten_samples_lie_beyond_the_tail(self):
        samples = list(range(600))
        value, pct, n = tail(samples)
        self.assertEqual(n, 600)
        self.assertEqual(sum(1 for s in samples if s > value), 10)
        self.assertAlmostEqual(pct, 100 * 590 / 600)

    def test_order_of_samples_does_not_matter(self):
        self.assertEqual(tail([5, 1, 4, 2, 3] * 10), tail(sorted([5, 1, 4, 2, 3] * 10)))

    def test_twenty_samples_give_the_median_rank(self):
        value, pct, _ = tail(list(range(1, 21)))
        self.assertEqual((value, pct), (10, 50.0))

    def test_small_sample_falls_back_to_the_maximum(self):
        self.assertEqual(tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))
        self.assertEqual(tail(list(range(19))), (18, 100.0, 19))

    def test_empty_sample_is_refused(self):
        with self.assertRaises(ValueError):
            tail([])


class RunSummaries(unittest.TestCase):
    def test_percentile_by_nearest_rank(self):
        samples = list(range(1, 601))
        self.assertEqual(percentile(samples, 50.0), 300)
        self.assertEqual(percentile(samples, 100.0), 600)
        self.assertEqual(percentile(samples, 0.0), 1)

    def test_pooled_percentile_at_the_tail_rank_of_one_pass(self):
        one_pass = list(range(600))
        _, pct, _ = tail(one_pass)
        self.assertEqual(percentile(one_pass, pct), tail(one_pass)[0])
        pooled = one_pass * 20
        self.assertEqual(sum(1 for s in pooled if s > percentile(pooled, pct)), 200)

    def test_interquartile_mean_drops_the_outer_quarters(self):
        self.assertEqual(interquartile_mean([100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5)
        self.assertEqual(interquartile_mean([2.0, 1.0, 3.0]), 2.0)
        self.assertEqual(interquartile_mean([7.0]), 7.0)

    def test_interquartile_mean_moves_smoothly_between_two_groups(self):
        fast, slow = 1.0, 2.0
        values = [interquartile_mean([fast] * (10 - k) + [slow] * k) for k in range(11)]
        steps = [b - a for a, b in zip(values, values[1:])]
        self.assertTrue(all(step >= 0 for step in steps))
        self.assertLess(max(steps), 0.2)  # the median of ten jumps by 0.5 at k = 5

    def test_empty_samples_are_refused(self):
        with self.assertRaises(ValueError):
            percentile([], 50.0)
        with self.assertRaises(ValueError):
            interquartile_mean([])


class ReferenceScale(unittest.TestCase):
    def test_time_metrics_read_at_the_reference_speed(self):
        r = run.Run()
        for name in run.TIMES:
            r.put(name, 2.0, "s")
        r.put("ops_per_s", 10.0, "1/s")
        r.put("peak_rss_mb", 30.0, "MB")
        r.reference = [2 * reference.REFERENCE_S] * 4  # the host runs at half speed
        r.scale_to_reference()
        for name in run.TIMES:
            self.assertEqual(r.metrics[name][0], 1.0)
        self.assertEqual(r.metrics["ops_per_s"][0], 20.0)
        self.assertEqual(r.metrics["peak_rss_mb"][0], 30.0)
        self.assertEqual(r.notes["measured"]["wall_s"], 2.0)
        self.assertEqual(r.notes["measured"]["ops_per_s"], 10.0)

    def test_reference_sample_is_a_positive_time(self):
        self.assertGreater(reference.sample(), 0.0)


class FailCounting(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(fail_ratio(0, 59), 0.0)
        self.assertEqual(fail_ratio(14, 56), 0.25)

    def test_ratio_refuses_impossible_counts(self):
        with self.assertRaises(ValueError):
            fail_ratio(0, 0)
        with self.assertRaises(ValueError):
            fail_ratio(3, 2)

    def test_passing_report(self):
        self.assertEqual(invocation_failures(3, 0, True, ["pass"] * 3), 0)

    def test_failed_checks_count_one_each(self):
        self.assertEqual(invocation_failures(3, 0, True, ["pass", "FAIL", "FAIL"]), 2)

    def test_bad_exit_fails_every_golden_check(self):
        self.assertEqual(invocation_failures(27, 1, True, ["pass"] * 27), 27)
        self.assertEqual(invocation_failures(27, 2, False, []), 27)

    def test_digest_mismatch_fails_every_golden_check(self):
        self.assertEqual(invocation_failures(14, 0, False, ["pass"] * 14), 14)

    def test_repeat_share(self):
        self.assertEqual(repeat_share(["a", "b", "a", "a"]), 0.5)
        self.assertEqual(repeat_share([]), 0.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class SelfTime(unittest.TestCase):
    def setUp(self):
        self.clock = FakeClock()
        self.tracer = Tracer(self.clock)

    def fn(self, layer, name, before, inner=(), after=0.0):
        def body():
            self.clock.advance(before)
            for call in inner:
                call()
            self.clock.advance(after)
        return self.tracer.wrap(layer, name, body)

    def test_child_spans_are_subtracted(self):
        inner = self.fn("hecke", "hecke.inner", 2.0)
        outer = self.fn("weyl", "weyl.outer", 1.0, [inner], 0.5)
        root = self.fn("cli", "cli.main", 0.25, [outer, inner])
        self.tracer.run(root)
        self.assertEqual(dict(self.tracer.self_s),
                         {"cli": 0.25, "weyl": 1.5, "hecke": 4.0, UNATTRIBUTED: 0.0})
        self.assertEqual(self.tracer.wall, 5.75)

    def test_same_layer_calls_are_counted_not_split(self):
        b = self.fn("weyl", "weyl.b", 2.0)
        a = self.fn("weyl", "weyl.a", 1.0, [b, b])
        self.tracer.run(a)
        self.assertEqual(self.tracer.self_s["weyl"], 5.0)
        self.assertEqual(dict(self.tracer.calls), {"weyl.a": 1, "weyl.b": 2})
        m = self.metrics()
        self.assertEqual(m["weyl.calls"][0], 3)
        self.assertEqual(m["hecke.calls"][0], 0)

    def test_time_outside_spans_is_unattributed(self):
        leaf = self.fn("rootdata", "rootdata.leaf", 1.0)

        def root():
            self.clock.advance(0.5)
            leaf()
        self.tracer.run(root)
        self.assertEqual(self.tracer.self_s[UNATTRIBUTED], 0.5)
        self.assertEqual(sum(self.tracer.self_s.values()), self.tracer.wall)

    def test_span_closes_when_the_call_raises(self):
        def boom():
            self.clock.advance(1.0)
            raise KeyError("x")
        failing = self.tracer.wrap("hecke", "hecke.boom", boom)
        outer = self.fn("periodic", "periodic.outer", 0.5, [lambda: _swallow(failing)])
        self.tracer.run(outer)
        self.assertEqual(self.tracer.self_s["hecke"], 1.0)
        self.assertEqual(self.tracer.self_s["periodic"], 0.5)
        self.assertEqual(self.tracer.layer, UNATTRIBUTED)

    def test_timed_calls_keep_each_duration(self):
        vm = self.fn("parabolic", "parabolic.verify_main", 0.25)
        main = self.fn("parabolic", "parabolic.other", 0.0, [vm, vm])
        self.tracer.run(main)
        self.assertEqual(self.tracer.durations["parabolic.verify_main"], [0.25, 0.25])
        self.assertEqual(self.tracer.self_s["parabolic"], 0.5)

    def metrics(self, traced_pass_wall=0.0, untraced_wall=0.0):
        trace = run.merge_traces([trace_record(self.tracer)])
        return run.layer_metrics(trace, traced_pass_wall, untraced_wall,
                                 cache_bytes=0, import_s=0.0)

    def test_unattributed_metric_is_wall_minus_layer_self_times(self):
        leaf = self.fn("weyl", "weyl.leaf", 1.0)

        def root():
            self.clock.advance(0.5)  # e.g. the import before cli.main
            self.fn("cli", "cli.main", 0.5, [leaf])()
        self.tracer.run(root)
        m = self.metrics(traced_pass_wall=2.5, untraced_wall=1.25)
        self.assertEqual(m["trace.wall_s"][0], 2.0)
        self.assertEqual(m["trace.unattributed_s"][0], 0.5)
        self.assertEqual(m["trace.unattributed_share"][0], 0.25)
        self.assertEqual(m["trace.overhead_s"][0], 1.25)
        self.assertEqual(m["weyl.self_s"][0], 1.0)
        self.assertEqual(m["cli.calls"][0], 1)


class Accounting(unittest.TestCase):
    def share(self, unattributed, wall=10.0):
        clock = FakeClock()
        tracer = Tracer(clock)
        leaf = tracer.wrap("weyl", "weyl.leaf", lambda: clock.advance(wall - unattributed))

        def root():
            clock.advance(unattributed)
            leaf()
        tracer.run(root)
        return run.layer_metrics(trace_record(tracer), 0.0, 0.0, 0, 0.0)

    def test_share_within_the_limit_passes(self):
        self.assertIsNone(run.accounting_problem(self.share(0.0)))
        self.assertIsNone(run.accounting_problem(self.share(10.0 * run.UNATTRIBUTED_LIMIT)))

    def test_share_beyond_the_limit_is_a_problem(self):
        m = self.share(10.0 * run.UNATTRIBUTED_LIMIT + 0.5)
        self.assertIn("unattributed", run.accounting_problem(m))

    def test_time_outside_every_span_is_a_problem(self):
        self.assertIsNotNone(run.accounting_problem(self.share(10.0)))


def _swallow(fn):
    try:
        fn()
    except KeyError:
        pass


if __name__ == "__main__":
    unittest.main()
