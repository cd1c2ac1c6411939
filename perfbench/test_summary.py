#!/usr/bin/env python3
"""Self-test of the benchmark's summariser: python3 perfbench/test_summary.py"""

import math
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import summary  # noqa: E402


def span(name, sid, parent, ts, dur, spec="a", trial=-1):
    return {"name": name, "id": sid, "parent": parent, "ts": ts, "dur": dur,
            "spec": spec, "trial": trial}


def counters(**kw):
    return {"counters": kw, "sketches": {}}


class Percentiles(unittest.TestCase):
    def test_interpolates(self):
        xs = [4, 1, 3, 2]
        self.assertEqual(summary.percentile(xs, 0), 1)
        self.assertEqual(summary.percentile(xs, 1), 4)
        self.assertAlmostEqual(summary.percentile(xs, 0.5), 2.5)
        self.assertAlmostEqual(summary.percentile(xs, 0.25), 1.75)

    def test_tail_leaves_ten_beyond(self):
        xs = list(range(1, 101))
        pct, value, n = summary.tail_percentile(xs)
        self.assertEqual((pct, n), (90, 100))
        self.assertAlmostEqual(value, 90.1)
        self.assertGreaterEqual(sum(x > value for x in xs), 10)
        pct, value, n = summary.tail_percentile(list(range(1, 238)))
        self.assertEqual(pct, 95)
        self.assertGreaterEqual(sum(x > value for x in range(1, 238)), 10)

    def test_tail_falls_back_to_median(self):
        pct, value, n = summary.tail_percentile([1, 2, 3, 4, 5])
        self.assertEqual((pct, value, n), (50, 3, 5))

    def test_empty_raises(self):
        with self.assertRaises(ValueError):
            summary.percentile([], 0.5)


class SelfTime(unittest.TestCase):
    def test_union_clips_and_merges(self):
        self.assertEqual(summary.union_length([(0, 4), (2, 6), (8, 9)], 0, 10),
                         7)
        self.assertEqual(summary.union_length([(-5, 3), (9, 20)], 0, 10), 4)
        self.assertEqual(summary.union_length([], 0, 10), 0)

    def test_nested_and_overlapping_children(self):
        spans = [
            span("set", 1, 0, 0, 100),
            span("trial", 2, 1, 10, 50),    # thread A
            span("trial", 3, 1, 30, 60),    # thread B, overlaps A
            span("build", 4, 2, 10, 20),
            span("loop", 5, 2, 35, 20),
        ]
        st = summary.self_times(spans)
        self.assertEqual(st[1], 100 - 80)  # union of [10,60) and [30,90)
        self.assertEqual(st[2], 50 - 40)
        self.assertEqual(st[3], 60)
        self.assertEqual(st[4], 20)


class Ratios(unittest.TestCase):
    def test_pooled_matches_concatenation(self):
        a, b = [1.0, 2.0, 4.0], [10.0, 11.0]
        groups = [(len(x), statistics.mean(x), statistics.variance(x))
                  for x in (a, b)]
        mean, sd, n = summary.pooled_mean_sd(groups)
        self.assertEqual(n, 5)
        self.assertAlmostEqual(mean, statistics.mean(a + b))
        self.assertAlmostEqual(sd, statistics.stdev(a + b))

    def test_reference_check(self):
        ref = {"mean": 100.0, "sd": 10.0, "trials": 100}
        # se = sqrt(100/100 + 100/100) = sqrt(2)
        z = summary.REFERENCE_Z_MAX
        self.assertTrue(summary.reference_check(
            100 + (z - 0.1) * math.sqrt(2), 10, 100, ref))
        self.assertFalse(summary.reference_check(
            100 + (z + 0.1) * math.sqrt(2), 10, 100, ref))
        flat = {"mean": 20.0, "sd": 0.0, "trials": 50}
        self.assertTrue(summary.reference_check(20.0, 0.0, 8, flat))
        self.assertFalse(summary.reference_check(20.5, 0.0, 8, flat))

    def test_ratio_of_nothing_is_zero(self):
        self.assertEqual(summary.ratio(3, 4), 0.75)
        self.assertEqual(summary.ratio(0, 0), 0.0)

    def test_sketch_lower_bound_mean(self):
        block = {"counters": {}, "sketches": {"fenwick_depth": {
            "count": 4, "buckets": {"0": 1, "1": 1, "3": 2}}}}
        # values read as 0, 1, 4, 4
        self.assertEqual(
            summary._sketch_mean_lower_bound(block, "fenwick_depth"), 2.25)


def raw_fixture():
    sets = [
        {"spec": 0, "round": 0, "pass": "pool", "trials": 2, "failed": 0,
         "wall_s": 1.0, "cpu_s": 3.0, "pt_mean": 10.0, "pt_var": 2.0,
         "ev_mean": 50.0, "ev_var": 8.0,
         "events": 100, "interactions": 1000, "faults": 0,
         "cache_hits": 0, "cache_misses": 0, "chunks": 0,
         "counters": counters(fenwick_updates=700, group_touches=0,
                              roster_rejections=0, fault_state_touches=0)},
        {"spec": 0, "round": 1, "pass": "pool", "trials": 2, "failed": 0,
         "wall_s": 3.0, "cpu_s": 5.0, "pt_mean": 12.0, "pt_var": 2.0,
         "ev_mean": 150.0, "ev_var": 8.0,
         "events": 300, "interactions": 3000, "faults": 0,
         "cache_hits": 0, "cache_misses": 0, "chunks": 0,
         "counters": counters(fenwick_updates=2100)},
    ]
    return {
        "threads": 2, "setup_s": [0.3, 0.1, 0.2], "peak_rss_kb": 2048,
        "specs": [{"label": "a", "protocol": "ag", "n": 64,
                   "init": "uniform-random", "scheduler": "accelerated-uniform",
                   "budget_parallel_time": 0, "trials": 2,
                   "scheduler_build_ms": 0}],
        "sets": sets,
        "checks": {"traced_records_equal_untraced": True},
        "trace": {"replay_round0_wall_s": 1.1, "pool_pass_wall_s": 1.0,
                  "pool_served_wall_s": 0.5,
                  "cold_pass_wall_s": 1.5, "warm_pass_wall_s": 0.01,
                  "warm_hits": 2, "warm_chunks": 2, "chunk_bytes": [100, 300]},
    }


def trace_fixture():
    # One replayed set of two trials on two threads; times in microseconds.
    spans = [span("bench.replay", 1, 0, 0, 10000),
             span("runner.run_trials", 2, 1, 0, 4000)]
    sid = 3
    for t, (start, build, init, reset, loop) in enumerate(
            [(0, 100, 200, 300, 2000), (500, 300, 200, 100, 3000)]):
        tid = sid
        spans.append(span("runner.trial", tid, 2, start,
                          build + init + reset + loop + 100, trial=t))
        ts = start
        for name, d in (("protocols.make_protocol", build),
                        ("core.initial", init), ("core.reset", reset),
                        ("core.run_accelerated", loop)):
            sid += 1
            spans.append(span(name, sid, tid, ts, d, trial=t))
            ts += d
        sid += 1
    spans += [span("service.store_chunk", 100, 50, 0, 400),
              span("service.store_chunk", 101, 50, 0, 600),
              span("service.load_chunk", 102, 50, 0, 200)]
    return spans


class Metrics(unittest.TestCase):
    def test_end_to_end(self):
        m = summary.end_to_end(raw_fixture())
        self.assertEqual(m["trials_per_s"], {"value": 1.0, "unit": "trials/s"})
        self.assertEqual(m["cpu_s_per_trial"]["value"], 2.0)
        self.assertEqual(m["setup_s"]["value"], 0.2)
        self.assertEqual(m["peak_rss_mb"]["value"], 2.0)

    def test_per_layer(self):
        m, layers = summary.per_layer(raw_fixture(), trace_fixture())
        v = {k: x["value"] for k, x in m.items()}
        self.assertEqual(v["protocols.build_ms"], 0.2)
        self.assertEqual(v["core.loop_ms"], 2.5)
        # trial spans total 2700 + 3700 us; set-up parts 600 + 600 us.
        self.assertAlmostEqual(v["core.setup_share"], 1200 / 6400)
        self.assertAlmostEqual(v["core.ns_per_event"], 5000 * 1e3 / 400)
        # No budget-capped spec: per step over every spec.
        self.assertAlmostEqual(v["schedulers.ns_per_step"], 5000 * 1e3 / 4000)
        self.assertAlmostEqual(v["runner.parallel_efficiency"],
                               6400 / (2 * 4000))
        self.assertAlmostEqual(v["runner.overhead_ms_per_trial"],
                               (8000 - 6400) / 2 / 1e3)
        self.assertEqual(v["service.store_chunk_ms"], 0.5)
        self.assertEqual(v["service.chunk_bytes"], 200)
        self.assertEqual(v["service.cold_vs_pool"], 3.0)
        self.assertAlmostEqual(v["trace.overhead_ratio"], 1.1)
        # Exact counts come from round 0 alone.
        self.assertEqual(v["core.events_per_trial"], 50)
        self.assertEqual(v["core.interactions_per_event"], 10)
        self.assertEqual(v["core.fenwick_updates_per_event"], 7)
        self.assertEqual(v["service.warm_hit_ratio"], 1.0)
        self.assertEqual(v["schedulers.fault_state_touches_per_fault"], 0.0)
        self.assertAlmostEqual(layers["self_ms"]["runner.trial"], 0.2)

    def test_per_layer_capped_and_unserved(self):
        # A second, budget-capped spec: ns_per_step covers it alone, and
        # ns_per_event leaves it out.  No spec the service can serve.
        raw = raw_fixture()
        raw["specs"].append(dict(raw["specs"][0], label="b",
                                 budget_parallel_time=20))
        raw["sets"].append(dict(raw["sets"][0], spec=1, events=10,
                                interactions=5000))
        raw["trace"].update(pool_served_wall_s=0.0, cold_pass_wall_s=0.0,
                            warm_pass_wall_s=0.0, warm_hits=0, warm_chunks=0)
        spans = trace_fixture()
        spans.append(span("runner.trial", 200, 2, 0, 1000, spec="b"))
        spans.append(span("schedulers.run", 201, 200, 0, 900, spec="b"))
        m, _ = summary.per_layer(raw, spans)
        v = {k: x["value"] for k, x in m.items()}
        self.assertAlmostEqual(v["schedulers.ns_per_step"], 900 * 1e3 / 5000)
        self.assertAlmostEqual(v["core.ns_per_event"], 5000 * 1e3 / 400)
        self.assertEqual(v["service.cold_vs_pool"], 0.0)
        self.assertEqual(v["service.warm_hit_ratio"], 0.0)

    def test_correctness_flags_reference_and_checks(self):
        raw = raw_fixture()
        workload = {"specs": [
            {"reference": {"mean": 11.0, "sd": 1.5, "trials": 400}}]}
        ok, attempted, failed, problems = summary.correctness(raw, workload)
        self.assertEqual((ok, attempted, failed, problems), (True, 4, 0, []))
        workload["specs"][0]["reference"]["mean"] = 30.0
        raw["checks"]["traced_records_equal_untraced"] = False
        raw["sets"][1]["failed"] = 1
        ok, _, failed, problems = summary.correctness(raw, workload)
        self.assertFalse(ok)
        self.assertEqual(failed, 1)
        self.assertEqual(sorted(problems),
                         ["failed_trials", "reference_mean:a",
                          "traced_records_equal_untraced"])

    def test_capped_spec_checked_on_productive_steps(self):
        # Same parallel times as a run-to-silence spec, but a capped spec
        # is judged on its mean productive steps (51 here).
        raw = raw_fixture()
        raw["specs"][0]["budget_parallel_time"] = 20
        raw["sets"][1]["ev_mean"] = 52.0
        workload = {"specs": [
            {"reference": {"mean": 11.0, "sd": 1.5, "trials": 400}}]}
        ok, _, _, problems = summary.correctness(raw, workload)
        self.assertEqual(problems, ["reference_mean:a"])
        workload["specs"][0]["reference"] = {"mean": 52.0, "sd": 3.0,
                                             "trials": 400}
        ok, _, _, problems = summary.correctness(raw, workload)
        self.assertTrue(ok)


if __name__ == "__main__":
    unittest.main()
