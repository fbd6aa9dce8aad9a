"""Self-test of the benchmark's statistics and output.

Run with:  python3 perfbench/run.py --self-test
"""

import io
import json
import unittest
from contextlib import redirect_stdout

import run
import stats


class MedianQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_mean(self):
        self.assertEqual(stats.mean([4, 1, 3, 2, 10]), 4.0)
        with self.assertRaises(ValueError):
            stats.mean([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [10, 1, 7, 3, 9, 4, 8, 2, 6, 5]
        self.assertEqual(stats.quartiles(values), (2.75, 5.5, 8.25))


class Tail(unittest.TestCase):
    def test_ten_samples_stay_beyond_the_reported_percentile(self):
        values = list(range(1, 101))  # 1..100
        value, pct, count = stats.tail(values)
        self.assertEqual((value, pct, count), (90, 90, 100))
        self.assertEqual(sum(v > value for v in values), 10)

    def test_percentile_rises_with_the_sample_count(self):
        value, pct, count = stats.tail(list(range(1, 1001)))
        self.assertEqual((pct, count), (99, 1000))
        self.assertEqual(value, 990)

    def test_odd_sample_count(self):
        values = list(range(1, 65))  # 64 samples
        value, pct, count = stats.tail(values)
        # p84 is rank 54 with ten beyond; p85 (rank 55) would leave nine.
        self.assertEqual((value, pct, count), (54, 84, 64))
        self.assertEqual(sum(v > value for v in values), 10)

    def test_too_few_samples_report_the_maximum(self):
        self.assertEqual(stats.tail([5, 1, 3]), (5, 100, 3))

    def test_order_does_not_matter(self):
        values = [float(v) for v in range(50)]
        self.assertEqual(stats.tail(values), stats.tail(list(reversed(values))))


class FailRatio(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(stats.fail_ratio(200, 0), 0.0)
        self.assertEqual(stats.fail_ratio(200, 50), 0.25)

    def test_invalid_counts(self):
        for attempted, failed in [(0, 0), (10, 11), (10, -1)]:
            with self.assertRaises(ValueError):
                stats.fail_ratio(attempted, failed)


def fake_raw(trace=0):
    """A driver record shaped like cmm_perfbench's output."""
    return {
        "workload": "service_soak", "seed": 3, "trace": trace,
        "env": {"build_type": "RelWithDebInfo", "compiler": "GNU", "simd": "avx2",
                "nproc": 4, "threads": 4, "seed": 3},
        "setup_s": [0.004, 0.002, 0.003], "timed_s": 2.0, "reps": 1,
        "sim_instructions": 40_000_000, "primary_op": "tick",
        "latency_ms": {"tick": [float(v) for v in range(1, 31)],
                       "attach": [0.01] * 12 + [30.0] * 3, "detach": [0.07] * 11},
        "attempted": 56, "failed": 0, "failures": [],
        "model": {"slo_met_ratio": 0.95}, "model_score": "slo_met_ratio",
        "digest": "0123456789abcdef", "checks": {"model_finite": True},
        "layers": {"obs.events": 12.0, "service.admitted": 7.0}, "info": {},
        "peak_rss_kib": 5120,
    }


class Output(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_end_to_end_metrics_and_units(self):
        raw = fake_raw()
        metrics, report = run.summarize(raw, self.spec)
        self.assertEqual(metrics["setup_s"], 0.003)
        self.assertEqual(metrics["sim_minstr_per_s"], 20.0)
        self.assertEqual(metrics["op_mean_ms"], 15.5)
        self.assertEqual(metrics["peak_rss_mb"], 5.0)
        self.assertEqual(metrics["model_score"], 0.95)
        self.assertEqual(run.verdict(raw, metrics, self.spec), [])

        text = "\n".join(run.format_report(raw, metrics, report, self.spec))
        for m in self.spec["end_to_end"]:
            self.assertIn(f"{m['name']} = ", text)
            self.assertIn(m["unit"], text)
        for name in ("tick_p50_ms", "tick_tail_ms", "attach_p50_ms", "attach_tail_ms",
                     "fail_ratio", "slo_met_ratio"):
            self.assertIn(f"{name} = ", text)
        self.assertIn("tick_tail_ms = 20 ms  [p66, n=30]", text)  # p66 of 30: ten beyond
        self.assertIn("tick: p50 15.5000 ms (quartiles 7.7500-23.2500), p66 20.0000 ms (n=30), "
                      "mean 15.5000 ms", text)

        line = json.loads(run.result_line(True, raw, metrics, self.spec))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(line["metrics"]), {m["name"] for m in self.spec["end_to_end"]})
        for m in self.spec["end_to_end"]:
            self.assertEqual(line["metrics"][m["name"]]["unit"], m["unit"])

    def test_failures_make_the_run_incorrect(self):
        raw = fake_raw()
        raw["failed"] = 2
        raw["failures"] = ["tick 4: PMU counters went backwards"]
        metrics, report = run.summarize(raw, self.spec)
        self.assertEqual(report["named"]["fail_ratio"][0], 2 / 56)
        self.assertTrue(run.verdict(raw, metrics, self.spec))

    def test_failed_check_makes_the_run_incorrect(self):
        raw = fake_raw()
        raw["checks"]["traced_digest_equals_untraced"] = False
        metrics, _ = run.summarize(raw, self.spec)
        self.assertTrue(run.verdict(raw, metrics, self.spec))

    def test_traced_run_reports_every_per_layer_metric(self):
        raw = fake_raw(trace=1)
        raw["layers"] = {m["name"]: 1.0 for m in self.spec["per_layer"]}
        raw["layers"]["service.admitted"] = 7.0
        metrics, report = run.summarize(raw, self.spec)
        self.assertEqual(run.verdict(raw, metrics, self.spec), [])
        text = "\n".join(run.format_report(raw, metrics, report, self.spec))
        for m in self.spec["per_layer"]:
            self.assertIn(f"{m['name']} = 1 {m['unit']}", text)
        self.assertIn("service.admitted = 7 (workload-specific)", text)
        self.assertNotIn("service.detach_p50_us", text)  # no traced detach samples
        line = json.loads(run.result_line(True, raw, metrics, self.spec))
        self.assertEqual(set(line["metrics"]), {m["name"] for m in self.spec["per_layer"]})

    def test_detach_median_comes_from_the_traced_samples(self):
        raw = fake_raw(trace=1)
        raw["latency_ms"]["traced_detach"] = [0.05, 0.02, 0.09, 0.04]
        _, report = run.summarize(raw, self.spec)
        self.assertAlmostEqual(report["layers"]["service.detach_p50_us"], 45.0)
        text = "\n".join(run.format_report(raw, {}, report, self.spec))
        self.assertIn("service.detach_p50_us = 45 (workload-specific)", text)

    def test_setup_from_process_start_is_reported(self):
        raw = fake_raw()
        _, report = run.summarize(raw, self.spec)
        self.assertEqual(report["named"]["setup_first_s"], (0.004, "s", None))

    def test_missing_per_layer_metric_is_incorrect(self):
        raw = fake_raw(trace=1)
        metrics, _ = run.summarize(raw, self.spec)
        self.assertTrue(run.verdict(raw, metrics, self.spec))


class CommandLine(unittest.TestCase):
    def test_unknown_workload_is_rejected(self):
        buf = io.StringIO()
        with self.assertRaises(SystemExit), redirect_stdout(buf):
            run.main(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])


if __name__ == "__main__":
    unittest.main()
