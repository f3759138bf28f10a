#!/usr/bin/env python3
"""Self-test of the benchmark's own arithmetic and gates.

    python3 e2ebench/test_run.py

Covers the tail-percentile rule, failure counting (a perturbed loss must
fail the run), the steal-share filter, GFLOP/s from cost-model FLOPs, the
median-iteration throughput, the result-line shape, and — through the
built e2e_bench binary — the VmHWM reset the steady phase relies on.
"""
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def raw_result(loss_got="3a5afa00", loss_want="3a5afa00", failed_units=0):
    return {
        "units": 26,
        "failed_units": failed_units,
        "checks": [
            {"name": "setup0.pipeline_bit_identical", "got": "true",
             "want": "true"},
            {"name": "loss_bits", "got": loss_got, "want": loss_want},
            {"name": "param_norm_bits", "got": "40a1d3c2b0a1f00e",
             "want": "40a1d3c2b0a1f00e"},
        ],
    }


class TailRule(unittest.TestCase):
    def test_hundred_samples_is_p90(self):
        samples = [float(i) for i in range(100, 0, -1)]
        value, pct = run.tail(samples)
        self.assertEqual(pct, 90.0)
        self.assertEqual(value, 90.0)
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_thousand_samples_is_p99(self):
        value, pct = run.tail([float(i) for i in range(1000)])
        self.assertEqual(pct, 99.0)
        self.assertEqual(value, 989.0)

    def test_eleven_samples_is_the_minimum(self):
        samples = [0.9, 1.3, 1.0, 1.1, 1.2, 0.95, 1.05, 1.15, 1.25, 1.35,
                   1.4]
        value, pct = run.tail(samples)
        self.assertEqual(value, 0.9)
        self.assertAlmostEqual(pct, 100.0 / 11.0)

    def test_too_few_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            run.tail([1.0] * 10)


class FailureCounting(unittest.TestCase):
    def test_clean_run(self):
        self.assertEqual(run.failures(raw_result()), (26, 0))

    def test_perturbed_loss_is_a_failure(self):
        raw = raw_result(loss_got="3a5afa01")
        attempted, failed = run.failures(raw)
        self.assertEqual((attempted, failed), (26, 1))
        line = json.loads(run.result_line(failed == 0, attempted, failed,
                                          {"x": 1.0}, {"x": "s"}))
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 1)

    def test_failed_units_add_up_and_are_capped(self):
        self.assertEqual(run.failures(raw_result(failed_units=2)), (26, 2))
        raw = raw_result(loss_got="0", failed_units=40)
        self.assertEqual(run.failures(raw), (26, 26))

    def test_compute_busy_agreement(self):
        self.assertTrue(run.busy_agrees({"exec.compute_busy_s": 1.0,
                                         "exec.compute_span_sum_s": 1.005}))
        self.assertFalse(run.busy_agrees({"exec.compute_busy_s": 1.0,
                                          "exec.compute_span_sum_s": 0.9}))


class StealFilter(unittest.TestCase):
    def test_disturbed_samples_are_dropped(self):
        shares = [0.0] * 11 + [0.2, 0.031, 0.03]
        self.assertEqual(run.undisturbed(shares, 0.03),
                         list(range(11)) + [13])

    def test_too_few_undisturbed_keeps_the_least_disturbed(self):
        shares = [0.0] * 9 + [0.5, 0.04, 0.06, 0.2, 0.05, 0.3]
        self.assertEqual(run.undisturbed(shares, 0.03),
                         list(range(9)) + [10, 13])

    def test_metrics_use_undisturbed_samples(self):
        raw = {"max_steal_share": 0.03, "setup_s": [2.0, 1.0, 3.0],
               "steady_rss_mib": 100.0,
               "iter_s": [1.0] * 11 + [9.0, 9.0],
               "iter_batch": [8] * 13,
               "iter_steal": [0.01] * 11 + [0.3, 0.3],
               "plan_s": [0.5] * 12, "plan_steal": [0.0] * 12}
        values, notes = run.end_to_end(raw)
        self.assertEqual(values["iter_s_p50"], 1.0)
        self.assertEqual(values["images_per_s"], 8.0)
        self.assertEqual(values["setup_s"], 2.0)
        self.assertEqual(notes["iter_s_p50"], "11 of 13 undisturbed")


class Throughput(unittest.TestCase):
    def test_gflops_from_cost_model_flops(self):
        self.assertEqual(run.gflops(6e9, 2.0), 3.0)
        self.assertEqual(run.gflops(6e9, 0.0), 0.0)

    def test_images_per_s_one_batch(self):
        self.assertEqual(run.images_per_s([1.0, 2.0, 4.0], [8, 8, 8]), 4.0)

    def test_images_per_s_batch_cycle(self):
        # medians 1.0 s (b256) and 3.0 s (b512): 768 images per 4 s
        seconds = [1.0, 3.0, 0.5, 3.5, 1.5, 2.0]
        batches = [256, 512, 256, 512, 256, 512]
        self.assertEqual(run.images_per_s(seconds, batches), 192.0)


class ResultLine(unittest.TestCase):
    def test_exact_keys(self):
        line = json.loads(run.result_line(True, 3, 0, {"setup_s": 0.5},
                                          {"setup_s": "s"}))
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual(line["metrics"]["setup_s"],
                         {"value": 0.5, "unit": "s"})


class PeakRssReset(unittest.TestCase):
    def test_vmhwm_reset(self):
        binary = run.build()
        proc = subprocess.run([binary, "--selftest"], capture_output=True,
                              text=True, timeout=60)
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(proc.returncode, 0, report)
        self.assertTrue(report["ok"])
        self.assertLess(report["vmhwm_after_reset_mib"],
                        report["vmhwm_raised_mib"] - 48)


if __name__ == "__main__":
    unittest.main()
