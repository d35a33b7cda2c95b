#!/usr/bin/env python3
"""Unit test of perf_gate.read_microbench (registered as the
`perf_gate_units` ctest; also runnable by hand):

    python3 scripts/perf_gate_test.py

Feeds a synthetic google-benchmark report to read_microbench and checks
that every tracked kernel's real_time is recorded in ns whatever its
time_unit, that a median aggregate wins over the repetitions it
summarises, and that a kernel in an unknown unit is skipped with a note.
"""
import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_gate  # noqa: E402


def iteration(name, real_time, unit, **extra):
    return {"name": name, "run_name": name, "run_type": "iteration",
            "real_time": real_time, "cpu_time": real_time, "time_unit": unit,
            **extra}


def aggregate(name, aggregate_name, real_time, unit):
    return {"name": f"{name}_{aggregate_name}", "run_name": name,
            "run_type": "aggregate", "aggregate_name": aggregate_name,
            "real_time": real_time, "cpu_time": real_time, "time_unit": unit}


REPORT = {
    "context": {"library_build_type": "release"},
    "benchmarks": [
        iteration("BM_WakeupSelect/64", 123.4, "ns", items_per_second=5e8),
        iteration("BM_TraceExperimentBuild", 12.19, "ms"),
        iteration("BM_ModelEstimateInterval", 10.0, "us"),
        iteration("BM_ModelEstimateInterval", 11.0, "us"),
        aggregate("BM_ModelEstimateInterval", "mean", 10.5, "us"),
        aggregate("BM_ModelEstimateInterval", "median", 10.6, "us"),
        iteration("BM_ArenaRunReused", 3.0, "fortnights"),
        iteration("BM_NotTracked", 1.0, "s"),
    ],
}


class ReadMicrobench(unittest.TestCase):
    def setUp(self):
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            json.dump(REPORT, f)
        self.addCleanup(os.unlink, f.name)
        self.stderr = io.StringIO()
        with contextlib.redirect_stderr(self.stderr):
            self.kernels = perf_gate.read_microbench(f.name)

    def test_ns_kernel_is_recorded_as_is(self):
        self.assertEqual(self.kernels["BM_WakeupSelect/64"],
                         {"real_time_ns": 123.4, "items_per_second": 5e8})

    def test_ms_kernel_is_converted_to_ns(self):
        self.assertEqual(self.kernels["BM_TraceExperimentBuild"],
                         {"real_time_ns": 12190000.0})

    def test_median_aggregate_wins_and_is_converted(self):
        self.assertEqual(self.kernels["BM_ModelEstimateInterval"],
                         {"real_time_ns": 10600.0})

    def test_unknown_unit_is_skipped_with_a_note(self):
        self.assertNotIn("BM_ArenaRunReused", self.kernels)
        self.assertIn("BM_ArenaRunReused", self.stderr.getvalue())
        self.assertIn("fortnights", self.stderr.getvalue())

    def test_only_tracked_kernels_are_kept(self):
        self.assertEqual(sorted(self.kernels),
                         ["BM_ModelEstimateInterval",
                          "BM_TraceExperimentBuild", "BM_WakeupSelect/64"])


if __name__ == "__main__":
    unittest.main()
