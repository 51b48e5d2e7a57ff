#!/usr/bin/env python3
"""Fixture-driven self-tests for tools/check_bench_regression.py.

The checker is the CI bench-regression gate; these tests pin its contract
with synthetic baseline/current pairs so a refactor cannot silently turn
the gate green:

  * exact-field mismatch -> exit 1 (deterministic fields are hard-compared)
  * tolerance edge       -> ratio medians pass inside the band, fail outside
  * missing point        -> exit 1 (a shrunken grid is a regression)
  * schema drift         -> exit 1 (a dropped deterministic field fails,
                            an added field is ignored -- forward compatible)
  * wall medians         -> only points at or above the checker's floor
                            count; a runaway there fails
  * malformed input      -> exit 2 (usage error, distinct from regression)
  * identical runs       -> exit 0

Invoked by ctest as `python3 check_bench_regression_test.py <checker-path>`;
run directly it defaults to the checker next to this file's repo layout.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = None


def baseline_doc():
    return {
        "_meta": {"schema": 1, "commit": "unknown"},
        "threads": 2,
        "total_wall_ms": 100.0,
        "points": [
            {"engine": "horizon", "q": 7, "solution": "low-depth",
             "overlap": "on", "straggler": "none",
             "time_to_epoch": 302742, "overlap_eff": 0.9406,
             "total_flits": 123456, "correct": True,
             "speedup_warm": 10.0, "wall_ms": 50.0},
            {"engine": "horizon", "q": 11, "solution": "low-depth",
             "overlap": "on", "straggler": "none",
             "time_to_epoch": 302076, "overlap_eff": 0.9402,
             "total_flits": 654321, "correct": True,
             "speedup_warm": 12.0, "wall_ms": 60.0},
        ],
    }


def run_checker(base, cur, extra_args=()):
    """Writes both docs to temp files and returns the checker's exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        bpath = os.path.join(tmp, "baseline.json")
        cpath = os.path.join(tmp, "current.json")
        for path, doc in ((bpath, base), (cpath, cur)):
            with open(path, "w") as f:
                if isinstance(doc, str):
                    f.write(doc)
                else:
                    json.dump(doc, f)
        proc = subprocess.run(
            [sys.executable, CHECKER, "--baseline", bpath,
             "--current", cpath, *extra_args],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr


class CheckBenchRegressionTest(unittest.TestCase):
    def test_identical_runs_pass(self):
        rc, out = run_checker(baseline_doc(), baseline_doc())
        self.assertEqual(rc, 0, out)
        self.assertIn("OK", out)

    def test_exact_field_mismatch_fails(self):
        cur = baseline_doc()
        cur["points"][0]["time_to_epoch"] += 1
        rc, out = run_checker(baseline_doc(), cur)
        self.assertEqual(rc, 1, out)
        self.assertIn("time_to_epoch", out)

    def test_exact_float_within_print_precision_passes(self):
        # "Exact" floats allow one unit in the last %.4f place (EXACT_REL).
        cur = baseline_doc()
        cur["points"][0]["overlap_eff"] = 0.94065
        rc, out = run_checker(baseline_doc(), cur)
        self.assertEqual(rc, 0, out)

    def test_correct_flag_is_a_hard_fail(self):
        cur = baseline_doc()
        cur["points"][1]["correct"] = False
        rc, out = run_checker(baseline_doc(), cur)
        self.assertEqual(rc, 1, out)
        self.assertIn("correct", out)

    def test_ratio_median_inside_tolerance_passes(self):
        cur = baseline_doc()
        for p in cur["points"]:
            p["speedup_warm"] *= 1.15  # +15% < default +/-20% band
        rc, out = run_checker(baseline_doc(), cur)
        self.assertEqual(rc, 0, out)

    def test_ratio_median_outside_tolerance_fails(self):
        cur = baseline_doc()
        for p in cur["points"]:
            p["speedup_warm"] *= 0.5  # fast path stopped being fast
        rc, out = run_checker(baseline_doc(), cur)
        self.assertEqual(rc, 1, out)
        self.assertIn("speedup_warm", out)

    def test_tighter_tolerance_flag_is_honored(self):
        cur = baseline_doc()
        for p in cur["points"]:
            p["speedup_warm"] *= 1.15
        rc, out = run_checker(baseline_doc(), cur,
                              extra_args=("--tolerance", "0.1"))
        self.assertEqual(rc, 1, out)

    def test_missing_point_fails(self):
        cur = baseline_doc()
        del cur["points"][1]
        rc, out = run_checker(baseline_doc(), cur)
        self.assertEqual(rc, 1, out)
        self.assertIn("missing", out)

    def test_extra_point_in_current_is_ignored(self):
        # Growing the grid is not a regression; the baseline rules.
        cur = baseline_doc()
        extra = copy.deepcopy(cur["points"][0])
        extra["q"] = 13
        cur["points"].append(extra)
        rc, out = run_checker(baseline_doc(), cur)
        self.assertEqual(rc, 0, out)

    def test_schema_drift_dropped_field_fails(self):
        cur = baseline_doc()
        for p in cur["points"]:
            del p["time_to_epoch"]
        rc, out = run_checker(baseline_doc(), cur)
        self.assertEqual(rc, 1, out)
        self.assertIn("missing from current run", out)

    def test_schema_drift_point_key_change_fails(self):
        # Renaming a key field changes every point's identity: the old
        # points are "missing", which the gate must flag.
        cur = baseline_doc()
        for p in cur["points"]:
            p["straggler"] = "renamed"
        rc, out = run_checker(baseline_doc(), cur)
        self.assertEqual(rc, 1, out)

    def test_wall_clock_unchecked_by_default(self):
        cur = baseline_doc()
        cur["total_wall_ms"] = 10000.0
        for p in cur["points"]:
            p["wall_ms"] = 5000.0
        rc, out = run_checker(baseline_doc(), cur)
        self.assertEqual(rc, 0, out)

    def test_wall_clock_runaway_fails_when_opted_in(self):
        cur = baseline_doc()
        cur["total_wall_ms"] = 10000.0
        rc, out = run_checker(baseline_doc(), cur,
                              extra_args=("--wall-tolerance", "3.0"))
        self.assertEqual(rc, 1, out)
        self.assertIn("total_wall_ms", out)

    def test_wall_median_skips_points_below_the_floor(self):
        base = baseline_doc()
        for p in base["points"]:
            p["wall_ms"] = 0.1
        cur = copy.deepcopy(base)
        for p in cur["points"]:
            p["wall_ms"] = 1.4
        rc, out = run_checker(base, cur,
                              extra_args=("--wall-tolerance", "3.0"))
        self.assertEqual(rc, 0, out)

    def test_wall_median_runaway_above_the_floor_fails(self):
        cur = baseline_doc()
        for p in cur["points"]:
            p["wall_ms"] *= 4
        rc, out = run_checker(baseline_doc(), cur,
                              extra_args=("--wall-tolerance", "3.0"))
        self.assertEqual(rc, 1, out)
        self.assertIn("median wall_ms", out)

    def test_malformed_current_is_a_usage_error(self):
        rc, out = run_checker(baseline_doc(), "{not json")
        self.assertEqual(rc, 2, out)

    def test_missing_baseline_file_is_a_usage_error(self):
        with tempfile.TemporaryDirectory() as tmp:
            cpath = os.path.join(tmp, "current.json")
            with open(cpath, "w") as f:
                json.dump(baseline_doc(), f)
            proc = subprocess.run(
                [sys.executable, CHECKER, "--baseline",
                 os.path.join(tmp, "nope.json"), "--current", cpath],
                capture_output=True, text=True)
            self.assertEqual(proc.returncode, 2, proc.stderr)


if __name__ == "__main__":
    if len(sys.argv) > 1 and not sys.argv[1].startswith("-"):
        CHECKER = sys.argv.pop(1)
    else:
        CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               os.pardir, "tools",
                               "check_bench_regression.py")
    if not os.path.exists(CHECKER):
        print(f"checker not found: {CHECKER}", file=sys.stderr)
        sys.exit(2)
    unittest.main()
