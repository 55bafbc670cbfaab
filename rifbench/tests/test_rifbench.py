#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 rifbench/tests/test_rifbench.py

They build the benchmark binary through run.py like a measurement does,
then check that turnaround is wall-clock time, that a corrupted composite
fails the command, that a checkout without the sources is refused, and that
compare mode marks a regression beyond a bound.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
SCRATCH = os.path.join(ROOT, ".bench_build", "tests")


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    def test_turnaround_is_wall_clock(self):
        # A wall sleep between the last submit() and run() adds nothing on
        # the service's virtual timeline; only a steady-clock turnaround
        # grows by it.
        base = run("--workload", "host_full", "--seed", "5", "--seconds", "1")
        slow = run("--workload", "host_full", "--seed", "5", "--seconds", "1",
                   "--inject", "delay_ms=300")
        self.assertEqual(base.returncode, 0, base.stderr)
        self.assertEqual(slow.returncode, 0, slow.stderr)
        fast_ms = result_of(base)["metrics"]["turnaround_p50_ms"]["value"]
        slow_ms = result_of(slow)["metrics"]["turnaround_p50_ms"]["value"]
        self.assertGreaterEqual(slow_ms - fast_ms, 290.0)

    def test_corrupted_composite_fails_the_command(self):
        proc = run("--workload", "host_full", "--seed", "5", "--seconds", "1",
                   "--inject", "corrupt")
        self.assertNotEqual(proc.returncode, 0)
        result = result_of(proc)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_checkout_without_sources_is_refused(self):
        os.makedirs(SCRATCH, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=SCRATCH)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH, os.path.join(bare, "rifbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, os.path.join(bare, "rifbench", "run.py"),
                 "--workload", "host_full", "--seconds", "1"],
                cwd=bare, text=True, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)

    def test_compare_marks_metrics_beyond_bound(self):
        os.makedirs(SCRATCH, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="cmp-", dir=SCRATCH)
        try:
            def write(name, jobs_per_s, p50):
                path = os.path.join(tmp, name)
                with open(path, "w") as f:
                    for k in range(5):
                        f.write(json.dumps({
                            "workload": "host_full", "trace": 0,
                            "metrics": {
                                "jobs_per_s": {"value": jobs_per_s + 0.1 * k,
                                               "unit": "jobs/s"},
                                "turnaround_p50_ms": {"value": p50 + k,
                                                      "unit": "ms"}}}) + "\n")
                return path

            base = write("base.jsonl", 40.0, 90.0)
            same = write("same.jsonl", 39.0, 92.0)
            slow = write("slow.jsonl", 20.0, 180.0)
            quiet = run("--compare", base, same)
            self.assertEqual(quiet.returncode, 0, quiet.stdout)
            self.assertNotIn("BEYOND BOUND", quiet.stdout)
            loud = run("--compare", base, slow)
            self.assertEqual(loud.returncode, 1)
            self.assertEqual(loud.stdout.count("BEYOND BOUND"), 2)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
