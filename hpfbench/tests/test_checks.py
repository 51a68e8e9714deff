#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 hpfbench/tests/test_checks.py        (from the checkout root)

Every correctness check of every workload is shown to fail: a run with one
deliberate fault injected (--inject) must print its result with
"correct": false and exit 1. Clean runs must be correct, print exactly the
metrics BENCHMARK.json names, and leave no snapshot directory or process
behind. A copy of the benchmark without the library sources must fail
without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "hpfbench" / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = ROOT / ".bench_out"

FAULTS = {
    "remap_loop": ["signature", "elements", "messages"],
    "proc_fused": ["signature", "netstats", "supersteps", "wire"],
    "compile_corpus": ["signature", "levels", "phased"],
    "checkpoint_restore": ["signature", "journal", "torn", "roots",
                           "coverage", "agree"],
}


def bench(workload, trace=0, inject="", seconds=1, cwd=ROOT, env=None):
    command = RUN + ["--workload", workload, "--seed", "3",
                     "--seconds", str(seconds), "--trace", str(trace)]
    if inject:
        command += ["--inject", inject]
    proc = subprocess.run(command, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def leftover_processes():
    """Processes still running the benchmark executable."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().split(b"\0")
        except OSError:
            continue
        if cmdline and cmdline[0].endswith(b"/hpfbench"):
            found.append(int(entry.name))
    return found


class BenchmarkTest(unittest.TestCase):
    def assert_clean(self):
        self.assertEqual([p.name for p in OUT.glob("snap-*")], [])
        self.assertEqual(leftover_processes(), [])

    def test_clean_runs_report_every_metric(self):
        for workload in FAULTS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result, stderr = bench(workload, trace=trace)
                    self.assertEqual(code, 0, stderr)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(
                        list(result["metrics"]),
                        [m["name"] for m in SPEC[key]])
                    if trace == 0:
                        for metric in SPEC["end_to_end"]:
                            self.assertGreater(
                                result["metrics"][metric["name"]]["value"], 0)
                    self.assert_clean()

    def test_every_check_can_fail(self):
        for workload, faults in FAULTS.items():
            for fault in faults:
                with self.subTest(workload=workload, fault=fault):
                    code, result, stderr = bench(workload, inject=fault)
                    self.assertEqual(code, 1, stderr)
                    self.assertIsNotNone(result, stderr)
                    self.assertFalse(result["correct"])
                    self.assertIn("check failed", stderr)
                    self.assert_clean()

    def test_without_sources_fails_without_result(self):
        isolated = OUT / f"isolated-{os.getpid()}"
        shutil.rmtree(isolated, ignore_errors=True)
        try:
            isolated.mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", isolated)
            shutil.copytree(ROOT / "hpfbench", isolated / "hpfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            command = [sys.executable, "hpfbench/run.py", "--workload",
                       "remap_loop", "--seed", "1", "--seconds", "1",
                       "--trace", "0"]
            proc = subprocess.run(command, cwd=isolated, env=env,
                                  capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(isolated, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
