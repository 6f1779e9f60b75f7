"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It takes about a minute:

- every workload at `--smoke` size, untraced and traced, must print every
  metric that BENCHMARK.json names, with its unit, and report all its
  operations correct.  A traced run is only correct when its two traced
  passes give identical exact counters and the spans' self times sum to the
  traced wall time within 5% (both checked by tracer.py);
- one command from each workload must print byte-identical stdout under two
  different PYTHONHASHSEED values;
- the metric lists of BENCHMARK.json, run.py and tracer.py must agree.

The file name keeps it out of pytest's default collection: it belongs to the
benchmark, not to rdtm's test suite.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _result(workload: str, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def _check(self, trace: int, section: str):
        for workload in workloads.WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                result = _result(workload, trace)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                expected = {m["name"]: m["unit"] for m in SPEC[section]}
                printed = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(printed, expected)
                for name, metric in result["metrics"].items():
                    self.assertIsInstance(metric["value"], (int, float), name)

    def test_untraced_smoke(self):
        self._check(0, "end_to_end")

    def test_traced_smoke(self):
        self._check(1, "per_layer")


class DeterminismTest(unittest.TestCase):
    def test_stdout_does_not_depend_on_hash_seed(self):
        for workload in workloads.WORKLOAD_NAMES:
            command = workloads.commands(workload, 3, smoke=True)[0]
            outputs = []
            for hash_seed in ("1", "2"):
                env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
                proc = subprocess.run([sys.executable, "-m", "rdtm.cli", *command.argv], cwd=ROOT,
                                      env=env, capture_output=True, timeout=170)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                outputs.append(proc.stdout)
            with self.subTest(command=" ".join(command.argv)):
                self.assertTrue(outputs[0])
                self.assertEqual(outputs[0], outputs[1])


class SpecTest(unittest.TestCase):
    def test_metric_lists_agree(self):
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["per_layer"]], list(tracer.PER_LAYER_METRICS))
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOAD_NAMES))


if __name__ == "__main__":
    unittest.main()
