"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload it makes one untraced and two traced smoke runs and
checks that each prints every metric of BENCHMARK.json with its unit, that
no operation fails (so fail_frac is 0, and in traced runs the span self
times add up to each operation's wall time), and that the traced work
counts repeat exactly.  It also checks that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SelfTest(unittest.TestCase):
    def assert_metrics(self, result: dict, specs: list) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertIs(result["correct"], True)
        got = result["metrics"]
        self.assertEqual(set(got), {m["name"] for m in specs})
        for m in specs:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])

    def test_workloads_match_benchmark_json(self):
        self.assertEqual({w["name"] for w in BENCHMARK["workloads"]}, set(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}, spans.UNITS)

    def test_smoke_runs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assert_metrics(result_of(smoke(name, 0)), BENCHMARK["end_to_end"])
                first, second = (result_of(smoke(name, 1)) for _ in range(2))
                for result in (first, second):
                    self.assert_metrics(result, BENCHMARK["per_layer"])
                for metric in spans.EXACT:
                    self.assertEqual(first["metrics"][metric]["value"],
                                     second["metrics"][metric]["value"], metric)

    def test_refuses_without_sources(self):
        bare = Path(tempfile.mkdtemp(dir=BENCH_DIR / "out"))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH_DIR, bare / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = smoke("kernel-scan", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    unittest.main()
