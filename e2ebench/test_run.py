"""Tests of run.py and the benchmark's metric lists. From the repository root:

    python3 -m unittest discover -s e2ebench -p 'test_*.py'

The smoke tests build the workspace (into CARGO_TARGET_DIR, default
.bench_build) and run every workload on tiny graphs in both modes.
"""

import json
import os
import resource
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

ROOT = run.ROOT
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond_even_the_median(self):
        self.assertIsNone(run.tail_percentile(range(19)))
        self.assertEqual(run.tail_percentile(range(20)), (50, 9))

    def test_picks_the_highest_percentile_with_ten_beyond(self):
        self.assertEqual(run.tail_percentile(range(100)), (90, 89))
        self.assertEqual(run.tail_percentile(range(1000)), (99, 989))
        self.assertEqual(run.tail_percentile(list(range(200))[::-1]), (95, 189))

    def test_summary_reports_count_spread_and_tail(self):
        s = run.summarize([4.0, 1.0, 3.0, 2.0, 5.0])
        self.assertEqual((s["median"], s["samples"], s["min"], s["max"]), (3.0, 5, 1.0, 5.0))
        self.assertAlmostEqual(s["iqr_frac"], (4.5 - 1.5) / 3.0)
        self.assertIsNone(s["tail"])
        self.assertEqual(run.summarize(range(40))["tail"], {"percentile": 75, "value": 29})


class Inputs(unittest.TestCase):
    def test_instance_seeds_are_distinct_across_runs(self):
        most = max(w.instances for w in run.WORKLOADS.values())
        seen = set()
        for seed in range(50):
            seeds = run.instance_seeds(seed, most)
            self.assertEqual(seeds, run.instance_seeds(seed, most))
            self.assertFalse(seen & set(seeds))
            seen |= set(seeds)

    def test_benchmark_json_names_every_reported_metric(self):
        self.assertEqual([m["name"] for m in BENCH["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([m["name"] for m in BENCH["per_layer"]], list(run.PER_LAYER))
        for m in BENCH["end_to_end"]:
            self.assertEqual(m["unit"], run.END_TO_END[m["name"]])
        for m in BENCH["per_layer"]:
            self.assertEqual(m["unit"], run.PER_LAYER[m["name"]])
        self.assertEqual(sorted(w["name"] for w in BENCH["workloads"]), sorted(run.WORKLOADS))


class Spawn(unittest.TestCase):
    """Children run through the helper's `spawn`, as every timed one does."""

    @classmethod
    def setUpClass(cls):
        target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
        cls.helper = run.cargo_build(target if target.is_absolute() else ROOT / target)[1]
        cls.work = ROOT / ".bench_out" / f"spawn-{os.getpid()}"
        cls.work.mkdir(parents=True, exist_ok=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def test_peak_rss_is_not_floored_by_the_driver(self):
        # exec folds the spawner's peak RSS into the child's: a trivial
        # child spawned by this Python process reports all of its RSS.
        driver_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        child = run.run_child(self.helper, ["true"], {}, self.work / "true.out")
        self.assertEqual(child["code"], 0)
        self.assertGreater(child["rss_mb"], 0.0)
        self.assertLess(child["rss_mb"], driver_mb / 2, (child["rss_mb"], driver_mb))

    def test_peak_rss_follows_the_child(self):
        child = run.run_child(self.helper, [sys.executable, "-c", "x = bytearray(64 << 20)"],
                              {}, self.work / "big.out")
        self.assertEqual(child["code"], 0)
        self.assertGreater(child["rss_mb"], 64.0)

    def test_exit_code_signal_and_timeout(self):
        child = run.run_child(self.helper, ["sh", "-c", "echo hi >&2; exit 3"], {},
                              self.work / "fail.out")
        self.assertEqual((child["code"], child["timed_out"]), (3, False))
        self.assertEqual(child["stderr"], "hi\n")
        child = run.run_child(self.helper, ["sleep", "5"], {}, self.work / "slow.out",
                              timeout=0.2)
        self.assertEqual((child["code"], child["timed_out"]), (-9, True))
        self.assertLess(child["wall"], 2.0)

    def test_steal_share_is_pooled_over_a_group(self):
        group = [{"wall": 1.0, "stolen": 1, "runnable": 4},
                 {"wall": 2.0, "stolen": 0, "runnable": 1},
                 {"wall": 3.0, "stolen": 0, "runnable": 0}]
        steal, seconds = run.unstolen(group)
        self.assertEqual(steal, 0.2)
        self.assertEqual(seconds, [0.8, 1.6, 3.0 * 0.8])
        self.assertEqual(run.unstolen([{"wall": 1.5, "stolen": 0, "runnable": 0}]),
                         (0.0, [1.5]))


def bench(args, cwd=ROOT, script=None):
    cmd = [sys.executable, str(script or ROOT / "e2ebench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


class Smoke(unittest.TestCase):
    """Every workload on tiny graphs, through the real build and binaries."""

    def check(self, workload, trace, expected):
        proc = bench(["--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", str(trace), "--tiny"])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), expected)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_workload_end_to_end(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 0, list(run.END_TO_END))

    def test_every_workload_traced(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 1, list(run.PER_LAYER))

    def test_fails_without_a_result_outside_a_checkout(self):
        bare = ROOT / ".bench_out" / f"bare-{os.getpid()}"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "e2ebench", bare / "e2ebench",
                        ignore=shutil.ignore_patterns("target", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench(["--workload", "sbm-strong", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=bare, script=bare / "e2ebench" / "run.py")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
