"""The benchmark's own tests: generator determinism, the metric contract of
BENCHMARK.json, a tiny smoke pass of every workload, and the refusal to
run without the swperf sources.

    python3 -m unittest discover -s swbench/tests -v

Run from the repository root; the first test builds swbench (about a
minute on 4 cores) into $CARGO_TARGET_DIR/swbench.
"""
import collections
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SWBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(SWBENCH)
sys.path.insert(0, SWBENCH)
import run  # noqa: E402  (swbench/run.py)

WORKLOADS = ("eval_cold", "eval_hot", "campaign")
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SwbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.ensure_built()

    def requests(self, workload, seed, rounds=1):
        out = subprocess.run(
            [self.binary, "--workload", workload, "--seed", str(seed),
             "--print-requests", "--rounds", str(rounds)],
            capture_output=True, text=True, check=True)
        return out.stdout.splitlines()

    def measure(self, workload, trace):
        out = subprocess.run(
            [sys.executable, os.path.join(SWBENCH, "run.py"), "--workload",
             workload, "--seed", "7", "--seconds", "1", "--trace",
             str(trace), "--tiny"],
            capture_output=True, text=True, cwd=ROOT)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        return out.stdout, json.loads(out.stdout.strip().splitlines()[-1])

    # ---- generator ---------------------------------------------------------

    def test_same_seed_same_requests(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.requests(workload, 11, 2),
                                 self.requests(workload, 11, 2))

    def test_seeds_differ_with_equal_per_kernel_counts(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a = [json.loads(l) for l in self.requests(workload, 1, 2)]
                b = [json.loads(l) for l in self.requests(workload, 2, 2)]
                self.assertNotEqual(a, b)

                def counts(lines):
                    per_kernel = collections.Counter()
                    per_octave = collections.Counter()
                    for r in lines:
                        if "kernel" in r:
                            per_kernel[r["kernel"]] += 1
                            if "params" in r and workload == "eval_cold":
                                tile = r["params"]["tile"]
                                per_octave[(r["kernel"],
                                            tile.bit_length())] += 1
                    return per_kernel, per_octave

                self.assertEqual(counts(a), counts(b))
                self.assertEqual(len(set(counts(a)[0].values())), 1)

    def test_eval_cold_requests_are_distinct_within_a_round(self):
        lines = [json.loads(l) for l in self.requests("eval_cold", 3)]
        evals = [json.dumps([r["kernel"], r["params"], r["arch"]])
                 for r in lines if "kernel" in r]
        self.assertEqual(len(evals), len(set(evals)))
        self.assertTrue(any("chip" in r for r in lines))
        self.assertTrue(any("explain" in r.get("stages", []) for r in lines))

    # ---- metric contract and smoke -----------------------------------------

    def test_every_declared_metric_is_printed_with_its_unit(self):
        declared = spec()
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in declared[section]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    stdout, result = self.measure(workload, trace)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, unit in want.items():
                        self.assertRegex(name, NAME)
                        self.assertRegex(stdout, rf"(?m)^\s+{re.escape(name)}"
                                                 rf"\s+\S+ {re.escape(unit)}$")
                        value = result["metrics"][name]["value"]
                        self.assertTrue(math.isfinite(value), name)
                        if not trace:  # end-to-end metrics are never 0
                            self.assertGreater(value, 0, name)
                    if trace:
                        self.assertIn("reconciliation:", stdout)
                        path = os.path.join(run.build_dir(),
                                            f"trace-{workload}-7.json")
                        with open(path) as f:
                            self.assertTrue(json.load(f)["traceEvents"])

    # ---- contract: no result without the sources ---------------------------

    def test_fails_without_the_swperf_sources(self):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(SWBENCH, os.path.join(tmp, "swbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "swbench/run.py", "--workload", "eval_hot",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=tmp, timeout=180,
                env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
