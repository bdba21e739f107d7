#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 peerbench/test_bench.py

A tiny-size pass of every workload through the same code path as the
real runs, traced and untraced: every metric BENCHMARK.json names is
printed with its unit, the result line has exactly the contract's keys,
and a deliberately wrong expectation trips the correctness check. A
copy of the benchmark without the repository's sources must fail
before printing a result. The crate's own unit tests run too.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["serve-attack", "dfz-churn", "scale-chaos"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, *extra, cwd=ROOT, env=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=600)


def result(p):
    return json.loads(p.stdout.strip().splitlines()[-1])


class TinyPass(unittest.TestCase):
    def check_metrics(self, workload, trace, declared):
        p = run(workload, trace)
        self.assertEqual(p.returncode, 0, p.stdout[-3000:] + p.stderr[-3000:])
        r = result(p)
        self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(r["correct"], True)
        self.assertIsInstance(r["attempted"], int)
        self.assertIsInstance(r["failed"], int)
        self.assertGreaterEqual(r["attempted"], 1)
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in r["metrics"].items()}
        self.assertEqual(got, want, f"{workload} trace={trace}")
        for name, v in r["metrics"].items():
            self.assertEqual(set(v), {"value", "unit"})
            self.assertTrue(math.isfinite(v["value"]), f"{workload} {name} = {v['value']}")
        # The run record carries the host metadata.
        record = [l for l in p.stdout.splitlines() if l.startswith("record ")]
        self.assertEqual(len(record), 1)
        meta = json.loads(record[0][len("record "):])
        for key in ["nproc", "rustc", "rev", "seed", "digest"]:
            self.assertIn(key, meta)
        self.assertEqual(meta["seed"], "7")
        return r

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = self.check_metrics(w, 0, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(r["metrics"][m["name"]]["value"], 0, m["name"])

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_metrics(w, 1, SPEC["per_layer"])

    def test_wrong_expectation_fails(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                p = run(w, 0, "--wrong-expectation")
                self.assertEqual(p.returncode, 1, p.stdout[-2000:] + p.stderr[-2000:])
                self.assertIs(result(p)["correct"], False)
                self.assertIn(" FAIL ", p.stdout)


class CrateTests(unittest.TestCase):
    def test_crate_unit_tests(self):
        # Includes the known-defect marker: a should-panic test on the
        # NLRI decoder (README, "Known defect").
        env = dict(os.environ)
        env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
        p = subprocess.run(
            ["cargo", "test", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
        self.assertEqual(p.returncode, 0, p.stdout[-2000:] + p.stderr[-2000:])


class Standalone(unittest.TestCase):
    def test_without_sources_fails_before_a_result(self):
        standalone = os.path.join(ROOT, ".bench_out", "standalone")
        shutil.rmtree(standalone, ignore_errors=True)
        os.makedirs(standalone)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), standalone)
            shutil.copytree(HERE, os.path.join(standalone, "peerbench"),
                            ignore=shutil.ignore_patterns("__pycache__", "target"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(standalone, ".bench_build"))
            p = subprocess.run(
                [sys.executable, "peerbench/run.py", "--workload", "serve-attack",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=standalone, env=env, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(standalone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
