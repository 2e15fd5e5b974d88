"""Self-tests of the repository benchmark.

    python3 -m unittest discover -s perfbench/tests

Each test runs perfbench/run.py on tiny inputs (--scale), so the first test
builds the program and the benchmark into .bench_build/ (about a minute).
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
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Tiny but complete inputs: each still runs every gate (the sharded
# workload needs enough slots for the elastic controller to lend).
SCALE = {"serve-ring-oi": 0.03, "engine-harmonic-1024": 0.05,
         "serve-sharded-hybrid": 0.2}


def run(workload, trace=0, inject=None, seed=7, cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace),
           "--scale", str(SCALE[workload])]
    if inject:
        cmd += ["--inject", inject]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsPrinted(unittest.TestCase):
    """Every named metric is printed, with its unit, on every workload."""

    def check(self, workload, trace, spec_key):
        proc = run(workload, trace=trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        res = result(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        printed = {k: v["unit"] for k, v in res["metrics"].items()}
        self.assertEqual(printed, expected)
        for name, value in res["metrics"].items():
            self.assertIsInstance(value["value"], (int, float), name)
        return res

    def test_end_to_end(self):
        for w in SCALE:
            with self.subTest(workload=w):
                self.check(w, 0, "end_to_end")

    def test_per_layer(self):
        for w in SCALE:
            with self.subTest(workload=w):
                res = self.check(w, 1, "per_layer")
                m = res["metrics"]
                self.assertGreater(m["engine.dispatched"]["value"], 0)
                if w == "serve-ring-oi":
                    self.assertGreater(m["net.frames"]["value"], 0)
                if w == "serve-sharded-hybrid":
                    self.assertGreater(m["cluster.elastic.loans"]["value"], 0)


class GatesFail(unittest.TestCase):
    """An injected bad output makes the matching gate fail the run."""

    def test_corrupted_frame(self):
        proc = run("serve-ring-oi", inject="corrupt-frame")
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result(proc)["correct"])
        self.assertIn("ring delivery not lossless", proc.stderr)

    def test_digest_mismatch(self):
        for w in SCALE:
            with self.subTest(workload=w):
                proc = run(w, inject="digest-mismatch")
                self.assertNotEqual(proc.returncode, 0)
                self.assertFalse(result(proc)["correct"])
                self.assertIn("digest differs", proc.stderr)


class WithoutProgram(unittest.TestCase):
    """With only the benchmark present, the run fails without a result."""

    def test_no_program(self):
        scratch = os.path.join(ROOT, ".bench_build", "tests")
        os.makedirs(scratch, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(tmp, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            cmd = SPEC["command"] + ["--workload", "serve-ring-oi", "--seed", "1",
                                     "--seconds", "1", "--trace", "0"]
            proc = subprocess.run(cmd, cwd=tmp, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
