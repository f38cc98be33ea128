#!/usr/bin/env python3
"""The benchmark's own tests, on the small problem sizes.

    python3 jobbench/test_jobbench.py

Builds the jobbench program through run.py (as a benchmark run would), then checks
that every workload passes its output checks, that a corrupted verdict is
counted as failed, that the metric names match BENCHMARK.json, and that the
benchmark refuses to run without the library sources.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ring-check", "ring-fair-native", "ring-campaign", "ring-containment"]


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m for m in json.load(f)[kind]}


def run(*args, cwd=ROOT):
    script = os.path.join(cwd, os.path.basename(HERE), "run.py")
    return subprocess.run([sys.executable, script] + list(args), cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result(*args):
    proc = run(*args)
    if proc.returncode != 0:
        raise AssertionError("run.py %s failed:\n%s" % (" ".join(args), proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmallWorkloads(unittest.TestCase):
    def test_every_workload_passes_its_checks(self):
        names = declared("end_to_end")
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = result("--workload", w, "--seed", "3", "--seconds", "0.3",
                           "--trace", "0", "--small")
                self.assertEqual(sorted(r), ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(set(r["metrics"]), set(names))
                for name, m in r["metrics"].items():
                    self.assertEqual(m["unit"], names[name]["unit"])
                    self.assertGreater(m["value"], 0, name)

    def test_corrupted_verdict_is_counted_as_failed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = result("--workload", w, "--seed", "3", "--seconds", "0.1",
                           "--trace", "0", "--small", "--corrupt-verdict")
                self.assertFalse(r["correct"])
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(r["failed"], r["attempted"])

    def test_traced_run_emits_every_layer_metric_and_a_chrome_trace(self):
        r = result("--workload", "ring-check", "--seed", "4", "--trace", "1", "--small")
        self.assertTrue(r["correct"])
        names = declared("per_layer")
        self.assertEqual(set(r["metrics"]), set(names))
        for name, m in r["metrics"].items():
            self.assertEqual(m["unit"], names[name]["unit"])
        build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        trace_file = os.path.join(build, "jobbench-out", "trace-s4.json")
        with open(trace_file) as f:
            trace = json.load(f)
        spans = trace["traceEvents"]
        jobs = {e["args"]["job"] for e in spans if e["name"].startswith("bench.")}
        self.assertEqual(len(jobs), len(WORKLOADS))
        for e in spans:
            self.assertLess(e["args"]["parent"], e["args"]["id"])
        self.assertEqual(trace["otherData"]["sanitizer"], "none")

    def test_refuses_to_run_without_the_library_sources(self):
        scratch = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "jobbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("--workload", "ring-check", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
