#!/usr/bin/env python3
"""The benchmark's own test: every workload (the gated ones and
map-reads), traced and untraced, in smoke mode, must print a correct
result line with every metric that BENCHMARK.json names; compare.py
must refuse mismatched environments.

    python3 perfbench/test_smoke.py

Builds the programs on first use (several minutes), then runs in about
a minute.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(workload, trace, out=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    if out:
        cmd += ["--out", out]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=1200)
    return p.returncode, p.stdout, p.stderr


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, workload, trace):
        code, out, err = bench(workload, trace)
        self.assertEqual(code, 0, err)
        res = json.loads(out.strip().splitlines()[-1])
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        want = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(res["metrics"]), {m["name"] for m in want})
        for m in want:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])
        if not trace:
            for name, v in res["metrics"].items():
                self.assertGreater(v["value"], 0, name)

    def test_workloads(self):
        # map-reads runs and checks like the gated workloads.
        names = [w["name"] for w in self.spec["workloads"]] + ["map-reads"]
        for name in names:
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    self.check(name, trace)

    def test_compare_refuses_other_isa(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            a, b = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
            code, _, err = bench("align-batch", 0, a)
            self.assertEqual(code, 0, err)
            with open(a) as f:
                doc = json.load(f)
            compare = [sys.executable, os.path.join(HERE, "compare.py"), a, b]
            doc["env"]["isa_tier"] = "scalar" if doc["env"]["isa_tier"] != "scalar" else "sse2"
            with open(b, "w") as f:
                json.dump(doc, f)
            self.assertEqual(subprocess.run(compare, capture_output=True).returncode, 2)
            with open(a) as f:
                doc = json.load(f)
            with open(b, "w") as f:
                json.dump(doc, f)
            self.assertEqual(subprocess.run(compare, capture_output=True).returncode, 0)


if __name__ == "__main__":
    unittest.main()
