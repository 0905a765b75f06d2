#!/usr/bin/env python3
"""The benchmark's own test: every workload at smoke size, untraced and
traced, must pass every correctness gate and print exactly the metrics
named in BENCHMARK.json, each with its unit.

    python3 perfbench/test_smoke.py        (from the root of a checkout)
"""

import json
import os
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        code, result, stderr = run(workload, trace)
        self.assertEqual(code, 0, f"{workload} trace={trace} exited {code}:\n{stderr[-2000:]}")
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        spec = SPEC["per_layer" if trace else "end_to_end"]
        want = {m["name"]: m["unit"] for m in spec}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want, f"{workload} trace={trace}: metric names or units differ")
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            if not trace:
                self.assertGreater(m["value"], 0, f"end-to-end metric {name} must not be 0")


# Every workload run.py accepts: the ones BENCHMARK.json measures, and
# `churn`, which stays runnable and gated but is not measured (METRICS.md).
WORKLOADS = ["stabilize", "churn", "keyspace", "kv-tcp"]
assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)

for _w in WORKLOADS:
    for _t in (0, 1):
        setattr(Smoke, f"test_{_w.replace('-', '_')}_trace{_t}",
                lambda self, w=_w, t=_t: self.check(w, t))


if __name__ == "__main__":
    unittest.main(verbosity=2)
