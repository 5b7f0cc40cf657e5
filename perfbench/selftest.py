"""Self-test of the benchmark itself, on tiny inputs.

    python3 perfbench/selftest.py

Run it from the root of a source checkout; it takes about fifteen seconds.
"""
from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import run

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY_SCAN = (("scan", "--m", "1", "--n", "2", "--format", "csv"),
             "1abce9b6d780ab3fb9acdd9197829845755656e5b2851954f8f0e10524b835ed")
TINY = {
    "scan-paper": run.Workload((TINY_SCAN,), "pairs", run.check_scan),
    "scan-wide": run.Workload(
        ((("scan", "--m", "2", "--n", "1..3", "--all-pairs", "--format", "csv"),
          "f8a9817e297d35f845cba680a196b33a00e454ba1e63c097df847cd14b36f670"),),
        "pairs",
        run.check_scan,
    ),
    "sample-face": run.Workload(
        ((("sample-face", "-m", "1", "-n", "2", "--resolution", "6", "--format", "csv"),
          "ed08ab98a9a8f564d32c416a1263fa54c461e191e62cd613d1e42a3add3f8d4c"),),
        "lattice points",
        run.check_face,
    ),
    # verify has no size argument; check_verify is tested on made-up reports
    "verify-deep": run.Workload((TINY_SCAN,), "pairs", run.check_scan),
}

SCAN_OK = run.SCAN_HEADER + "\n1,2,-15/8,45/8,-2304,false,true,true\n2,2,-45/8,45/4,0,true,true,false\n"


def bench(workload: str, trace: int, workloads: dict = TINY) -> tuple[int, dict]:
    out = io.StringIO()
    with mock.patch.dict(run.WORKLOADS, workloads), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)])
    return code, json.loads(out.getvalue().splitlines()[-1])


class SpecTest(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_spec_names_the_benchmark(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(run.WORKLOADS))
        self.assertEqual({m["name"] for m in SPEC["per_layer"]}, set(run.PER_LAYER + run.TRACE_METRICS))


class EmitTest(unittest.TestCase):
    def test_every_workload_emits_every_metric(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            units = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in (w["name"] for w in SPEC["workloads"]):
                with self.subTest(workload=workload, trace=trace):
                    code, result = bench(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual({k: m["unit"] for k, m in result["metrics"].items()}, units)
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))

    def test_corrupted_digest_is_a_failure(self):
        corrupted = {"scan-paper": run.Workload(((TINY_SCAN[0], "0" * 64),), "pairs", run.check_scan)}
        for trace in (0, 1):
            with self.subTest(trace=trace):
                code, result = bench("scan-paper", trace, corrupted)
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])

    def test_checkout_without_sources_is_refused(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(run.ROOT / "perfbench", Path(tmp) / "perfbench")
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "scan-paper", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class VerdictTest(unittest.TestCase):
    def test_scan_verdicts(self):
        self.assertEqual(run.check_scan(SCAN_OK), (2, []))
        no_change = SCAN_OK.replace("-2304,false,true,true", "-2304,false,false,true")
        self.assertTrue(run.check_scan(no_change)[1])
        not_ke = SCAN_OK.replace("0,true,true,false", "0,false,true,false")
        self.assertTrue(run.check_scan(not_ke)[1])

    def test_face_rows(self):
        ok = run.FACE_HEADER + "\n1/3,1/2,1/6,positive,inside\n"
        self.assertEqual(run.check_face(ok), (1, []))
        self.assertTrue(run.check_face(ok.replace("positive", "up"))[1])

    def test_verify_failures(self):
        ok = {"results": [{"check": "a", "pass": True}], "failures": 0}
        self.assertEqual(run.check_verify(json.dumps(ok)), (1, []))
        failing = {"results": [{"check": "a", "pass": False}], "failures": 1}
        self.assertTrue(run.check_verify(json.dumps(failing))[1])
        self.assertTrue(run.check_verify("not json")[1])


if __name__ == "__main__":
    unittest.main()
