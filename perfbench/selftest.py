"""Tests of the benchmark itself (not of the library).

    python3 perfbench/selftest.py

Named so that the repository's pytest run does not collect it.
"""

import json
import math
import os
import subprocess
import sys
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import layertrace  # noqa: E402
import workloads  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_span_tree(self):
        # 0: [0, 10] layer 0
        #   1: [1, 4] layer 1
        #     2: [2, 3] layer 2
        #   3: [5, 9] layer 1
        # 4: [12, 13] layer 2   (second root)
        parents = [-1, 0, 1, 0, -1]
        layers = [0, 1, 2, 1, 2]
        starts = [0.0, 1.0, 2.0, 5.0, 12.0]
        ends = [10.0, 4.0, 3.0, 9.0, 13.0]
        selfs, roots = layertrace.self_times(parents, layers, starts, ends, 3)
        self.assertEqual(selfs, [3.0, 6.0, 2.0])
        self.assertEqual(roots, 11.0)
        self.assertEqual(sum(selfs), roots)

    def test_install_counts_and_restores(self):
        from splithopf import gaugegeom, hopfmaps, reporting, ringmat, splitnum
        orig_scale = ringmat.RMatrix.scale
        orig_comm = gaugegeom.commutator
        orig_suite = reporting.SUITES["algebra"]
        tracer = layertrace.Tracer((splitnum, ringmat, hopfmaps, gaugegeom, reporting))
        tracer.install()
        try:
            self.assertIsNot(gaugegeom.commutator, orig_comm)
            self.assertIsNot(reporting.SUITES["algebra"], orig_suite)
            m = ringmat.RMatrix.identity(2, ringmat.RING_REAL)
            gaugegeom.commutator(m.scale(2), m)
        finally:
            tracer.uninstall()
        self.assertIs(ringmat.RMatrix.scale, orig_scale)
        self.assertIs(gaugegeom.commutator, orig_comm)
        self.assertIs(reporting.SUITES["algebra"], orig_suite)
        got = tracer.metrics(1.0, 1.0)
        self.assertEqual(got["ringmat.scale.calls"][0], 1)
        self.assertEqual(got["ringmat.commutator.calls"][0], 1)
        self.assertEqual(got["ringmat.matmul.calls"][0], 2)


class GateTest(unittest.TestCase):
    def test_verify_gate_trips_on_injected_fault(self):
        result = workloads.Workload("verify-core", 0, corrupt=True).run_pass()
        self.assertIn("differs from the seed commit", result.detail)
        # algebra gains one unexpected failing check; gamma fails clifford-so32_I
        self.assertEqual(result.failed, 2)
        self.assertGreater(result.failed / result.attempted, 0)

    def test_verify_gate_trips_on_gauge_check(self):
        # run_suite("gauge", corrupt=True) changes no gauge check, so the gauge
        # list is tripped directly: one expected check reported as failing.
        ids = workloads.EXPECTED_CHECKS["gauge"]
        checks = [types.SimpleNamespace(id=cid, passed=True) for cid in ids]
        self.assertEqual(workloads.verify_gate("gauge", checks), (0, ""))
        checks[5].passed = False
        failed, detail = workloads.verify_gate("gauge", checks)
        self.assertEqual(failed, 1)
        self.assertIn("gauge", detail)
        self.assertEqual(workloads.verify_gate("gauge", checks[1:])[0], 2)

    def test_field_spot_check_rejects_perturbed_row(self):
        spec = {"level": 2, "realization": "I", "format": "json", "nodes": 4,
                "grid": "x1=0.1:0.3:2,x2=-0.2:0.2:2"}
        result, outputs = workloads.run_field([spec])
        self.assertEqual((result.failed, result.rows), (0, 4))
        self.assertEqual(workloads.field_residual_check([spec], outputs, 0, per_grid=4),
                         (4, 0, ""))
        outputs[0][2][-1] += 1e-3
        checked, failed, detail = workloads.field_residual_check([spec], outputs, 0,
                                                                 per_grid=4)
        self.assertEqual((checked, failed), (4, 1))
        self.assertIn("differ from field_components", detail)

    def test_field_gate_rejects_non_finite_row(self):
        spec = workloads.field_grid_specs(0)[0]
        skipped = workloads.expected_skipped(spec)
        columns = ["a", "b"]
        rows = [[1.0, 2.0] for _ in range(spec["nodes"] - skipped)]
        self.assertEqual(workloads.field_gate(spec, columns, rows, skipped)[0], 0)
        text = "a,b\n" + "".join("%s,2\n" % ("nan" if i == 3 else "1")
                                 for i in range(len(rows))) + "# skipped=%d\n" % skipped
        _, parsed, n_skip = workloads.parse_field_output("csv", text)
        bad, detail = workloads.field_gate(spec, columns, parsed, n_skip)
        self.assertEqual(bad, 1)
        self.assertIn("non-finite", detail)
        self.assertTrue(math.isnan(parsed[3][0]))

    def test_field_gate_rejects_wrong_skip_count(self):
        spec = workloads.field_grid_specs(0)[0]
        rows = [[1.0] for _ in range(spec["nodes"])]
        self.assertEqual(workloads.field_gate(spec, ["a"], rows, 0)[0], spec["nodes"])


class SmokeTest(unittest.TestCase):
    def test_prints_every_metric_with_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "verify-core",
             "--seed", "3", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec["end_to_end"]})
        for m in spec["end_to_end"]:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            self.assertGreater(result["metrics"][m["name"]]["value"], 0)
        printed = {tuple(line.split()[:1] + line.split()[2:3]) for line in lines[1:-1]}
        unlisted = json.loads(lines[-2][len("unlisted "):])
        for name, unit in (("setup_s", "s"), ("wall_ref", "ref"), ("peak_rss_mb", "MB"),
                           ("wall_s", "s"), ("setup_raw_s", "s"),
                           ("ops_failed_ratio", "ratio"), ("max_residual_ratio", "ratio")):
            self.assertIn((name, unit), printed)
        self.assertEqual(unlisted["wall_s"]["unit"], "s")
        self.assertEqual(unlisted["ops_failed_ratio"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
