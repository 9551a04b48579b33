"""Self-tests of the benchmark on tiny inputs (about a minute).

usage: python3 perfbench/selftest.py

Runs all four workloads at tiny size, traced and untraced, and checks that
answers pass, that a planted wrong answer counts as failed, that spans
appear for calls made through re-bound names, that self times never exceed
wall time, that counts repeat exactly, and that the benchmark refuses to
run where there is no program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run
import workloads

SEED = 3


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        os.chdir(run.ROOT)
        self.workdir = run.ROOT / ".perfbench" / f"selftest-{os.getpid()}"
        self.workdir.mkdir(parents=True)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def execute(self, workload, trace=False, plant=None):
        sub = self.workdir / f"{workload}-{trace}-{len(list(self.workdir.iterdir()))}"
        sub.mkdir()
        return run.execute(workload, SEED, 0, trace, sub, tiny=True, plant=plant)

    @staticmethod
    def spans(result):
        """Spans of every traced process, each with its parent's name."""
        out = []
        for path in result["spans_files"]:
            spans = json.loads(Path(path).read_text())["spans"]
            names = {span[0]: span[1] for span in spans}   # span ids are per process
            out += [(*span, names.get(span[4])) for span in spans]
        return out

    def test_tiny_runs_pass_and_report_every_metric(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                result = self.execute(workload)
                self.assertEqual(result["failed"], 0, result["failures"])
                self.assertEqual(set(result["metrics"]), set(run.END_TO_END_UNITS))
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                    self.assertEqual(metric["unit"], run.END_TO_END_UNITS[name])

    def test_planted_wrong_answer_counts_as_failed(self):
        def plant(requests):
            expect = requests[0]["expect"]
            key = next(k for k, v in expect.items() if isinstance(v, int)
                       and not isinstance(v, bool))
            expect[key] += 1

        for workload in ("degrees", "sweep"):
            with self.subTest(workload=workload):
                result = self.execute(workload, plant=plant)
                self.assertEqual(result["failed"], 1)
                self.assertEqual(result["failures"][0][0], 0)
                self.assertGreater(result["failed_frac"], 0)

    def test_traced_runs(self):
        # Calls that only a re-bound name can see: (callee, caller) pairs.
        through = {
            "degrees": [("matroids.restrict", "invariants.tutte"),
                        ("linalg.restrict_subspace", "matroids.restrict"),
                        ("invariants.tutte", "mldegree.score_count")],
            "verify": [("matroids.flats", "mldegree.verify_stratification")],
            "oracle": [("mldegree.score_count", "solver.oracle_score_count"),
                       ("solver.buchberger", "solver.oracle_score_count")],
            "sweep": [("mldegree.rmld", "sweep.request"),
                      ("matroids.contract_set", "mldegree.score_count_dc")],
        }
        zero = {"degrees": ("matroids.flats", "solver."), "oracle": ("matroids.flats",),
                "verify": ("solver.",), "sweep": ("solver.",)}
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                result = self.execute(workload, trace=True)
                self.assertEqual(result["failed"], 0, result["failures"])
                spans = self.spans(result)
                pairs = {(span[1], span[7]) for span in spans}
                for pair in through[workload]:
                    self.assertIn(pair, pairs)
                walls = {r["id"]: r["s"] for r in result["records"][len(result["records"]) // 2:]}
                own: dict = {}
                for _, _, start, end, _, request, self_s, _ in spans:
                    self.assertGreaterEqual(self_s, -1e-9)
                    self.assertLessEqual(self_s, end - start + 1e-9)
                    own[request] = own.get(request, 0.0) + self_s
                for request, total in own.items():
                    if request is not None:
                        self.assertLessEqual(total, walls[request])
                for name, metric in result["metrics"].items():
                    if name.startswith(zero[workload]):
                        self.assertEqual(metric["value"], 0, name)

    def test_counts_repeat_and_cli_requests_start_fresh(self):
        def repeat_invariants(requests):
            requests.append(dict(requests[2], id=len(requests)))

        first = self.execute("degrees", trace=True, plant=repeat_invariants)
        second = self.execute("degrees", trace=True, plant=repeat_invariants)
        for name, metric in first["metrics"].items():
            if metric["unit"] == "count":
                self.assertEqual(metric["value"], second["metrics"][name]["value"], name)
        files = [Path(p) for p in first["spans_files"]]
        misses = [json.loads(files[k].read_text())["counters"]["invariants.tutte.misses"]
                  for k in (2, len(files) - 1)]
        self.assertEqual(misses[0], misses[1])
        self.assertGreater(misses[0], 0)

    def test_refuses_to_run_without_the_program(self):
        bare = self.workdir / "bare"
        shutil.copytree(run.BENCH, bare / run.BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(bare / run.BENCH.name / "run.py"), "--workload", "degrees",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
