#!/usr/bin/env python3
"""Self-test of the benchmark harness on reduced inputs.

    python3 perfbench/selftest.py

Runs every workload briefly on small inputs (a corpus prefix, C10, unions
of order at most 12; the random pool is full size), untraced and traced,
and checks that every metric named in BENCHMARK.json is emitted with its
unit, that each traced workload reports work on the layers it loads, that
corrupted expectations are reported as failures rather than passes, and
that the runner refuses to run without the program next to it. Takes
about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from unittest import mock

import run
import workloads

sys.path.insert(0, str(workloads.SRC))
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics that must be non-zero on each workload: the layers it
# loads. The rest of the per-layer metrics are reported as 0 there.
LOADS = {
    "corpus-verify": ("graph6.lines", "bounds.facts_s", "bounds.check_s",
                      "bounds.checks", "engine.marked_set_calls", "solver.nodes",
                      "solver.states", "solver.cache_info_calls",
                      "solver.graph_p50_ms", "lab.report_write_s",
                      "lab.report_bytes", "cli.self_s"),
    "corpus-scan": ("graph6.lines", "engine.marked_set_calls", "solver.nodes",
                    "solver.states", "solver.cache_info_calls", "cli.self_s"),
    "solve-cycle": ("engine.marked_set_calls", "solver.nodes", "solver.states",
                    "solver.memo_hits", "solver.cache_info_calls",
                    "solver.graph_p99_ms", "cli.self_s"),
    "solve-random": ("graph6.lines", "engine.marked_set_calls", "solver.nodes",
                     "solver.states", "solver.cache_info_calls", "cli.self_s"),
    "strategy-bounds": ("graph6.lines", "engine.marked_set_calls",
                        "solver.cache_info_calls", "strategies.forced_nodes",
                        "strategies.choose_calls", "strategies.choose_s",
                        "strategies.mark_gain_calls", "strategies.simulate_s",
                        "strategies.moves"),
}


def small_run(workload: str, trace: int, seconds: float = 0.5) -> dict:
    args = run.parse_args(["--workload", workload, "--seed", "3", "--seconds",
                           str(seconds), "--trace", str(trace), "--small"])
    result, _ = run.run(args)
    return result


class HarnessTest(unittest.TestCase):
    def assert_metrics(self, result: dict, spec: list[dict]) -> None:
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec})
        for metric in spec:
            emitted = result["metrics"][metric["name"]]
            self.assertEqual(emitted["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(emitted["value"], float, metric["name"])

    def test_every_workload_emits_every_metric(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                plain = small_run(workload, 0)
                self.assertTrue(plain["correct"], plain)
                self.assertEqual(plain["failed"], 0)
                self.assert_metrics(plain, SPEC["end_to_end"])
                for metric in SPEC["end_to_end"]:
                    self.assertGreater(plain["metrics"][metric["name"]]["value"], 0)
                traced = small_run(workload, 1)
                self.assertTrue(traced["correct"], traced)
                self.assert_metrics(traced, SPEC["per_layer"])
                for name in LOADS[workload]:
                    self.assertGreater(traced["metrics"][name]["value"], 0, name)

    def test_corrupted_digest_fails(self):
        pinned = dict(workloads.PINNED_SHA256, **{"corpus.txt": "0" * 64})
        with mock.patch.object(workloads, "PINNED_SHA256", pinned):
            result = small_run("corpus-verify", 0, seconds=0.1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertEqual(result["failed"], result["attempted"])

    def test_wrong_expected_value_fails(self):
        real = workloads.load_expected

        def off_by_one():
            expected = real()
            expected.cycles["C10"] = tuple(v + 1 for v in expected.cycles["C10"])
            first = min(expected.corpus)
            igt, igts, *rest = expected.corpus[first]
            expected.corpus[first] = (igt + 1, igts, *rest)
            return expected

        with mock.patch.object(workloads, "load_expected", off_by_one):
            cycle = small_run("solve-cycle", 0, seconds=0.1)
            scan = small_run("corpus-verify", 0, seconds=2)
        self.assertFalse(cycle["correct"])
        self.assertEqual(cycle["failed"], cycle["attempted"])
        self.assertFalse(scan["correct"])
        self.assertGreaterEqual(scan["failed"], 1)

    def test_refuses_to_run_without_the_program(self):
        bare = workloads.WORK_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(workloads.BENCH_DIR, bare / "perfbench",
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
            shutil.copy(workloads.ROOT / "BENCHMARK.json", bare)
            child = subprocess.run(
                [sys.executable] + SPEC["command"][1:] +
                ["--workload", "corpus-scan", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(child.returncode, 0)
        self.assertNotIn('"correct"', child.stdout)


if __name__ == "__main__":
    unittest.main()
