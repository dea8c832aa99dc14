"""Self-tests of the benchmark itself (not of scenemon).

    python3 perfbench/selftest.py

They shrink the dense scene pool and skip the repeated set-up probes so the
whole file runs in well under a minute.
"""
from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from check import Checker  # noqa: E402
from scenemon import default_object_model  # noqa: E402

TINY_POOL = [12, 16, 20]
COUNT_UNITS = ("count/scene", "bytes/scene")


def tiny():
    """Patches that make every workload small and quick."""
    stack = contextlib.ExitStack()
    stack.enter_context(mock.patch.object(workloads, "dense_sizes",
                                          lambda: list(TINY_POOL)))
    stack.enter_context(mock.patch.object(run, "MIN_SCENES", 0))
    stack.enter_context(mock.patch.object(run, "SETUP_PROBES", 1))
    return stack


def bench(workload: str, trace: int, seed: int = 1,
          seconds: float = 0.05) -> tuple[str, dict]:
    out = io.StringIO()
    with tiny(), contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace)])
    if rc != 0:
        raise AssertionError(f"run.main returned {rc}")
    text = out.getvalue()
    return text, json.loads(text.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            for workload in [w["name"] for w in spec["workloads"]]:
                with self.subTest(workload=workload, trace=trace):
                    text, result = bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        expected)
                    for name, unit in expected.items():
                        self.assertRegex(text, rf"{name}\s+\S+ {unit}\n")
                    if trace == 0:
                        self.assertRegex(text, r"failed_ratio\s+0 fraction\n")


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.om = default_object_model()

    def dense_run(self):
        with tiny():
            stream = workloads.dense_stream("dense_witness", 3, self.om)
        return stream, run.run_monitor(stream)

    def test_correct_dense_output_passes(self):
        stream, result = self.dense_run()
        self.assertEqual(result.rc, 1)
        self.assertEqual(Checker(self.om).check(
            stream, result.fed, result.output, result.rc, result.stderr), 0)

    def test_corrupted_verdict_line_fails_its_scene(self):
        stream, result = self.dense_run()
        lines = result.output.splitlines(keepends=True)
        k = len(stream.properties)
        p13 = k + stream.properties.index("P1-3")  # second scene
        p22 = 2 * k + stream.properties.index("P2-2")  # third scene
        corruptions = {
            "result": (p13, '"satisfied"', '"violated"'),
            "witness": (p22, '"ego": "ego"', '"ego": "plant_oncoming"'),
            "timestamp": (p13, '"t": 0.1', '"t": 0.2'),
        }
        for what, (index, old, new) in corruptions.items():
            with self.subTest(what):
                self.assertIn(old, lines[index])
                bad = list(lines)
                bad[index] = bad[index].replace(old, new)
                self.assertEqual(Checker(self.om).check(
                    stream, result.fed, "".join(bad), result.rc,
                    result.stderr), 1)

    def test_missing_verdicts_fail_the_scenes(self):
        stream, result = self.dense_run()
        lines = result.output.splitlines(keepends=True)
        self.assertEqual(Checker(self.om).check(
            stream, result.fed, "".join(lines[:-1]), result.rc,
            result.stderr), result.fed)

    def test_wrong_exit_code_fails_every_scene(self):
        stream, result = self.dense_run()
        for rc in (0, 3, None):
            self.assertEqual(Checker(self.om).check(
                stream, result.fed, result.output, rc, result.stderr),
                result.fed)

    def test_phase_streams(self):
        streams = workloads.phase_streams(5, self.om)
        nominal = next(s for s in streams if s.phases == "P1" and not s.perturbed)
        perturbed = next(s for s in streams if s.phases == "P1" and s.perturbed)
        checker = Checker(self.om)
        for stream, rc in ((nominal, 0), (perturbed, 1)):
            with self.subTest(stream.name):
                result = run.run_monitor(stream)
                self.assertEqual(result.rc, rc)
                args = (stream, result.fed, result.output)
                self.assertEqual(checker.check(*args, rc, result.stderr), 0)
                # verified once, the same bytes are accepted again ...
                self.assertEqual(checker.check(*args, rc, result.stderr), 0)
                # ... but not under a wrong exit code or summary
                self.assertEqual(checker.check(*args, 1 - rc, result.stderr),
                                 result.fed)
                summary = result.stderr.replace("violations=", "violations=1")
                self.assertEqual(checker.check(*args, rc, summary), result.fed)
                bad = result.output.replace('"phase_index": 0}',
                                            '"phase_index": 1}', 1)
                self.assertEqual(checker.check(
                    stream, result.fed, bad, rc, result.stderr), 1)
                # scenes the monitor never got to count as failed
                k = len(stream.properties)
                head = "".join(result.output.splitlines(keepends=True)[:10 * k])
                self.assertEqual(checker.check(stream, 10, head, rc, result.stderr),
                                 len(stream.scenes) - 10)


class TraceTest(unittest.TestCase):
    def test_counts_repeat_for_one_seed(self):
        """Per-scene counts repeat, also when the runs fit different numbers
        of passes into their time."""
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        for workload in [w["name"] for w in spec["workloads"]]:
            with self.subTest(workload=workload):
                first_text, first = bench(workload, 1, seed=7)
                second_text, second = bench(workload, 1, seed=7, seconds=3.0)
                passes = [re.search(r"invocations (\d+)", text).group(1)
                          for text in (first_text, second_text)]
                self.assertNotEqual(passes[0], passes[1])
                counts = {name: m["value"] for name, m in first["metrics"].items()
                          if m["unit"] in COUNT_UNITS}
                self.assertIn("matching.embeddings", counts)
                self.assertEqual(counts, {
                    name: second["metrics"][name]["value"] for name in counts})


if __name__ == "__main__":
    unittest.main()
