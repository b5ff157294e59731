"""Reduced-size self-test of the benchmark.

Run from the root of a checkout:  python3 perfbench/selftest.py

Checks that every end-to-end and per-layer metric in BENCHMARK.json is
emitted with its unit on every workload, that module self times add up to
the traced round, that a wrong expected value is counted as a failure with
its message kept, and that the benchmark refuses to run without the package
source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import tracing
import workloads
from run import import_package

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--size", "reduced"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=600)


class MetricsEmitted(unittest.TestCase):
    """Every metric named in BENCHMARK.json, with its unit, per workload."""

    def check_result(self, workload, trace, wanted):
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        units = {m["name"]: m["unit"] for m in wanted}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
            self.assertNotIsInstance(metric["value"], bool, name)
        return result["metrics"]

    def test_end_to_end(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self.check_result(w["name"], 0, SPEC["end_to_end"])
                for name, metric in metrics.items():
                    self.assertGreater(metric["value"], 0, name)

    def test_per_layer(self):
        busy = {
            "repro-default": ("repro.self_s", "spectral.lambda_max_calls",
                              "macaulay.charpoly_calls"),
            "exact-dense": ("macaulay.kernel_calls", "macaulay.prime_yield",
                            "polynomials.roots_calls",
                            "traces.coefficients_calls",
                            "spectral.lambda_max_calls"),
            "numeric-large": ("spectral.lambda_max_iterations",
                              "spectral.color_s", "hypergraphs.degrees_s"),
            "numeric-small": ("spectral.lambda_max_iterations",
                              "spectral.verify_s", "hypergraphs.construct_s"),
        }
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self.check_result(w["name"], 1, SPEC["per_layer"])
                values = {k: v["value"] for k, v in metrics.items()}
                for name in busy[w["name"]]:
                    self.assertGreater(values[name], 0, name)
                parts = (sum(values[f"{m}.self_s"] for m in tracing.MODULES)
                         + values["bench.check_s"] + values["bench.glue_s"])
                self.assertAlmostEqual(parts, values["trace.wall_s"],
                                       places=6)


class FailuresCounted(unittest.TestCase):
    """A deliberately wrong expected value fails its operation."""

    @classmethod
    def setUpClass(cls):
        cls.hs, cls.repro = import_package()

    def run_with(self, workload, **replace):
        inputs = workload.construct(self.hs, workload.generate(1))[:1]
        api = workloads.Api(self.hs, self.repro)
        for name, fn in replace.items():
            setattr(api, name, fn)
        outcomes, _ = workload.run_round(api, inputs)
        self.assertEqual(len(outcomes), 1)
        return outcomes[0]

    def test_untouched_operation_passes(self):
        out = self.run_with(workloads.NumericSmall(reduced=True))
        self.assertFalse(out.failed, out.messages())

    def test_wrong_trace_coefficient(self):
        real = self.hs.coefficients_via_traces

        def off_by_one(h, depth):
            coeffs = real(h, depth)
            coeffs[3] += 1
            return coeffs

        out = self.run_with(workloads.ExactDense(reduced=True),
                            coefficients_via_traces=off_by_one)
        self.assertTrue(out.failed)
        self.assertTrue(any("trace coefficients" in m
                            for m in out.messages()), out.messages())

    def test_wrong_lambda_max(self):
        real = self.hs.lambda_max

        def shifted(h):
            rep = real(h)
            rep.value += 0.5
            return rep

        out = self.run_with(workloads.NumericSmall(reduced=True),
                            lambda_max=shifted)
        self.assertTrue(out.failed)
        self.assertTrue(any("verify_eigenpair residual" in m
                            for m in out.messages()), out.messages())

    def test_raised_error_fails_operation(self):
        def broken(h):
            raise ArithmeticError("deliberate")

        out = self.run_with(workloads.NumericSmall(reduced=True),
                            lambda_max=broken)
        self.assertEqual(out.raised, ["ArithmeticError: deliberate"])


class NoSource(unittest.TestCase):
    """Without src/ the benchmark exits non-zero and prints no result."""

    def test_refuses_without_package(self):
        bare = HERE / "results" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("results",
                                                      "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = run_bench("numeric-small", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main(verbosity=2)
