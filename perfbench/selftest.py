#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark, and cheap cross-checks of the
frozen answers in expected.json.

    python3 perfbench/selftest.py

Runs every workload with ``--tiny`` (its cheap jobs only) in fresh
processes, and checks that:

- the metric names printed equal those declared in BENCHMARK.json;
- one seed gives identical inputs and identical counts;
- two seeds give different relabellings and the same answers;
- frozen values agree with an independent route: relabelled against
  canonical coefficients, method="both", and |tr Phi^k| against the
  direct central coefficient of Q x C_k for small Q.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
import run  # noqa: E402

run.prepare_environment()

import graphpoly.coefficients as coefficients  # noqa: E402
import graphpoly.graphio as graphio  # noqa: E402
import graphpoly.transfer as transfer  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

EXPECTED = run.load_expected()
WORKLOADS = workloads.WORKLOADS

# Count metrics: they must repeat exactly for one seed.
COUNT_SUFFIXES = (".calls", ".entries", ".scan_entries", ".subsets_checked", ".trials", ".tries",
                  "matmul_ops_computed", "result_bits")
COUNT_NAMES = ("transfer.phi.nnz", "transfer.phi.max_block_dim", "false_accepts", "ops_failed",
               "ops_failed_count", "ops_attempted", "coefficients.budget_exceeded",
               "verify.verdict.ok", "verify.verdict.fail")


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def is_count(name: str) -> bool:
    return name in COUNT_NAMES or name.endswith(COUNT_SUFFIXES)


def answers(wl: workloads.Workload) -> list:
    ctx = {"tmp": None}
    return [json.dumps(job.run(ctx)) for job in wl.jobs if job.role == workloads.CERTIFY]


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(ROOT / "BENCHMARK.json") as fh:
            cls.declared = json.load(fh)
        cls.traced = {w: bench(w, 5, 1) for w in WORKLOADS}

    def test_metric_names_match_declaration(self):
        end_to_end = {m["name"]: m["unit"] for m in self.declared["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in self.declared["per_layer"]}
        self.assertEqual(per_layer, spans.per_layer_units())
        self.assertEqual([w["name"] for w in self.declared["workloads"]], list(WORKLOADS))
        for w in WORKLOADS:
            result = bench(w, 5, 0)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, end_to_end)
            self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()), w)
            traced = self.traced[w]["metrics"]
            self.assertEqual({k: v["unit"] for k, v in traced.items()}, per_layer)
            self.assertGreaterEqual(traced["trace.top_level_coverage"]["value"], 0.9, w)

    def test_one_seed_repeats_counts(self):
        for w in WORKLOADS:
            again = bench(w, 5, 1)["metrics"]
            first = self.traced[w]["metrics"]
            counts = {k: v["value"] for k, v in first.items() if is_count(k)}
            self.assertEqual(counts, {k: again[k]["value"] for k in counts}, w)


class InputTest(unittest.TestCase):
    def test_one_seed_gives_identical_inputs(self):
        for w in WORKLOADS:
            a = workloads.build(w, 11, EXPECTED)
            b = workloads.build(w, 11, EXPECTED)
            self.assertEqual([j.name for j in a.jobs], [j.name for j in b.jobs])
            self.assertEqual(a.files, b.files)
        a = workloads.build("coeff", 11, EXPECTED, tiny=True)
        b = workloads.build("coeff", 11, EXPECTED, tiny=True)
        self.assertEqual(answers(a), answers(b))

    def test_two_seeds_relabel_differently_with_same_answers(self):
        base = graphio.parse_graph_spec("product:cycle:4:cycle:4")
        g1 = workloads.relabel(base, random.Random(1))
        g2 = workloads.relabel(base, random.Random(2))
        self.assertNotEqual(g1.edges, g2.edges)
        a = workloads.build("coeff", 1, EXPECTED, tiny=True)
        b = workloads.build("coeff", 2, EXPECTED, tiny=True)
        self.assertEqual(answers(a), answers(b))


class CrossCheckTest(unittest.TestCase):
    """Frozen values against a second, independent computation."""

    def test_relabelled_magnitudes_match_canonical(self):
        rng = random.Random(0)
        for spec in workloads.RELABEL_DRAWS:
            g = graphio.parse_graph_spec(spec)
            canonical = coefficients.coefficient(g, coefficients.central_exponent(g))
            self.assertEqual(abs(canonical), EXPECTED["coeff"][f"abs_central:{spec}"])
            h = workloads.relabel(g, rng)
            self.assertEqual(abs(coefficients.coefficient(h, coefficients.central_exponent(h))),
                             abs(canonical))

    def test_enumeration_matches_frozen_values(self):
        for spec, xi in workloads.BOTH_CASES:
            g = graphio.parse_graph_spec(spec)
            xi = xi or coefficients.central_exponent(g)
            self.assertEqual(coefficients.coefficient(g, xi, method="enumerate"),
                             EXPECTED["coeff"][f"both:{spec}"])

    def test_trace_matches_direct_product_coefficient(self):
        frozen = [
            ("cycle:5", 4, EXPECTED["transfer"]["trace:cycle:5:k4"]["trace_value"]),
            ("cycle:3", 2, EXPECTED["certify_check"]["phi cycle:3 --trace 2"]["trace_value"]),
        ]
        for spec, k, value in frozen:
            product = transfer.cycle_product_graph(graphio.parse_graph_spec(spec), k)
            direct = coefficients.coefficient(product, coefficients.central_exponent(product))
            self.assertNotEqual(direct, 0)
            self.assertEqual(abs(direct), abs(int(value)))


if __name__ == "__main__":
    unittest.main(verbosity=2)
