"""Fast self-test of the benchmark's answer checks and metric plumbing.

    python3 perfbench/selftest.py

Each check must accept graphoncalc's answer on a small input and reject the
same answer with one value made wrong; a rejected answer must count as a
failed job in the runner's report.  The oracles' closed forms are checked
against the naive full sum, and BENCHMARK.json against the metric names
the runner prints.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

import oracles
import run
import spans
import workloads
from speed import SpeedSampler

sys.path.insert(0, str(run.SRC))
import graphoncalc as gc  # noqa: E402

WRONG = Fraction(1, 10**9)


def _failed(problems: list[str]) -> int:
    """Failures the runner reports for one job with these problems."""
    final = run.report({}, {}, [{"id": "job", "seconds": 0.1,
                                 "problems": problems}])
    return final["failed"]


def _small_dense_job(family: tuple, p: int, seed: int) -> dict:
    name, kind, params, graph, _ = family
    rng = random.Random(seed)
    return {"id": f"{name}_p{p}", "family": name, "kind": kind,
            "params": params, "graph": graph,
            "labelled": workloads.labelled(graph),
            "kernel": workloads.dense_kernel(rng, p),
            "pins": {"1": str(Fraction(2 * rng.randrange(p) + 1, 2 * p))},
            "limits": dict(workloads.DEFAULT_LIMITS)}


class DensityChecks(unittest.TestCase):
    def test_closed_forms_match_the_naive_sum(self):
        for family in workloads.DENSE_FAMILIES:
            job = _small_dense_job(family, 3, seed=7)
            d, a = oracles.integer_kernel(job["kernel"])
            g = job["graph"]
            scale = d ** sum(m for *_, m in g["edges"])
            pin = math.ceil(Fraction(job["pins"]["1"]) * 3) - 1
            naive = (Fraction(oracles.naive_sum(g["vertices"], g["edges"], a, {}),
                              scale * 3 ** g["vertices"]),
                     Fraction(oracles.naive_sum(g["vertices"], g["edges"], a,
                                                {0: pin}),
                              scale * 3 ** (g["vertices"] - 1)))
            self.assertEqual(oracles.density_pair(job), naive, family[0])

    def test_program_answer_passes_and_wrong_fraction_fails(self):
        for family in workloads.DENSE_FAMILIES:
            job = _small_dense_job(family, 4, seed=11)
            g = gc.graph_from_json(job["graph"])
            h = gc.graph_from_json(job["labelled"])
            f = gc.kernel_from_json(job["kernel"])
            answer = [gc.density(g, f),
                      gc.labelled_density(h, f, gc.pins_from_json(job["pins"]))]
            expected = oracles.density_pair(job)
            good = oracles.check_density(job, [str(x) for x in answer], expected)
            self.assertEqual(_failed(good), 0, good)
            wrong = [str(answer[0] + WRONG), str(answer[1])]
            self.assertEqual(
                _failed(oracles.check_density(job, wrong, expected)), 1)


class MatrixChecks(unittest.TestCase):
    def _pi_answer(self, n, k):
        m = gc.pi_formula(n, k)
        order = gc.surjection_total_order(m.classes)
        return {"classes": [gc.graph_to_json(g) for g in order],
                "rows": m.rows(tuple(order))}

    def test_pi_laws(self):
        for n, k in ((3, 2), (3, 3)):
            job = {"n": n, "k": k}
            answer = self._pi_answer(n, k)
            self.assertEqual(oracles.check_pi(job, answer), [])
            for i, j in ((0, 0), (len(answer["rows"]) - 1, 0)):
                broken = json.loads(json.dumps(answer))
                broken["rows"][i][j] += 1
                self.assertEqual(_failed(oracles.check_pi(job, broken)), 1)

    def test_whitney_triangular_and_determinant(self):
        W = gc.whitney_matrix(2, 1, {1: Fraction(1, 3)})
        order = gc.surjection_total_order(W.classes)
        idx = [W.classes.index(g) for g in order]
        answer = {"classes": [gc.graph_to_json(g) for g in order],
                  "rows": [[str(W.rows[i][j]) for j in idx] for i in idx],
                  "determinant": str(W.determinant())}
        self.assertEqual(oracles.check_whitney({}, answer), [])
        wrong_det = dict(answer,
                         determinant=str(W.determinant() + WRONG))
        self.assertEqual(_failed(oracles.check_whitney({}, wrong_det)), 1)
        upper = json.loads(json.dumps(answer))
        upper["rows"][0][-1] = "1/7"
        self.assertEqual(_failed(oracles.check_whitney({}, upper)), 1)


class DerivativeChecks(unittest.TestCase):
    def test_extract_T_against_brute_vertex_maps(self):
        path2 = workloads.path(2)
        job = {"F": {"k": 0, "terms": [{"graph": path2, "coeff": "3/2"}]},
               "n": 2, "p": 4}
        vec = gc.extract_T(gc.quantum_from_json(job["F"]), 2, 4)
        answer = {"classes": [gc.graph_to_json(h) for h, _ in vec.as_items()],
                  "values": [str(v) for _, v in vec.as_items()]}
        self.assertEqual(oracles.check_extract_T(job, answer), [])
        answer["values"][0] = str(Fraction(answer["values"][0]) + WRONG)
        self.assertEqual(_failed(oracles.check_extract_T(job, answer)), 1)

    def test_taylor_round_trip(self):
        F_json = {"k": 0, "terms": [
            {"graph": workloads.path(2), "coeff": "-5/3"},
            {"graph": workloads.parallel(2), "coeff": "2"},
            {"graph": {"vertices": 2, "edges": [[1, 0, 1]]}, "coeff": "1/4"}]}
        F = gc.quantum_from_json(F_json)

        def oracle(dirs):
            base = gc.StepKernel.zero(dirs[0].parts if dirs else 4)
            return gc.gateaux_exact(F, gc.DerivativeRequest(base, dirs))

        report = gc.taylor_recover(oracle, 2, 4)
        answer = {"recovered": gc.quantum_to_json(report.as_quantum()),
                  "residuals_ok": report.all_residuals_ok}
        job = {"F": F_json}
        self.assertEqual(oracles.check_taylor(job, answer), [])
        answer["recovered"]["terms"][0]["coeff"] = str(
            Fraction(answer["recovered"]["terms"][0]["coeff"]) + WRONG)
        self.assertEqual(_failed(oracles.check_taylor(job, answer)), 1)

    def test_cli_verify_output(self):
        self.assertEqual(oracles.check_cli_verify(0, "overall: PASS\nPASS\n"), [])
        self.assertEqual(_failed(oracles.check_cli_verify(1, "FAIL\n")), 1)
        self.assertEqual(_failed(oracles.check_cli_verify(0, "")), 1)


class Plumbing(unittest.TestCase):
    def test_benchmark_json_names_what_the_runner_prints(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         spans.per_layer_metric_units())
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(workloads.JOB_LISTS))

    def test_work_integrates_sampled_speed(self):
        sampler = SpeedSampler()
        sampler.at.extend([1.0, 2.0])
        sampler.cost.extend([0.001, 0.002])
        # mean speed 750 runs/s between the samples, minus the two samples
        self.assertAlmostEqual(sampler.work(1.0, 2.0), 748.0)
        self.assertAlmostEqual(sampler.work(0.5, 1.0), 499.0)
        self.assertAlmostEqual(sampler.work(2.0, 3.0), 499.0)

    def test_same_seed_same_inputs(self):
        for make in workloads.JOB_LISTS.values():
            self.assertEqual(make(5), make(5))
            self.assertNotEqual(make(5), make(6))

    def test_traced_job_reports_layer_spans(self):
        job = {"id": "pi", "kind": "pi_formula", "n": 2, "k": 2,
               "limits": dict(workloads.DEFAULT_LIMITS)}
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            job_path, out = Path(tmp, "job.json"), Path(tmp, "out.json")
            job_path.write_text(json.dumps(job))
            subprocess.run(run._python(run.JOBS, "job", job_path, out, 1),
                           check=True, cwd=run.ROOT, env=run.child_env(),
                           timeout=60)
            payload = json.loads(out.read_text())
        self.assertEqual(oracles.check_pi(job, payload["answer"]), [])
        self.assertEqual(payload["trace"]["missing"], [])
        metrics = spans.finish(payload["trace"]["summary"], 0.0)
        self.assertEqual(metrics["consistency.pi_formula.calls"], 1)
        self.assertGreater(metrics["morphisms.surjection_weight_sum.calls"], 0)
        self.assertGreater(metrics["morphisms.self_s"], 0)


if __name__ == "__main__":
    unittest.main()
