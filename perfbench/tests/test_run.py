"""Tests of run.py's correctness gate and metric arithmetic.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import copy
import importlib.util
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("run", HERE.parent / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

EXPECTED = run.load_json(HERE.parent / "expected.json")
DEFAULT = EXPECTED["default_seed"]


def pinned_pass(workload):
    """A pass result that reproduces the workload's pinned outputs."""
    pinned = EXPECTED["workloads"][workload]["pinned"]
    result = copy.deepcopy(pinned)
    result["unexpected_count"] = len(pinned["unexpected"])
    return result


class GateTest(unittest.TestCase):
    def test_pinned_outputs_pass(self):
        for workload, exp in EXPECTED["workloads"].items():
            with self.subTest(workload=workload):
                self.assertEqual(
                    run.gate(exp, DEFAULT, DEFAULT, pinned_pass(workload)), [])

    def test_tampered_digest_fails_every_scenario(self):
        exp = EXPECTED["workloads"]["wsl-deep"]
        good, bad = pinned_pass("wsl-deep"), pinned_pass("wsl-deep")
        bad["digest"] = "0" * 16
        attempted, failed, problems = run.account(exp, DEFAULT, DEFAULT,
                                                  [good, bad])
        self.assertEqual(attempted, 2 * good["scenarios"])
        self.assertEqual(failed, good["scenarios"])
        self.assertTrue(any("digest" in p for p in problems))

    def test_tampered_store_hash_and_lost_violation_fail(self):
        exp = EXPECTED["workloads"]["term-lin"]
        bad = pinned_pass("term-lin")
        bad["store_fnv"] = "1"
        self.assertTrue(run.gate(exp, DEFAULT, DEFAULT, bad))
        fixed = pinned_pass("term-lin")
        fixed["unexpected"] = fixed["unexpected"][1:]
        fixed["unexpected_count"] -= 1
        self.assertTrue(run.gate(exp, DEFAULT, DEFAULT, fixed))

    def test_other_seed_allows_only_the_known_defect_class(self):
        exp = EXPECTED["workloads"]["term-lin"]
        result = pinned_pass("term-lin")
        result["digest"] = "other seed, other digest"
        result["unexpected"] = ["term/composed/stall/p4/r64/seed9001"]
        result["unexpected_count"] = 1
        self.assertEqual(run.gate(exp, 1, DEFAULT, result), [])
        result["unexpected"] = ["term/game/scripted/p4/r64/seed9001"]
        self.assertTrue(run.gate(exp, 1, DEFAULT, result))
        result["unexpected"] = ["term/consensus/rand/p4/r64/seed9001"]
        result["counts"]["errors"] = 1
        self.assertTrue(run.gate(exp, 1, DEFAULT, result))

    def test_unlisted_unexpected_outcomes_fail(self):
        exp = EXPECTED["workloads"]["term-lin"]
        result = pinned_pass("term-lin")
        result["unexpected_count"] = len(result["unexpected"]) + 1
        self.assertTrue(run.gate(exp, 1, DEFAULT, result))

    def test_safety_violation_fails_on_any_seed(self):
        exp = EXPECTED["workloads"]["safety-wide"]
        result = pinned_pass("safety-wide")
        result["counts"]["violations"] = 1
        result["unexpected"] = ["abd/rand/p3/w2/seed7"]
        result["unexpected_count"] = 1
        self.assertTrue(run.gate(exp, 5, DEFAULT, result))


class ArithmeticTest(unittest.TestCase):
    def test_failed_share_counts_violations_against_attempted(self):
        result = pinned_pass("term-lin")
        self.assertEqual(result["unexpected_count"], 8)
        self.assertAlmostEqual(run.failed_share(result), 8 / 80000)
        self.assertEqual(run.failed_share(pinned_pass("safety-wide")), 0)

    def test_end_to_end_takes_medians(self):
        passes = []
        for engine_s, rss, setup in ((2.0, 10.0, 0.3), (1.0, 30.0, 0.1),
                                     (4.0, 20.0, 0.2)):
            p = pinned_pass("term-lin")
            p.update(engine_s=engine_s, peak_rss_mb=rss, setup_s=setup)
            passes.append(p)
        e2e = run.end_to_end(passes, [0.05, 0.5])
        self.assertEqual(e2e["throughput_per_s"], 80000 / 2.0)
        self.assertEqual(e2e["peak_rss_mb"], 20.0)
        self.assertEqual(e2e["setup_s"], 0.2)
        self.assertAlmostEqual(e2e["expected_share"], 1 - 8 / 80000)

    def test_benchmark_names_match_the_pins(self):
        bench = run.load_json(HERE.parent.parent / "BENCHMARK.json")
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("obs.trace_overhead_share", names)
        self.assertEqual({w["name"] for w in bench["workloads"]},
                         set(EXPECTED["workloads"]))


if __name__ == "__main__":
    unittest.main()
