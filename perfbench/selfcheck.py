"""Fast self-check of the benchmark harness (a few seconds).

    python3 perfbench/selfcheck.py

Run from the repository root.  The file name keeps it out of the tier-1
pytest collection.  It checks that BENCHMARK.json matches metrics.py, that
the closed-form oracles agree with the literal mode-pair star product of
tests/oracles.py and with the frozen transition amplitude, that seeded
inputs repeat, and that a traced op's self times add up to its wall time.
"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import importlib.util  # noqa: E402
import json  # noqa: E402

import numpy as np  # noqa: E402

import metrics  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from oracles import rel_error  # noqa: E402


def _brute_force_star(*args, **kwargs):
    """tests/oracles.py's literal mode-pair product (that module shares a name with ours)."""
    spec = importlib.util.spec_from_file_location("tests_oracles", os.path.join(ROOT, "tests", "oracles.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.brute_force_star(*args, **kwargs)


class BenchmarkFile(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            self.doc = json.load(fh)

    def test_metrics_match_metrics_module(self):
        self.assertEqual([w["name"] for w in self.doc["workloads"]], list(metrics.WORKLOADS))
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in self.doc["end_to_end"]},
                         metrics.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in self.doc["per_layer"]},
                         metrics.PER_LAYER)

    def test_bounds_and_map(self):
        bounds = {m["name"]: m["bound"] for m in self.doc["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for name in metrics.PER_LAYER:
            metrics.moves(name)


class Oracles(unittest.TestCase):
    def test_frozen_transition_amplitude(self):
        amp = oracles.transition_amplitude_01(0.1, 0.05, 1.0, 6.0, 12.0)
        self.assertLess(rel_error(amp, 2.2851632276e-03 - 6.6499664756e-04j), 1e-10)

    def test_gaussian_products_match_the_mode_pair_sum(self):
        theta = 0.1
        for flavor in ("voros", "moyal"):
            case = workloads.gaussian_case(flavor, theta, 64, 8.0, 1.0)
            spec = case.field.spec
            got = _brute_force_star(case.field.values, case.field.values, spec.k_t, spec.k_x,
                                    theta, flavor)
            self.assertLess(rel_error(got, case.want()), 1e-10, flavor)


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        a = [next(workloads.slice_inputs(5)) for _ in range(3)]
        self.assertEqual(a, [next(workloads.slice_inputs(5)) for _ in range(3)])
        self.assertNotEqual(next(workloads.slice_inputs(5)), next(workloads.slice_inputs(6)))

    def test_theta_blocks_cover_every_stratum(self):
        lo, hi = workloads.THETA_RANGE
        draws = workloads._thetas(np.random.default_rng(0))
        block = [next(draws) for _ in range(workloads.THETA_STRATA)]
        strata = sorted(int((t - lo) / (hi - lo) * workloads.THETA_STRATA) for t in block)
        self.assertEqual(strata, list(range(workloads.THETA_STRATA)))


class Tracing(unittest.TestCase):
    def test_fft_work(self):
        self.assertEqual(spans._fft_work("fft2", (np.zeros((4, 8)),), {}), (32, 5.0 * 32 * 5))
        self.assertEqual(spans._fft_work("fft", (np.zeros((4, 8)),), {"axis": 0}), (32, 5.0 * 32 * 2))

    def test_self_times_account_for_the_op(self):
        star_fn = workloads.starqm.star
        tracer = spans.Tracer()
        case = workloads.gaussian_case("voros", 0.1, 64, 8.0, 1.0)
        inp = next(workloads.slice_inputs(0))
        with tracer.installed():
            self.assertIsNot(workloads.starqm.star, star_fn)
            tracer.run_op(0, "star_products", lambda: workloads.star_run((case,)))
            tracer.run_op(1, "slice_oscillator", lambda: workloads.slice_run(inp))
        self.assertIs(workloads.starqm.star, star_fn)
        values = spans.aggregate(tracer.spans, 2)
        self_total = sum(v for k, v in values.items() if k.startswith("self_s."))
        self.assertAlmostEqual(self_total, values["op.traced_wall_s"], delta=1e-9)
        self.assertEqual(values["star.calls.voros"], 0.5)
        self.assertGreater(values["star.ifft2_per_call"], 0)
        self.assertEqual(values["dynamics.eigvalsh.calls"], 0.5)
        self.assertEqual(set(values) | {"trace.overhead_s", "star.narrow_pair.misses"},
                         set(metrics.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
