"""Self-tests of the benchmark's own rules.

    python3 bench/selftest.py

Covers the tail-percentile rule and the scoring of failures, the
machine-speed scale, self-time subtraction on nested spans, the BaseException
time limit, and that a traced run restores every patched attribute to the
original object.
"""

from __future__ import annotations

import sys
import time
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import walkfluct.cli  # noqa: E402
import walkfluct.contour  # noqa: E402
import walkfluct.fluct  # noqa: E402
import walkfluct.oracle  # noqa: E402
import walkfluct.roots  # noqa: E402
from walkfluct.model import RationalKernel, builtin_models  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402


class TailRule(unittest.TestCase):
    def test_eleventh_largest_has_ten_beyond(self):
        value, pct, n = harness.tail([float(x) for x in range(1, 101)])
        self.assertEqual((value, pct, n), (90.0, 90.0, 100))

    def test_order_does_not_matter(self):
        data = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 0.5, 11.0]
        self.assertEqual(harness.tail(data)[0], 1.0)

    def test_too_few_samples_fall_back_to_max(self):
        self.assertEqual(harness.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))

    def test_failures_scored_at_limit_and_known_defects_left_out(self):
        ops = [type("O", (), {"mc": False})()]
        recs = [harness.Record(0, 0, False, 0.1 * (i + 1), status=harness.PASS)
                for i in range(20)]
        recs.append(harness.Record(0, 0, False, 0.01, status=harness.FAIL))
        recs.append(harness.Record(0, 0, False, 0.01, status=harness.KNOWN))
        for r in recs:
            r.scale = 0.5
        m = harness.end_to_end(recs, ops, 1, limit=5.0)
        self.assertEqual(m["_tail"], (100.0 * 11 / 21, 21))
        self.assertAlmostEqual(m["point_tail_s"][0], 0.55)
        self.assertAlmostEqual(m["pass_frac"][0], 20 / 22)
        # 20 passes over (0.1 + ... + 2.0 + 0.01 + 0.01) * 0.5 = 10.51 reference seconds
        self.assertAlmostEqual(m["points_per_s"][0], 20 / 10.51)
        self.assertAlmostEqual(m["mc_s_at_1e-3"][0], 10.5)


class Probe(unittest.TestCase):
    def test_scale_is_reference_over_probe_median(self):
        speed = harness.MachineSpeed()
        scale = speed.scale_now()
        self.assertGreater(scale, 0.0)
        self.assertAlmostEqual(speed.scale(), scale)   # within PROBE_EVERY_S: no new probe


def _span(i, parent, t0, t1, name="contour.pv_axis"):
    return tracing.Span(i, parent, 1, name, float(t0), float(t1))


class SelfTime(unittest.TestCase):
    def test_overlapping_and_overhanging_children(self):
        spans = [_span(1, None, 0, 10), _span(2, 1, 1, 3), _span(3, 1, 2, 5),
                 _span(4, 1, 8, 12), _span(5, 2, 1.5, 2.5)]
        own = tracing.self_times(spans)
        # children of 1 cover [1, 5] and [8, 10]: 6 of its 10 seconds
        self.assertAlmostEqual(own[1], 4.0)
        self.assertAlmostEqual(own[2], 1.0)
        self.assertAlmostEqual(own[3], 3.0)
        self.assertAlmostEqual(own[5], 1.0)

    def test_covered_merges_intervals(self):
        self.assertAlmostEqual(tracing.covered((0, 4), [(3, 6), (-1, 1), (0.5, 2)]), 3.0)
        self.assertEqual(tracing.covered((0, 1), []), 0.0)


class TimeLimit(unittest.TestCase):
    def test_alarm_escapes_except_exception(self):
        def stubborn():
            while True:
                try:
                    time.sleep(0.01)
                except Exception:  # noqa: BLE001 - what the alarm must get past
                    pass

        t0 = time.perf_counter()
        with self.assertRaises(harness.OpTimeout):
            with harness.time_limit(0.2):
                stubborn()
        self.assertLess(time.perf_counter() - t0, 2.0)


PATCHED = [
    (walkfluct.fluct, "pv_axis"), (walkfluct.fluct, "pv_axis_singular"),
    (walkfluct.contour, "pv_axis"), (walkfluct.fluct, "lst_eval"),
    (walkfluct.fluct, "increment_char"), (walkfluct.fluct, "find_kernel_roots"),
    (walkfluct.roots, "count_left_zeros"), (RationalKernel, "eval_shifted"),
    (walkfluct.fluct, "busy_period_transform"), (walkfluct.fluct, "busy_period_rational"),
    (walkfluct.fluct, "invert_to_distribution"), (walkfluct.oracle, "spitzer_series"),
    (walkfluct.cli, "load_model"), (walkfluct.cli, "emit_csv"),
    (walkfluct.cli, "busy_period_transform"), (walkfluct.cli, "estimate_functional"),
]


class Wrappers(unittest.TestCase):
    def test_traced_run_restores_every_original(self):
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in PATCHED]
        tracer = tracing.Tracer()
        model = builtin_models()["product_mm1"]
        wf = walkfluct.fluct.walk_functionals(tracing.traced_model(tracer, model))
        with tracing.patched(tracer) as saved:
            for owner, attr, orig in originals:
                self.assertIsNot(owner.__dict__[attr], orig, attr)
            with tracer.operation(0):
                walkfluct.fluct.steps_pgf(wf, 0.5, walkfluct.contour.ContourSpec())
                walkfluct.fluct.busy_period_rational(wf, 0.5, 1.0)
                walkfluct.oracle.max_n_estimate(wf.model, 5, 1.0, 100, 1)
        for owner, attr, orig in originals:
            self.assertIs(owner.__dict__[attr], orig, attr)
        for owner, attr, orig in saved:
            self.assertIs(getattr(owner, attr), orig, attr)
        names = {sp.name for sp in tracer.spans}
        self.assertTrue({"op", "fluct.steps_pgf", "contour.pv_axis_singular",
                         "contour.pv_axis", "model.increment_char",
                         "roots.find_kernel_roots", "roots.count_left_zeros",
                         "model.eval_shifted", "oracle.max_n_estimate",
                         "model.sampler"} <= names, names)
        m = tracing.per_layer_metrics(tracer.spans, 1, timeouts=0, excluded_ops=set(),
                                      pooled_ops=set(), workers=2)
        self.assertEqual(m["oracle.pairs.max_n_estimate"][0], 500)
        self.assertEqual(m["roots.find_calls"][0], 2)
        self.assertGreater(m["contour.nodes"][0], 0)

    def test_restored_after_an_exception(self):
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in PATCHED]
        with self.assertRaises(RuntimeError):
            with tracing.patched(tracing.Tracer()):
                raise RuntimeError("boom")
        for owner, attr, orig in originals:
            self.assertIs(owner.__dict__[attr], orig, attr)


if __name__ == "__main__":
    unittest.main()
