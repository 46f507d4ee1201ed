"""Self-tests of the benchmark's own code: ``python3 perfbench/selftest.py``.

They cover the span self-time arithmetic, the median and quartile summary,
the seed-to-pairs draw, per-child peak RSS, and the output checks.  They run
in a few seconds and start only small child processes.
"""

import json
import os
import resource
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, attrs]


class SelfTime(unittest.TestCase):

    def test_synthetic_tree(self):
        tree = [
            span("verify.suite", 0.0, 10.0, -1),
            span("charseries.charpoly_crt", 1.0, 4.0, 0,
                 {"n": 3, "hadamard_bits": 40, "coeff_bits": 30}),
            span("scalars.vp_int", 2.0, 3.0, 1),
            span("series.QSeries.__mul__", 5.0, 6.0, 0),
            span("series.QSeries.__pow__", 6.5, 9.0, 0),
            span("series.QSeries.__mul__", 7.0, 8.0, 4),
        ]
        self.assertEqual(spans.self_times(tree), [3.5, 2.0, 1.0, 1.0, 1.5, 1.0])
        m = spans.layer_metrics({"spans": tree, "cache_hits": 3,
                                 "cache_misses": 4})
        self.assertEqual(m["verify.self_s"], 3.5)
        self.assertEqual(m["charseries.self_s"], 2.0)
        self.assertEqual(m["series.self_s"], 3.5)
        self.assertEqual(m["charseries.crt_s"], 3.0)
        self.assertEqual(m["charseries.crt_calls"], 1)
        self.assertEqual(m["charseries.bits_useful_ratio"], 0.75)
        # the nested product is counted as a call but its time only once
        self.assertEqual(m["series.mul_calls"], 3)
        self.assertEqual(m["series.mul_s"], 3.5)
        self.assertEqual(m["cache.hits"], 3)

    def test_overlapping_children_count_once(self):
        tree = [span("weights.uk_matrix", 0.0, 10.0, -1),
                span("weights.twist_matrix", 1.0, 5.0, 0),
                span("series.inv", 3.0, 7.0, 0),
                span("series.inv", 12.0, 13.0, 0)]   # outside its parent
        self.assertEqual(spans.self_times(tree)[0], 4.0)


class MetricNames(unittest.TestCase):

    def test_benchmark_json_lists_what_run_prints(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        layers = set(spans.layer_metrics({"spans": [], "cache_hits": 0,
                                          "cache_misses": 0}))
        layers |= {"verify.claims", "verify.claims_failed", "trace.overhead_frac"}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, layers)
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], run.per_layer_unit(m["name"]))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))


class Summary(unittest.TestCase):

    def test_quartiles(self):
        med, q1, q3, n = run.summary([10, 1, 9, 2, 8, 3, 7, 4, 6, 5])
        self.assertEqual((med, q1, q3, n), (5.5, 2.75, 8.25, 10))

    def test_single_and_pair(self):
        self.assertEqual(run.summary([2.5]), (2.5, 2.5, 2.5, 1))
        med, q1, q3, n = run.summary([1.0, 3.0])
        self.assertEqual((med, n), (2.0, 2))
        self.assertLessEqual(q1, med)
        self.assertGreaterEqual(q3, med)


class CongruencePairs(unittest.TestCase):

    def test_deterministic_with_fixed_counts(self):
        draws = set()
        for seed in range(200):
            pairs = workloads.congruence_pairs(seed)
            self.assertEqual(pairs, workloads.congruence_pairs(seed))
            self.assertEqual(len(pairs), 6)
            self.assertEqual(len({k for p in pairs for k in p}), 7)
            for a, b in pairs:
                self.assertIn((a, b), workloads.CANDIDATE_PAIRS)
                self.assertTrue(0 <= a < b <= 162 and a % 6 == 0 == b % 6)
            draws.add(tuple(pairs))
        self.assertGreater(len(draws), 150)


class PeakRss(unittest.TestCase):

    def test_per_child_not_running_maximum(self):
        workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
        try:
            bench = run.Bench(workdir, seconds=30)
            big = bench.reap(bench.spawn(["-c", "b = bytearray(96 << 20)"], 1))
            small = bench.reap(bench.spawn(["-c", "pass"], 1))
        finally:
            shutil.rmtree(workdir)
        self.assertEqual((big[0], small[0]), (0, 0))
        big_mb, small_mb = big[1].ru_maxrss / 1024, small[1].ru_maxrss / 1024
        self.assertGreater(big_mb, 96)
        self.assertLess(small_mb, big_mb / 2)
        # RUSAGE_CHILDREN keeps the maximum over all children reaped so far
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        self.assertGreater(children, 96)


class OutputChecks(unittest.TestCase):

    def setUp(self):
        with open(os.path.join(HERE, "fixtures", "parabola_report.json"), "rb") as fh:
            self.report = fh.read()
        self.expected = workloads.load_expected()

    def test_pinned_report_passes(self):
        self.assertEqual(workloads.sha256(self.report),
                         self.expected["parabola"]["sha256"])
        checker = workloads.Checker("parabola", self.expected)
        self.assertEqual(checker.check(0, self.report), 0)
        self.assertEqual(checker.attempted, 7)

    def test_flipped_valuation_fails(self):
        tampered = self.report.replace(b"4: '26'", b"4: '27'", 1)
        self.assertNotEqual(tampered, self.report)
        checker = workloads.Checker("parabola", self.expected)
        checker.check(0, self.report)
        checker.check(0, tampered)
        self.assertGreater(checker.failed / checker.attempted, 0)

    def test_crash_fails_every_check(self):
        checker = workloads.Checker("modular", self.expected)
        self.assertEqual(checker.check(1, b""), checker.checks_per_run())

    def congruence_report(self, pairs, v_diff):
        rows = [{"m": m, "v_diff": v_diff if m == 3 else "inf",
                 "required": "2", "pass": True} for m in range(21)]
        return json.dumps({"pairs": [{"k": a, "k2": b, "n": 1, "pass": True,
                                      "rows": rows} for a, b in pairs]}).encode()

    def test_congruence_checks(self):
        pairs = workloads.congruence_pairs(7)
        good = self.congruence_report(pairs, "2")
        checker = workloads.Checker("congruence", self.expected, pairs)
        self.assertEqual(checker.check(0, good), 0)
        self.assertEqual(checker.check(0, good), 0)
        # a valuation below n + 1 fails although the pass flags say true, and
        # the bytes differ from the seed's first report
        self.assertEqual(checker.check(0, self.congruence_report(pairs, "1")), 7)
        wrong_pairs = self.congruence_report(workloads.congruence_pairs(8), "2")
        self.assertEqual(checker.check(0, wrong_pairs), checker.checks_per_run())


if __name__ == "__main__":
    unittest.main()
