"""Tests of the benchmark itself: generator, output checks, span arithmetic.

    python3 -m pytest bench        or        python3 -m unittest discover bench
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402


def first_rounds(workload: str, seed: int, count: int) -> list:
    return list(itertools.islice(workloads.rounds(workload, seed), count))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_requests(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(first_rounds(workload, 7, 4), first_rounds(workload, 7, 4))
                self.assertNotEqual(first_rounds(workload, 7, 4), first_rounds(workload, 8, 4))

    def test_same_seed_same_requests_across_processes(self):
        code = ("import sys, hashlib, itertools; sys.path.insert(0, sys.argv[1]); import workloads; "
                "print(hashlib.sha256(repr([list(itertools.islice(workloads.rounds(w, 3), 3)) "
                "for w in workloads.WORKLOADS]).encode()).hexdigest())")
        digests = {
            subprocess.run([sys.executable, "-c", code, str(Path(workloads.__file__).parent)],
                           env={**os.environ, "PYTHONHASHSEED": str(hash_seed)},
                           capture_output=True, text=True, check=True, timeout=60).stdout
            for hash_seed in (1, 2)
        }
        self.assertEqual(len(digests), 1)

    def test_no_two_requests_identical(self):
        # A run at half as long again as BENCHMARK.json's still has fresh requests.
        seconds = 1.5 * json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                count = workloads.rounds_for(workload, seconds)
                argvs = [r.argv for batch in first_rounds(workload, 3, count) for r in batch]
                self.assertEqual(len(argvs), len(set(argvs)))

    def test_expected_exit_codes(self):
        for workload in workloads.WORKLOADS:
            batches = first_rounds(workload, 5, 10)
            codes = {r.expect for batch in batches for r in batch}
            with self.subTest(workload=workload):
                self.assertTrue(codes <= {0, 1, 2, 3})
                self.assertIn(2, codes)
                share = sum(r.expect != 0 for b in batches for r in b) / sum(map(len, batches))
                self.assertLess(share, 0.2)
        faults = [r for b in workloads.rounds("verify-grid", 5) for r in b if r.expect == 1]
        self.assertEqual([r.argv[-1] for r in faults], ["--inject-fault"])

    def test_tables_workloads_share_queries(self):
        closed = first_rounds("tables-closed-form", 2, 2)
        transfer = first_rounds("tables-transfer", 2, 2)
        for a, b in zip(itertools.chain(*closed), itertools.chain(*transfer)):
            if a.alt is not None:
                self.assertEqual(a.argv[:-1], b.argv[:-1])
                self.assertEqual(a.alt, b.argv)

    def test_series_stream_keeps_threshold_abc(self):
        argvs = [r.argv for b in first_rounds("series-expand", 1, 10) for r in b]
        self.assertTrue(any("threshold:abc" in argv for argv in argvs))


class ChecksTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ws = run.load_program()

    def request(self, kind):
        return next(r for b in workloads.rounds("tables-closed-form", 11) for r in b if r.kind == kind)

    def test_corrupted_response_raises_failed_ratio(self):
        request = self.request("table")
        response, _ = run.timed_call(request, self.ws)
        tally = run.Tally()
        self.assertTrue(tally.record(request, response, 0.001, self.ws))
        record = json.loads(response.stdout)
        record["result"]["rows"][0]["count"] = str(int(record["result"]["rows"][0]["count"]) + 1)
        corrupted = checks.Response(0, json.dumps(record))
        self.assertFalse(tally.record(request, corrupted, 0.001, self.ws))
        self.assertEqual((tally.failed, tally.wrong, len(tally.latencies)), (1, 1, 2))

    def test_wrong_exit_code_fails_without_wrong_answer(self):
        request = self.request("table")
        failure = checks.check(request, checks.Response(2, "", "error: x"), self.ws)
        self.assertFalse(failure.wrong_answer)
        failure = checks.check(request, checks.Response(1, error="ValueError: x"), self.ws)
        self.assertFalse(failure.wrong_answer)

    def test_second_engine_disagreement_fails(self):
        request = self.request("count")
        response, _ = run.timed_call(request, self.ws)
        record = json.loads(response.stdout)
        record["result"]["count"] = str(int(record["result"]["count"]) + 1)
        tally = run.Tally()
        run.compare_engines([(request, json.dumps(record))], tally, self.ws)
        self.assertEqual((tally.failed, tally.wrong), (1, 1))

    def test_series_value_at_one(self):
        self.assertEqual(checks.value_at_one("3 + x2 - 2*x1^2*q"), 2)
        self.assertEqual(checks.value_at_one("-x1 + 5"), 4)
        self.assertEqual(checks.value_at_one("0"), 0)
        self.assertEqual([checks.compositions(w, 2) for w in range(6)], [1, 1, 2, 3, 5, 8])


class SelfTimeTest(unittest.TestCase):
    def test_children_union_is_subtracted(self):
        # span 0 [0, 100] has children 1 [10, 30], 2 [20, 50] (overlapping)
        # and 3 [90, 120] (reaching past its parent); 4 [12, 18] is a grandchild.
        start = [0, 10, 20, 90, 12]
        end = [100, 30, 50, 120, 18]
        parent = [-1, 0, 0, 0, 1]
        self.assertEqual(tracing.self_times(start, end, parent), [50, 14, 30, 30, 6])

    def test_tracer_records_nesting(self):
        tracer = tracing.Tracer()

        def leaf():
            return 1

        traced_leaf = tracer.span("leaf", leaf)
        outer = tracer.span("outer", lambda: traced_leaf() + traced_leaf())
        tracer.enabled = True
        tracer.request = 4
        self.assertEqual(outer(), 2)
        tracer.enabled = False
        self.assertEqual(outer(), 2)  # disabled: nothing recorded
        self.assertEqual([tracer.names[i] for i in tracer.name], ["outer", "leaf", "leaf"])
        self.assertEqual(list(tracer.parent), [-1, 0, 0])
        self.assertEqual(list(tracer.request_id), [4, 4, 4])
        own = tracer.self_times()
        children = (tracer.end[1] - tracer.start[1]) + (tracer.end[2] - tracer.start[2])
        self.assertEqual(own[0], tracer.end[0] - tracer.start[0] - children)
        self.assertEqual(tracer.counts["leaf.calls"], 2)


class YardstickTest(unittest.TestCase):
    def test_scale_to_nominal_speed(self):
        nominal = yardstick.NOMINAL_S
        self.assertAlmostEqual(yardstick.scale(0.010, nominal, nominal), 0.010)
        # A host running at half speed doubles both readings and the request.
        self.assertAlmostEqual(yardstick.scale(0.020, 2 * nominal, 2 * nominal), 0.010)
        self.assertAlmostEqual(yardstick.scale(0.030, nominal, 2 * nominal), 0.020)

    def test_scaler_uses_the_readings_on_either_side(self):
        nominal = yardstick.NOMINAL_S
        readings = iter([nominal, 3 * nominal, nominal])
        original, yardstick.reading = yardstick.reading, lambda: next(readings)
        try:
            scaler = yardstick.Scaler()
            scaled = [scaler(0.004), scaler(0.004)]
        finally:
            yardstick.reading = original
        self.assertEqual([round(t, 12) for t in scaled], [0.002, 0.002])
        self.assertEqual(scaler.readings, [nominal, 3 * nominal, nominal])
        self.assertAlmostEqual(scaler.measured_s, 0.008)

    def test_reading_is_a_positive_time(self):
        self.assertGreater(yardstick.reading(), 0)


class DeclarationTest(unittest.TestCase):
    def test_patches_restore_the_program(self):
        ws = run.load_program()
        before = (ws.cli.main, ws.formulas.binom, dict(ws.formulas.CLOSED_FORMS),
                  ws.polynomials.Polynomial.__mul__, ws.series.PowerSeries.divide)
        patches = tracing.Patches(tracing.Tracer(), ws)
        patches.install()
        self.assertIsNot(ws.cli.main, before[0])
        patches.uninstall()
        after = (ws.cli.main, ws.formulas.binom, dict(ws.formulas.CLOSED_FORMS),
                 ws.polynomials.Polynomial.__mul__, ws.series.PowerSeries.divide)
        self.assertEqual(before, after)

    def test_benchmark_json_matches_the_metrics(self):
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in declared["end_to_end"]], list(run.END_TO_END_UNITS))
        self.assertEqual([(m["name"], m["unit"]) for m in declared["end_to_end"]],
                         list(run.END_TO_END_UNITS.items()))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]],
                         list(tracing.PER_LAYER))
        self.assertEqual([w["name"] for w in declared["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
