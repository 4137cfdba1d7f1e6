"""Sub-second checks of the benchmark itself; no real workload runs.

Run from the root of a checkout:

    python3 perfbench/test_perfbench.py
"""

import json
import os
import shutil
import sys
import tempfile
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

LEMMA_G4_REPORT = json.dumps(
    {
        "schema": 1,
        "kind": "summary",
        "status": "ok",
        "genus": 4,
        "depth": 2,
        "separating_checked": 39,
        "nonseparating_checked": 115,
        "lifts_per_class": 256,
        "failures": [],
        "metrics": {"added": "later"},
    }
)

# A stand-in for child.py: reports the package file like child.py does, then
# writes the given report to the path after --out and exits with the code.
FAKE_CHILD = """
import sys
sys.stderr.write("simpleloop_file=%s\\n" % sys.argv[1])
with open(sys.argv[-1], "w") as handle:
    handle.write(sys.argv[2])
sys.exit(int(sys.argv[3]))
"""


class BenchmarkTests(unittest.TestCase):
    def setUp(self):
        self.workdir = tempfile.mkdtemp(prefix="perfbench-test-")
        self.runner = run.Runner(self.workdir, time.perf_counter() + 60)

    def tearDown(self):
        shutil.rmtree(self.workdir)

    def fake_invoke(self, report, code=0, package_file=run.PACKAGE_FILE):
        command = [sys.executable, "-c", FAKE_CHILD, package_file, report, str(code)]
        _, check = run.workload_argv(run.WORKLOADS["lemma-g4"], 0)
        return self.runner.invoke([], check, command=command)

    def test_benchmark_json_names_every_metric(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        self.assertEqual(
            [w["name"] for w in spec["workloads"]], list(run.WORKLOADS)
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            list(run.LAYER_METRICS),
        )

    def test_result_schema(self):
        self.runner.attempted = 3
        out = run.result(self.runner, {"wall_s": [1.7, 1.5, 1.2], "cpu_s": []}, run.END_TO_END)
        self.assertEqual(sorted(out), ["attempted", "correct", "failed", "metrics"])
        self.assertEqual(list(out["metrics"]), [n for n, _ in run.END_TO_END])
        self.assertEqual(out["metrics"]["wall_s"], {"value": 1.5, "unit": "s"})
        self.assertIsNone(out["metrics"]["setup_s"]["value"])
        self.assertIsNone(out["metrics"]["cpu_s"]["value"])
        self.assertTrue(out["correct"])
        json.loads(json.dumps(out))

    def test_good_report_passes_with_added_fields(self):
        outcome = self.fake_invoke(LEMMA_G4_REPORT)
        self.assertTrue(outcome.ok, self.runner.reasons)
        self.assertEqual((self.runner.attempted, self.runner.failed), (1, 0))
        self.assertEqual(outcome.out_bytes, len(LEMMA_G4_REPORT))

    def test_corrupted_report_is_a_failure_not_a_fast_run(self):
        corrupted = LEMMA_G4_REPORT.replace('"separating_checked": 39', '"separating_checked": 38')
        for report in (corrupted, LEMMA_G4_REPORT[:40], ""):
            outcome = self.fake_invoke(report)
            self.assertFalse(outcome.ok)
        self.assertEqual((self.runner.attempted, self.runner.failed), (3, 3))
        out = run.result(self.runner, {}, run.END_TO_END)
        self.assertFalse(out["correct"])

    def test_exit_code_and_foreign_package_are_failures(self):
        self.assertFalse(self.fake_invoke(LEMMA_G4_REPORT, code=1).ok)
        self.assertFalse(
            self.fake_invoke(LEMMA_G4_REPORT, package_file="/elsewhere/__init__.py").ok
        )
        self.assertEqual(self.runner.failed, 2)

    def test_verify_gate_checks_fields_seed_and_digest(self):
        summary = dict(status="ok", kind="summary", config={"seed": 4}, cover={"h1_dim": 34})
        summary.update(classes_total=11831, witness_count=81, kernel_hits=[])
        summary["lemma"] = {"failures": []}
        text = json.dumps(summary) + "\n" + '{"kind": "witness"}\n'
        _, check = run.workload_argv(run.WORKLOADS["verify-g2"], 4)
        self.assertIn("digest", check(text))
        _, other_seed = run.workload_argv(run.WORKLOADS["verify-g2"], 5)
        self.assertIn("config.seed", other_seed(text))
        del summary["lemma"]
        self.assertIn("lemma.failures", check(json.dumps(summary)))
        self.assertIsNotNone(checks.check_info('{"kind": "cover", "h1_dim": 33}', 2))
        self.assertIsNone(checks.check_info('{"kind": "cover", "h1_dim": 34}\n', 2))

    def test_layer_metrics_from_traced_calls(self):
        tracer = tracing.Tracer()
        canonical = tracer.wrap("words.canonical_class", lambda w: w)
        search = tracer.wrap(
            "quotient.search_kernel_elements",
            lambda: [w for w in (canonical(1), canonical(2)) if w == 2],
        )
        lift = tracer.wrap("cover.lift", lambda: time.sleep(0.002))
        lemma = tracer.wrap("curves.lemma_check", lambda: [lift(), lift()])
        dehn = tracer.wrap("words.dehn_normal_form", lambda: time.sleep(0.002))
        main = tracer.wrap("cli.main", lambda: (search(), lemma(), dehn()))
        main()
        spans = tracing.summarize(
            tracer.names, tracer.name_id, tracer.parent, tracer.start, tracer.end
        )
        header = {"counters": tracer.counters, "distinct": {}}
        values = run.layer_metrics(header, spans, 123)
        expected = {name for name, _ in run.LAYER_METRICS} - {"trace.overhead_ratio"}
        self.assertEqual(set(values), expected)
        self.assertEqual(values["words.canonical_class.search.calls"], 2)
        self.assertEqual(values["quotient.search.witnesses"], 1)
        self.assertEqual(values["quotient.search.hit_ratio"], 0.5)
        self.assertEqual(values["curves.lemma.lifts"], 2)
        self.assertEqual(values["words.dehn.calls"], 1)
        self.assertEqual(values["cli.output_bytes"], 123)
        stages = values["quotient.search_s"] + values["curves.lemma_s"]
        self.assertAlmostEqual(stages + values["cli.self_s"], values["trace.wall_s"])
        self.assertGreaterEqual(values["cli.self_s"], 0.002)
        self.assertLessEqual(values["cover.lift.self_s"], values["curves.lemma_s"])


if __name__ == "__main__":
    unittest.main()
