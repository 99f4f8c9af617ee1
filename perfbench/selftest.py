"""Self-tests of the benchmark itself (not of poisson_atlas).

    python3 perfbench/selftest.py

Checks that a seed fixes the request order, that a report differing from the
golden record counts as a failed op, and that a traced run reports every
per-layer metric BENCHMARK.json names, on every workload.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys
import unittest

import workloads as wl

sys.path.insert(0, str(wl.ROOT / "src"))
os.chdir(wl.ROOT)

import run  # noqa: E402  (needs the sources on sys.path)
from poisson_atlas import cli  # noqa: E402

with open(wl.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)

# Cheap requests, so a traced mini-run of each workload takes about a second.
SMALL = {
    "catalog": ["kirillov-kostant-sl2", "kleinian-an(2)"],
    "scan": ["classify kleinian-a1 4/2", "classify c-theta 4/2", "classify uqsl2-4hom 4/2"],
    "modules": ["module torus-so3 (2, 2, 2) d=2", "verify uqsl2 (0, 0, 1) d=2"],
}


class RequestOrder(unittest.TestCase):
    def test_same_seed_same_requests(self):
        for workload in wl.WORKLOADS:
            reqs = wl.requests_for(workload)
            first = [r.id for r in wl.pass_order(reqs, workload, 7, 0)]
            again = [r.id for r in wl.pass_order(wl.requests_for(workload), workload, 7, 0)]
            other = [r.id for r in wl.pass_order(reqs, workload, 8, 0)]
            self.assertEqual(first, again, workload)
            self.assertNotEqual(first, other, workload)
            self.assertEqual(sorted(first), sorted(other), workload)

    def test_request_sets_match_golden(self):
        golden = wl.load_golden()
        for workload in ("scan", "modules"):
            ids = {r.id for r in wl.requests_for(workload)}
            self.assertEqual(ids, set(golden[workload]["requests"]), workload)
        self.assertEqual(len(golden["catalog"]["facts"]), 110)

    def test_known_defects_are_only_c_theta_and_d_phi(self):
        records = wl.load_golden()["scan"]["requests"]
        defects = sorted(rid for rid, rec in records.items() if rec["rc"] != 0)
        self.assertEqual(len(defects), 6)
        self.assertTrue(all(" c-theta " in d or " d-phi " in d for d in defects))


class GoldenCheck(unittest.TestCase):
    def test_recorded_report_passes(self):
        golden = wl.load_golden()["scan"]["requests"]
        req = next(r for r in wl.scan_requests() if r.id == SMALL["scan"][0])
        [outcome] = wl.run_cli_pass([req], golden, cli.main)
        self.assertEqual(outcome.status, wl.OK)

    def test_corrupted_cli_report_is_a_failed_op(self):
        golden = wl.load_golden()["modules"]["requests"]
        req = next(r for r in wl.module_requests() if r.id == SMALL["modules"][1])

        def corrupting_main(argv):
            rc = cli.main(argv)
            print("trailing byte")
            return rc

        [outcome] = wl.run_cli_pass([req], golden, corrupting_main)
        self.assertEqual(outcome.status, wl.FAILED)

    def test_raising_request_is_a_failed_op(self):
        golden = wl.load_golden()["scan"]["requests"]
        req = next(r for r in wl.scan_requests() if r.id == SMALL["scan"][0])

        def raising_main(argv):
            raise RuntimeError("boom")

        [outcome] = wl.run_cli_pass([req], golden, raising_main)
        self.assertEqual(outcome.status, wl.FAILED)

    def test_corrupted_catalog_fact_is_a_failed_op(self):
        from poisson_atlas.catalog import RunConfig

        golden = copy.deepcopy(wl.load_golden()["catalog"])
        name = SMALL["catalog"][0]
        fact = next(f for f in golden["facts"] if f.startswith(name + "."))
        golden["facts"][fact] += "x"
        outcomes = wl.run_catalog_pass([wl.Request(name)], golden, RunConfig())
        status = {o.request: o.status for o in outcomes}
        self.assertEqual(status.pop(fact), wl.FAILED)
        self.assertTrue(status and all(s == wl.OK for s in status.values()))


class TracedRun(unittest.TestCase):
    def test_traced_run_reports_every_per_layer_metric(self):
        names = {m["name"] for m in BENCHMARK["per_layer"]}
        for workload in wl.WORKLOADS:
            runner = run.Runner(workload, 1)
            runner.requests = [r for r in runner.requests if r.id in SMALL[workload]]
            self.assertEqual(len(runner.requests), len(SMALL[workload]))
            with contextlib.redirect_stdout(io.StringIO()):
                metrics = run.traced_run(runner, 1, None)
            self.assertEqual(set(metrics), names, workload)
            _, failed, _ = runner.totals()
            self.assertEqual(failed, 0, workload)
            if workload == "scan":
                self.assertGreater(metrics["ideals.points_tested"][0], 0)
            if workload == "modules":
                self.assertEqual(metrics["ideals.find.calls"][0], 0)
                self.assertGreater(metrics["scalars.mul.ext_share"][0], 0)

    def test_untraced_metrics_are_the_end_to_end_metrics(self):
        self.assertEqual(set(run.E2E_UNITS), {m["name"] for m in BENCHMARK["end_to_end"]})
        for m in BENCHMARK["end_to_end"]:
            self.assertEqual(run.E2E_UNITS[m["name"]], m["unit"])


if __name__ == "__main__":
    unittest.main()
