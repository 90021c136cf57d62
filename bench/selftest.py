"""Self-test of the benchmark harness.

Run from the repository root:

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import statistics
import tempfile
import time
import unittest
from pathlib import Path

import run

run.source_root()

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9],
        # which holds a nested call of a [6, 7]
        spans = [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 4.0, 0, 0),
                 ("c", 2.0, 3.0, 1, 0), ("d", 5.0, 9.0, 0, 0),
                 ("a", 6.0, 7.0, 3, 0)]
        tot = tracing.layer_totals(spans)
        self.assertEqual(tot["a"], {"calls": 2, "s": 10.0, "self_s": 4.0})
        self.assertEqual(tot["b"], {"calls": 1, "s": 3.0, "self_s": 2.0})
        self.assertEqual(tot["c"], {"calls": 1, "s": 1.0, "self_s": 1.0})
        self.assertEqual(tot["d"], {"calls": 1, "s": 4.0, "self_s": 3.0})
        self.assertEqual(tot["cli.main"]["calls"], 0)

    def test_pass_window(self):
        spans = [("a", 0.0, 1.0, -1, 0), ("a", 2.0, 5.0, -1, 1),
                 ("b", 3.0, 4.0, 1, 1)]
        tot = tracing.layer_totals(spans, 1, 3)
        self.assertEqual(tot["a"], {"calls": 1, "s": 3.0, "self_s": 2.0})

    def test_covered_merges_overlaps(self):
        self.assertEqual(tracing.covered([(1.0, 3.0), (0.0, 2.0), (5.0, 6.0)]), 4.0)

    def test_install_wraps_every_name_and_uninstall_restores(self):
        from spinsim import cli, core, protocols
        originals = (core.eigensystem, cli.eigensystem,
                     core.EigenSystem.lowering_operator, np.linalg.eigh,
                     protocols.ghz_create)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(cli.eigensystem, originals[1])
            self.assertIs(cli.eigensystem, core.eigensystem)
            tracer.job = 7
            res = workloads.run_job(workloads.Job("eigen", ("eigen", "demo3.spin"),
                                                  out=False), Path("unused"))
        finally:
            tracer.uninstall()
        self.assertEqual(res.rc, 0)
        self.assertEqual((core.eigensystem, cli.eigensystem,
                          core.EigenSystem.lowering_operator, np.linalg.eigh,
                          protocols.ghz_create), originals)
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names.count("cli.main"), 1)
        self.assertEqual(names.count("core.eigensystem"), 1)
        self.assertIn("numpy.linalg.eigh", names)
        self.assertTrue(all(s[4] == 7 for s in tracer.spans))
        eigh = next(s for s in tracer.spans if s[0] == "numpy.linalg.eigh")
        self.assertEqual(tracer.spans[eigh[3]][0], "core.eigensystem")


class Checks(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp())
        self.reference = json.loads((run.BENCH_DIR / "reference.json").read_text())
        self.job = workloads.Job("protocol gate:7 compound1.spin",
                                 ("protocol", "gate:7", "compound1.spin"),
                                 checks=(workloads.check_truth_table,))

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def test_corrupted_output_file_fails_its_check(self):
        res = workloads.run_job(self.job, self.tmp / "out")
        self.assertIsNone(workloads.check(res, {}, self.reference))
        path = res.outputs["gate07.state"]
        lines = path.read_text().splitlines()
        k, l, re_, im = lines[1].split()
        lines[1] = f"{k} {l} {float(re_) + 1e-6!r} {im}"
        path.write_text("\n".join(lines) + "\n")
        self.assertIn("gate07.state", workloads.check(res, {}, self.reference))

    def test_corrupted_output_counts_in_failed_frac(self):
        bad = json.loads(json.dumps(self.reference))
        bad[self.job.name]["gate07.report"][3] += 1e-6   # n_pulses
        for reference, failed in ((self.reference, 0), (bad, 1)):
            runner = run.Runner([self.job], {}, reference, self.tmp / "pass")
            runner.run_pass(traced=False)
            runner.run_pass(traced=False)
            self.assertEqual((runner.attempted, runner.failed), (2, 2 * failed))

    def test_compare_tolerance(self):
        self.assertIsNone(workloads.compare([1.0, "x"], [1.0 + 1e-12, "x"]))
        self.assertIsNotNone(workloads.compare([1.0, "x"], [1.0 + 1e-6, "x"]))
        self.assertIsNotNone(workloads.compare([1.0, "y"], [1.0, "x"]))


class Speed(unittest.TestCase):
    def test_sampler_time_is_excluded_from_its_clock(self):
        sampler = speed.Sampler(interval=0.02)
        sampler.start()
        try:
            wall0, clock0 = time.perf_counter(), sampler.clock()
            while time.perf_counter() - wall0 < 0.3:
                pass
            wall, clock = time.perf_counter() - wall0, sampler.clock() - clock0
        finally:
            sampler.stop()
        self.assertGreater(len(sampler.samples), 2)
        self.assertAlmostEqual(wall - clock, sampler.stolen, delta=0.02)
        self.assertGreaterEqual(sampler.stolen, sum(sampler.samples))
        self.assertEqual(sampler.factor(),
                         speed.REFERENCE_S / statistics.median(sampler.samples))

    def test_end_to_end_rescales_timings(self):
        # the job that ran from t=0 to t=1 ran at half the reference
        # speed, the others at the reference speed
        spans = [(0.0, 1.0), (1.0, 2.0)]
        passes = [{"traced": False, "wall_s": 2.0, "job_s": [0.5, 1.5],
                   "job_spans": spans},
                  {"traced": False, "wall_s": 4.0, "job_s": [1.0, 3.0],
                   "job_spans": [(2.0, 3.0), (3.0, 4.0)]}]
        setup = [(0.1, speed.REFERENCE_S), (0.3, 2 * speed.REFERENCE_S)]
        metrics, raw = run.end_to_end(passes, setup,
                                      lambda start, end: 0.5 if start == 0.0 else 1.0)
        self.assertEqual(raw["wall_s"], 3.0)
        self.assertEqual(metrics["wall_s"], (2.875, "s"))   # of 1.75 and 4
        self.assertEqual(metrics["job_p50_s"], (1.25, "s"))
        self.assertAlmostEqual(metrics["setup_s"][0], 0.125)

    def test_factor_uses_the_samples_near_a_job(self):
        sampler = speed.Sampler()
        sampler.times = [float(t) for t in range(20)]
        sampler.samples = [speed.REFERENCE_S] * 10 + [2 * speed.REFERENCE_S] * 10
        self.assertEqual(sampler.factor(3.0, 4.0), 1.0)
        self.assertEqual(sampler.factor(15.0, 16.0), 0.5)
        self.assertEqual(sampler.factor(100.0, 101.0), 0.5)   # nearest five
        self.assertAlmostEqual(sampler.factor(), 2 / 3)


class Inputs(unittest.TestCase):
    def digest(self, workload, seed):
        root = Path(tempfile.mkdtemp())
        try:
            inputs.generate(workload, seed, root)
            return inputs.digest(root)
        finally:
            shutil.rmtree(root)

    def test_same_seed_same_inputs(self):
        for workload in ("tomography", "bigspin"):
            self.assertEqual(self.digest(workload, 3), self.digest(workload, 3))
            self.assertNotEqual(self.digest(workload, 3), self.digest(workload, 4))


if __name__ == "__main__":
    unittest.main()
