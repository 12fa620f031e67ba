"""Self-tests of the benchmark command's reporting.

Run from the repository root: `python3 perfbench/test_run.py`
(builds the `perfbench` binary first, as `run.py` does).
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def real_iteration():
    """One real timed phase of the small `mini` plan, as run.py sees it,
    and one set-up-only process."""
    binary = run.build()
    work = os.path.join(run.WORK, "selftest")
    run.fresh(work)
    args = run.phase_args("mini", 0, work, None)
    try:
        return (run.start_phase(binary, args, 0.0),
                run.start_phase(binary, args + ["--setup-only"], 0.0))
    finally:
        run.shutil.rmtree(run.WORK, ignore_errors=True)


class ReportingTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            cls.bench = json.load(f)
        cls.phase, cls.setup_only = real_iteration()

    def test_setup_only_reports_only_start_up(self):
        self.assertGreater(self.setup_only["setup_s"], 0)
        self.assertNotIn("wall_s", self.setup_only)

    def test_every_end_to_end_metric_for_every_workload(self):
        catalogue = self.bench["end_to_end"]
        names = [w["name"] for w in self.bench["workloads"]]
        self.assertTrue(set(names) <= set(run.WORKLOADS))
        for workload in names:
            runs = [dict(self.phase, workload=workload) for _ in range(3)]
            attempted, failed, notes, values = run.summarize(runs, [r["setup_s"] for r in runs])
            self.assertEqual((attempted, failed, notes), (3 * 36, 0, []))
            metrics = run.named_metrics(catalogue, values)
            self.assertEqual(list(metrics), [m["name"] for m in catalogue])
            for m in catalogue:
                self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                self.assertGreater(metrics[m["name"]]["value"], 0, m["name"])

    def test_iterations_that_disagree_fail_their_cells(self):
        other = dict(self.phase, fold="0" * 16)
        attempted, failed, notes, _ = run.summarize([self.phase, other], [1.0])
        self.assertEqual((attempted, failed), (72, 36))
        self.assertTrue(notes)

    def test_metrics_are_medians(self):
        runs = [dict(self.phase, wall_s=w, cells=36) for w in (3.0, 1.0, 2.0)]
        values = run.summarize(runs, [0.5, 0.1, 0.2, 0.4])[3]
        self.assertEqual(values["wall_s"], 2.0)
        self.assertAlmostEqual(values["setup_s"], 0.3)
        self.assertEqual(values["cells_per_s"], 18.0)


if __name__ == "__main__":
    unittest.main()
