"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root. The last two tests build pcnnbench (as
run.py does) into .bench_build/ and run it briefly.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import analysis  # noqa: E402
import run  # noqa: E402


def span(name, ts, dur, tid=1):
    return {"name": name, "ts": ts, "dur": dur, "tid": tid}


class PercentileRule(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertIsNone(analysis.percentile(list(range(99)), 0.9))
        self.assertEqual(analysis.percentile(list(range(100)), 0.9), 89)
        self.assertEqual(analysis.percentile(list(range(1, 101)), 0.9), 90)

    def test_p50_needs_twenty_samples(self):
        self.assertIsNone(analysis.percentile(list(range(19)), 0.5))
        self.assertEqual(analysis.percentile(list(range(20)), 0.5), 9)

    def test_order_does_not_matter(self):
        values = [float(x) for x in range(200)]
        self.assertEqual(analysis.percentile(values[::-1], 0.9),
                         analysis.percentile(values, 0.9))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(analysis.relative_spread([1, 2, 3, 4, 5]), 1.0)


class SelfTime(unittest.TestCase):
    def setUp(self):
        # frame [0,100): pyramid [0,20), level [20,90) holding cellGrid
        # [20,40) and scan [40,85) whose parallel part is a pool job
        # [45,80); a second thread's span must not nest under the frame.
        self.events = [
            span("bench.frame", 0, 100),
            span("detect.pyramid", 0, 20),
            span("detect.level", 20, 70),
            span("detect.cellGrid", 20, 20),
            span("detect.scan", 40, 45),
            span("pool.job", 45, 35),
            span("detect.nms", 95, 4),
            span("serve.batch", 10, 50, tid=2),
        ]
        self.nodes = analysis.self_times(self.events)

    def test_self_time_is_duration_minus_children(self):
        totals, counts = analysis.self_time_by_name(self.nodes)
        self.assertEqual(totals["bench.frame"], 100 - 20 - 70 - 4)
        self.assertEqual(totals["detect.level"], 70 - 20 - 45)
        self.assertEqual(totals["detect.pyramid"], 20)
        self.assertEqual(totals["detect.nms"], 4)
        self.assertEqual(counts["detect.scan"], 1)

    def test_pool_job_time_belongs_to_its_stage(self):
        totals, _ = analysis.self_time_by_name(self.nodes)
        self.assertEqual(totals["pool.job"], 0)
        self.assertEqual(totals["detect.scan"], 45)

    def test_threads_nest_separately(self):
        roots = [n["event"]["name"] for n in self.nodes if n["parent"] is None]
        self.assertEqual(sorted(roots), ["bench.frame", "serve.batch"])

    def test_self_times_of_a_tree_add_up_to_its_root(self):
        frame = [n for n in self.nodes if n["event"]["tid"] == 1]
        self.assertAlmostEqual(sum(n["self"] for n in frame), 100)
        self.assertAlmostEqual(
            analysis.unexplained_share(self.nodes, {"bench.frame"}), 6 / 100)

    def test_ancestry(self):
        scan = next(i for i, n in enumerate(self.nodes)
                    if n["event"]["name"] == "pool.job")
        self.assertTrue(analysis.has_ancestor(self.nodes, scan, "detect.level"))
        self.assertFalse(analysis.has_ancestor(self.nodes, scan, "serve.batch"))


class BenchmarkFile(unittest.TestCase):
    def test_names_match_the_harness(self):
        path = os.path.join(HERE, "..", "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("BENCHMARK.json not present")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         list(run.GATED_END_TO_END))
        for m in spec["end_to_end"]:
            self.assertEqual(m["unit"], run.END_TO_END_UNITS[m["name"]])
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER_UNITS)
        for w in spec["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)


class Pcnnbench(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(run.build_dir())

    def digest(self, workload, seed):
        out = subprocess.run(
            [self.binary, "--workload", workload, "--seed", str(seed),
             "--seconds", "20", "--trace", "0", "--digest", "1"],
            check=True, capture_output=True, text=True).stdout
        return out.split()[-1]

    def test_seeded_inputs_reproduce_bit_for_bit(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.digest(workload, 11)
                self.assertEqual(first, self.digest(workload, 11))
                self.assertNotEqual(first, self.digest(workload, 12))

    def test_traced_scene_frame_adds_up(self):
        trace_path = os.path.join(run.build_dir(), "runs", "selftest.json")
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("PCNN_")}
        env["PCNN_TRACE"] = trace_path
        out = subprocess.run(
            [self.binary, "--workload", "scene-vga-hog", "--seed", "5",
             "--seconds", "1", "--trace", "1", "--setup-reps", "1"],
            check=True, capture_output=True, text=True, env=env, timeout=120)
        self.assertIn("RESULT ", out.stdout)
        with open(trace_path) as f:
            events = json.load(f)["traceEvents"]
        nodes = analysis.self_times(events)
        frames = [n for n in nodes if n["event"]["name"] == "bench.frame"]
        self.assertGreater(len(frames), 0)
        for stage in ("detect.pyramid", "detect.cellGrid",
                      "detect.blockGrid", "detect.scan", "detect.nms"):
            self.assertTrue(any(n["event"]["name"] == stage for n in nodes),
                            stage)
        share = analysis.unexplained_share(nodes, {"bench.frame"})
        self.assertLessEqual(share, analysis.ADD_UP_TOLERANCE)


if __name__ == "__main__":
    unittest.main()
