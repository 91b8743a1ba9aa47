#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports, per workload and
end-to-end metric, the median and the spread (inter-quartile distance over
the median) next to the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py [--seeds 10] [--workload NAME ...]
                                [--trace 0|1] [--first-seed 1]

Run from the repository root. A spread must stay below a third of its
bound (setup_s excepted) for the benchmark to count as steady. With
--trace 1 it reports the per-layer metrics instead (no bounds).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import analysis  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    steady = True
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print("%s seed %d exit %d correct %s attempted %d failed %d"
                  % (workload, seed, proc.returncode, result["correct"],
                     result["attempted"], result["failed"]), flush=True)
            steady = steady and proc.returncode == 0 and result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vs in values.items():
            median = statistics.median(vs)
            spread = analysis.relative_spread(vs) if len(vs) > 1 else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                ok = spread < bound / 3
                steady = steady and ok
                verdict = "ok" if ok else "TOO WIDE"
            print("  %-30s median %12.6g  spread %6.3f  bound %s  %s"
                  % (name, median, spread,
                     "-" if bound is None else bound, verdict))
            print("    values: " + " ".join("%.4g" % v for v in vs))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
