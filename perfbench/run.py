#!/usr/bin/env python3
"""The pcnn regression benchmark: one command, one workload per call.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. Builds perfbench/ (the src/ libraries plus
the pcnnbench binary) into .bench_build/, runs the workload under a
watchdog, checks its outputs, prints every metric by name and unit, and
ends stdout with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones BENCHMARK.json gates;
with --trace 1 they are the per-layer ones, from a run whose operations
alternate between untraced and traced. perfbench/README.md documents the
workloads and every metric.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import analysis  # noqa: E402

# Every end-to-end metric, printed for each workload. The gated subset is
# the one BENCHMARK.json lists: each is reported by every gated workload,
# is never 0 and is steady enough over seeds to carry a bound. The others
# are printed only (README.md says why for each).
END_TO_END_UNITS = {
    "frames_per_s": "1/s",
    "frame_ms_p50": "ms",
    "frame_ms_p90": "ms",
    "cells_per_s": "1/s",
    "ok_share": "share",
    "fail_share": "share",
    "log_avg_miss_rate": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
GATED_END_TO_END = ("frames_per_s", "frame_ms_p50", "ok_share", "setup_s",
                    "peak_rss_mb")

PER_LAYER_UNITS = {
    "vision.pyramid_ms": "ms",
    "vision.pyramid_mpix": "Mpix",
    "extract.cell_grid_ms": "ms",
    "extract.cells_computed": "count",
    "extract.block_grid_ms": "ms",
    "core.score_ms": "ms",
    "core.windows_scored": "count",
    "core.scan_ms": "ms",
    "vision.nms_ms": "ms",
    "core.tile_hit_rate": "share",
    "core.tiles_recomputed": "count",
    "core.windows_rescored": "count",
    "core.frame_self_ms": "ms",
    "serve.queue_ms_p50": "ms",
    "serve.queue_ms_p90": "ms",
    "serve.detect_ms_p50": "ms",
    "serve.detect_ms_p90": "ms",
    "serve.batch_size_mean": "count",
    "serve.degraded_share": "share",
    "serve.rejected": "count",
    "serve.expired": "count",
    "serve.transitions": "count",
    "common.parallel.cpu_util": "share",
    "common.parallel.jobs_per_op": "count",
    "common.parallel.inline_share": "share",
    "common.parallel.queue_us_p50": "us",
    "tn.us_per_cell": "us",
    "tn.ns_per_core_tick": "ns",
    "tn.run_share": "share",
    "tn.spikes_per_cell": "count",
    "tn.ticks_per_cell": "count",
    "bench.gen_late_ms_max": "ms",
    "bench.trace_overhead_pct": "%",
}

# Pool size per workload, counting the caller (None = nproc). At nproc the
# thread pool's chunk-claim race (ROADMAP item 5) hangs runs: every thread
# parks on a futex and the run never ends. Gated workloads therefore run
# on the caller thread alone until the race is fixed; tn-corelet, which
# must not be moved to one thread to dodge the stall, keeps nproc and is
# not gated. --threads overrides this, e.g. to reproduce the stall.
POOL_THREADS = {
    "scene-vga-hog": 1,
    "video-1080p-hog": 1,
    "serve-qvga-parrot": 1,
    "tn-corelet": None,
}
WORKLOADS = tuple(POOL_THREADS)
SETUP_REPS = 3          # set-ups per run; setup_s is their median
STALL_SECONDS = 30.0    # no progress for this long = the run has stalled
RUN_LIMIT_SECONDS = 170.0  # hard cap on one run, build included


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out_dir):
    """Configures (once) and builds pcnnbench; build output goes to
    stderr. Exits non-zero when the sources are missing or do not build."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "pcnnbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(step))
            sys.exit(2)
    return os.path.join(out_dir, "pcnnbench")


def run_pcnnbench(binary, args, env, deadline):
    """Runs pcnnbench under the watchdog. Returns (result dict or None,
    (started, finished) from the last heartbeat, reason it was stopped)."""
    proc = subprocess.Popen(binary + args, stdout=subprocess.PIPE,
                            stderr=sys.stderr, env=env)
    fd = proc.stdout.fileno()
    progress, result, reason = (0, 0), None, None
    last_change = time.monotonic()
    pending = b""
    while True:
        now = time.monotonic()
        if now - last_change > STALL_SECONDS:
            reason = "no progress for %.0f s" % STALL_SECONDS
        elif now > deadline:
            reason = "run exceeded its time limit"
        if reason:
            proc.kill()
            break
        # Unbuffered reads: a buffered reader could hold heartbeats that
        # select() no longer sees.
        ready, _, _ = select.select([fd], [], [], 1.0)
        if not ready:
            continue
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            break
        pending += chunk
        *lines, pending = pending.split(b"\n")
        for line in lines:
            text = line.decode().strip()
            if text.startswith("progress "):
                started, finished = (int(x) for x in text.split()[1:3])
                if (started, finished) != progress:
                    progress, last_change = (started, finished), now
            elif text.startswith("RESULT "):
                result = json.loads(text[len("RESULT "):])
            elif text:
                log(text)
    proc.wait()
    proc.stdout.close()
    if reason is None and proc.returncode != 0:
        reason = "pcnnbench exited with code %d" % proc.returncode
    return result, progress, reason


def end_to_end(raw):
    lat = raw["lat_ms"]
    served = len(lat)
    attempted = raw["attempted"]
    busy = raw["busy_s"]
    miss = raw["quality"].get("log_avg_miss_rate")
    return {
        "frames_per_s": served / busy if busy > 0 else None,
        "frame_ms_p50": analysis.percentile(lat, 0.5),
        "frame_ms_p90": analysis.percentile(lat, 0.9),
        "cells_per_s": raw["cells"] / busy if raw["cells"] and busy > 0
        else None,
        "ok_share": raw["ok_full"] / attempted,
        "fail_share": raw["failed"] / attempted,
        "log_avg_miss_rate": miss,
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw, trace_path):
    """Per-layer metrics of a traced run (README.md, "Per-layer metrics")."""
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    nodes = analysis.self_times(events)
    self_us, count = analysis.self_time_by_name(nodes)
    layer, serve = raw["layer"], raw["serve"]
    workload = raw["workload"]

    def ms(*names):
        return sum(self_us.get(n, 0.0) for n in names) / 1e3

    if workload == "serve-qvga-parrot":
        ops = sum(1 for i, n in enumerate(nodes)
                  if n["event"]["name"] == "detect.frame"
                  and analysis.has_ancestor(nodes, i, "serve.batch"))
    else:
        ops = count.get("bench.cell", 0) + count.get("bench.frame", 0)
    per_op = 1.0 / ops if ops else 0.0
    threads = raw["threads"]
    tile_cells = layer.get("tile_cells", 0.0)
    reused = layer.get("tiles_reused", 0.0)
    recomputed = layer.get("tiles_recomputed", 0.0)
    score_ms = layer.get("score_ns", 0.0) / 1e6 * per_op
    jobs = layer.get("pool_jobs", 0.0)
    inline = layer.get("pool_inline_jobs", 0.0)
    cells = raw["cells"]
    cell_spans = [n["event"]["dur"] for n in nodes
                  if n["event"]["name"] == "bench.cell"]
    tn_run_us = sum(n["event"]["dur"] for n in nodes
                    if n["event"]["name"] == "tn.run")
    core_ticks = layer.get("core_ticks", 0.0)
    lat, traced = raw["lat_ms"], raw["traced"]
    on = [x for x, t in zip(lat, traced) if t]
    off = [x for x, t in zip(lat, traced) if not t]

    # Temporal paths count recomputed tiles (a full recompute counts every
    # tile); the cold single-scene path computes every cell of the pyramid.
    if tile_cells:
        cells_computed = recomputed * tile_cells * per_op
    else:
        cells_computed = layer.get("cells_per_frame", 0.0)
    served = serve.get("sent", 0) - serve.get("rejected", 0)
    metrics = {
        "vision.pyramid_ms": ms("detect.pyramid") * per_op,
        "vision.pyramid_mpix": layer.get("pyramid_pixels_per_frame", 0.0) / 1e6,
        "extract.cell_grid_ms": ms("detect.cellGrid") * per_op,
        "extract.cells_computed": cells_computed,
        "extract.block_grid_ms": ms("detect.blockGrid") * per_op,
        "core.score_ms": score_ms,
        "core.windows_scored": layer.get("score_calls", 0.0) * per_op,
        "core.scan_ms": max(0.0, ms("detect.scan") * per_op
                            - score_ms / threads),
        "vision.nms_ms": ms("detect.nms") * per_op,
        "core.tile_hit_rate": reused / (reused + recomputed)
        if reused + recomputed else 0.0,
        "core.tiles_recomputed": recomputed * per_op,
        "core.windows_rescored": layer.get("windows_rescored", 0.0) * per_op,
        "core.frame_self_ms": ms("detect.frame", "detect.detectRaw",
                                 "detect.level", "detect.level.degraded",
                                 "detect.batch") * per_op,
        "serve.queue_ms_p50": pct(serve.get("queue_ms"), 0.5),
        "serve.queue_ms_p90": pct(serve.get("queue_ms"), 0.9),
        "serve.detect_ms_p50": pct(serve.get("detect_ms"), 0.5),
        "serve.detect_ms_p90": pct(serve.get("detect_ms"), 0.9),
        "serve.batch_size_mean": ops / count["serve.batch"]
        if count.get("serve.batch") else 0.0,
        "serve.degraded_share": serve.get("degraded", 0) / served
        if served else 0.0,
        "serve.rejected": serve.get("rejected", 0),
        "serve.expired": serve.get("expired", 0),
        "serve.transitions": serve.get("transitions", 0),
        "common.parallel.cpu_util": raw["cpu_s"] / raw["wall_s"]
        if raw["wall_s"] else 0.0,
        "common.parallel.jobs_per_op": jobs * per_op,
        "common.parallel.inline_share": inline / (jobs + inline)
        if jobs + inline else 0.0,
        "common.parallel.queue_us_p50": layer.get("pool_queue_us_p50", 0.0),
        "tn.us_per_cell": statistics.fmean(cell_spans) if cell_spans else 0.0,
        "tn.ns_per_core_tick": 1e3 * tn_run_us / core_ticks
        if core_ticks else 0.0,
        "tn.run_share": tn_run_us / sum(cell_spans) if cell_spans else 0.0,
        "tn.spikes_per_cell": layer.get("spikes", 0.0) / cells if cells else 0.0,
        "tn.ticks_per_cell": layer.get("ticks", 0.0) / cells if cells else 0.0,
        "bench.gen_late_ms_max": serve.get("gen_late_ms_max", 0.0),
        "bench.trace_overhead_pct":
            100.0 * (statistics.median(on) / statistics.median(off) - 1.0)
            if on and off else None,
    }
    # The stage table must explain the detection roots: the share of a
    # traced frame (or served batch) outside every program span is bounded.
    unexplained = analysis.unexplained_share(nodes, {"bench.frame",
                                                     "serve.batch"})
    return metrics, unexplained


def pct(values, q):
    return analysis.percentile(values, q) if values else 0.0


def print_table(title, metrics, units):
    print("%s" % title)
    for name, unit in units.items():
        if name not in metrics:
            continue
        value = metrics[name]
        shown = "n/a" if value is None else "%.6g" % value
        print("  %-30s %14s %s" % (name, shown, unit))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int,
                        help="pool size (default: POOL_THREADS, nproc if unset)")
    args = parser.parse_args()
    nproc = len(os.sched_getaffinity(0))
    threads = args.threads or POOL_THREADS[args.workload] or nproc

    started = time.monotonic()
    out_dir = build_dir()
    binary = build(out_dir)

    env = {k: v for k, v in os.environ.items() if not k.startswith("PCNN_")}
    env["PCNN_NUM_THREADS"] = str(threads)
    trace_path = os.path.join(out_dir, "runs", "trace-%s.json" % args.workload)
    if args.trace:
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        if os.path.exists(trace_path):
            os.remove(trace_path)
        env["PCNN_TRACE"] = trace_path
        env["PCNN_METRICS"] = os.path.join(
            out_dir, "runs", "metrics-%s.json" % args.workload)
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", str(args.trace),
                   "--setup-reps", str(SETUP_REPS), "--threads", str(threads)]
    raw, progress, reason = run_pcnnbench(
        [binary], bench_args, env, started + RUN_LIMIT_SECONDS)
    if reason is not None or raw is None:
        # A stalled or crashed run: every operation that started and did not
        # finish counts as failed.
        attempted = max(progress[0], 1)
        failed = attempted - progress[1]
        log("perfbench: %s: %s after %d started, %d finished operations"
            % (args.workload, reason or "no result", progress[0], progress[1]))
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed,
                          "metrics": {"fail_share": {
                              "value": failed / attempted, "unit": "share"}}}))
        return 3

    e2e = end_to_end(raw)
    correct = bool(raw["correct"])
    print("workload %s seed %d: %d attempted, %d failed, threads %d"
          % (args.workload, args.seed, raw["attempted"], raw["failed"],
             raw["threads"]))
    print_table("end-to-end:", e2e, END_TO_END_UNITS)
    for name, ok in raw["checks"].items():
        print("  check %-28s %s" % (name, "ok" if ok else "FAILED"))
    if raw["serve"].get("gen_behind"):
        print("  WARNING: generator fell behind its schedule by %.2f ms"
              % raw["serve"]["gen_late_ms_max"])

    if args.trace:
        layers, unexplained = per_layer(raw, trace_path)
        print_table("per-layer (traced operations):", layers, PER_LAYER_UNITS)
        if unexplained is not None:
            adds_up = unexplained <= analysis.ADD_UP_TOLERANCE
            print("  check %-28s %s (%.2f%% outside the stage spans)"
                  % ("trace_adds_up", "ok" if adds_up else "FAILED",
                     100 * unexplained))
            correct = correct and adds_up
        selected, units = layers, PER_LAYER_UNITS
    else:
        selected = {k: e2e[k] for k in GATED_END_TO_END}
        units = END_TO_END_UNITS
    missing = [k for k, v in selected.items() if v is None]
    if missing:
        log("perfbench: no value for %s (too few operations?)"
            % ", ".join(missing))
        correct = False
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v if v is not None else 0.0,
                        "unit": units[k]} for k, v in selected.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
