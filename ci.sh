#!/usr/bin/env bash
# Tier-1 verification: configure with src/ warnings promoted to errors,
# build everything, and run the full test suite.
#
# Usage: ./ci.sh [builddir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")"

BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S . -DPCNN_WERROR=ON
cmake --build "$BUILD_DIR" -j"$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

# The fast label again under both kernel dispatch settings: once with the
# batched SIMD kernels (the default) and once with PCNN_SIMD=off forcing
# the scalar reference path, so a vectorization regression in either
# implementation -- or a parity break between them -- fails CI.
ctest --test-dir "$BUILD_DIR" -L fast --output-on-failure -j"$(nproc)"
PCNN_SIMD=off ctest --test-dir "$BUILD_DIR" -L fast --output-on-failure \
  -j"$(nproc)"

# And once with the dense TrueNorth reference engine (the default is the
# event-driven engine), so a regression in either tick loop -- or a parity
# break between them -- fails CI the same way the SIMD re-run does.
PCNN_TN_ENGINE=dense ctest --test-dir "$BUILD_DIR" -L fast \
  --output-on-failure -j"$(nproc)"

# ASan + UBSan tree over the fast, bundle, and video labels
# (PCNN_SANITIZE=ON skippable for quick local iterations: PCNN_SANITIZE=OFF
# ./ci.sh). The fault-injection, corrupt-file and corrupt-bundle regression
# tests are in these labels on purpose -- they feed the deserializers and
# the simulator deliberately hostile input, so they run memory- and
# UB-checked on every CI pass; the video label adds the temporal-reuse
# cache (persistent grids spliced in place, parallel rescoring) to the same
# scrutiny.
if [[ "${PCNN_SANITIZE:-ON}" == "ON" ]]; then
  cmake -B "$BUILD_DIR-asan" -S . -DPCNN_WERROR=ON -DPCNN_SANITIZE=ON
  cmake --build "$BUILD_DIR-asan" -j"$(nproc)"
  ctest --test-dir "$BUILD_DIR-asan" -L 'fast|bundle|video|serve' \
    --output-on-failure -j"$(nproc)"

  # ThreadSanitizer tree over the fast + serve labels: the serving layer
  # hands frames, promises, and ladder state between the admission threads
  # and the worker, so data races there must fail CI, not surface as
  # corrupted responses under production load.
  cmake -B "$BUILD_DIR-tsan" -S . -DPCNN_WERROR=ON -DPCNN_SANITIZE=thread
  cmake --build "$BUILD_DIR-tsan" -j"$(nproc)"
  ctest --test-dir "$BUILD_DIR-tsan" -L 'fast|serve' \
    --output-on-failure -j"$(nproc)"
fi

# Observability smoke: a traced detection run must produce valid, non-empty
# Chrome-trace and metrics JSON with the spans/counters the layer promises,
# and a run without the env vars must produce no report files at all.
OBS_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR"' EXIT
PD_BIN="$(cd "$BUILD_DIR" && pwd)/examples/pedestrian_detection"
PR_BIN="$(cd "$BUILD_DIR" && pwd)/examples/power_report"
PCNN_TRACE="$OBS_DIR/trace.json" PCNN_METRICS="$OBS_DIR/metrics.json" \
  "$PD_BIN" 1 7 hog >/dev/null
python3 - "$OBS_DIR/trace.json" "$OBS_DIR/metrics.json" <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
events = {e["name"] for e in trace["traceEvents"]}
assert trace["traceEvents"], "trace has no events"
for name in ("detect.pyramid", "detect.cellGrid", "detect.scan"):
    assert name in events, f"missing span {name}: {sorted(events)}"
metrics = json.load(open(sys.argv[2]))
assert metrics["counters"].get("windows_scanned", 0) > 0, metrics["counters"]
print("obs smoke: trace+metrics JSON valid "
      f"({len(trace['traceEvents'])} events, "
      f"{metrics['counters']['windows_scanned']} windows scanned)")
EOF
PCNN_METRICS="$OBS_DIR/tn_metrics.json" "$PR_BIN" >/dev/null
python3 - "$OBS_DIR/tn_metrics.json" <<'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
assert counters.get("tn.spikes", 0) > 0, counters
assert counters.get("tn.ticks", 0) > 0, counters
print(f"obs smoke: tn counters non-zero (spikes={counters['tn.spikes']})")
EOF
# Disabled mode: no report env vars -> no report files may appear, even
# with a streaming period configured (a period without PCNN_METRICS must
# not start the exporter or touch the filesystem).
(cd "$OBS_DIR" && PCNN_METRICS_PERIOD_MS=25 "$PD_BIN" 1 7 hog >/dev/null)
LEFTOVER="$(find "$OBS_DIR" -name '*.json' ! -name trace.json \
  ! -name metrics.json ! -name tn_metrics.json)"
test -z "$LEFTOVER" || { echo "unexpected obs output: $LEFTOVER"; exit 1; }

# Streaming smoke: a periodic export over a real detection run must append
# multiple independently parseable NDJSON window lines with increasing seq
# and per-window deltas, and the exit-time path must not double-write a
# cumulative report into the stream.
PCNN_METRICS="$OBS_DIR/stream.ndjson" PCNN_METRICS_PERIOD_MS=25 \
  "$PD_BIN" 2 7 hog >/dev/null
python3 - "$OBS_DIR/stream.ndjson" <<'EOF'
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert len(lines) >= 2, f"expected >=2 windows, got {len(lines)}"
windows = [json.loads(l) for l in lines]
seqs = [w["seq"] for w in windows]
assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs), seqs
assert all("counters" in w or "gauges" in w for w in windows), windows[0]
scanned = sum(w.get("counters", {}).get("windows_scanned", 0)
              for w in windows)
assert scanned > 0, "no windows_scanned deltas streamed"
print(f"stream smoke: {len(lines)} NDJSON windows, seq {seqs[0]}..{seqs[-1]}, "
      f"{scanned} windows_scanned streamed")
EOF

# Prometheus smoke: a .prom metrics path must yield valid text exposition
# -- exactly one `# TYPE` per metric, and every sample line belonging to a
# declared metric.
PCNN_METRICS="$OBS_DIR/metrics.prom" "$PD_BIN" 1 7 hog >/dev/null
python3 - "$OBS_DIR/metrics.prom" <<'EOF'
import sys
declared = []
samples = 0
for line in open(sys.argv[1]):
    line = line.rstrip("\n")
    if not line:
        continue
    if line.startswith("# TYPE "):
        name = line.split()[2]
        assert name not in declared, f"duplicate TYPE for {name}"
        declared.append(name)
        continue
    assert not line.startswith("#"), f"unexpected comment: {line}"
    assert any(line.startswith(n) for n in declared), \
        f"sample without TYPE declaration: {line}"
    samples += 1
assert "pcnn_windows_scanned" in declared, declared
assert any(n.endswith("_us") for n in declared), declared
print(f"prom smoke: {len(declared)} metrics declared, {samples} samples")
EOF

# Fault + flight smoke: a fault-injected robustness run with the flight
# recorder armed must leave a dump whose ring tail holds both the
# tn.faults.* count events and the degraded detect.level spans -- the
# incident-capture path end to end. (Under PCNN_FAULTS the report's
# zero-fault bitwise check is reported but not enforced in its exit
# code; the env plan reaches every network including the baseline.)
RR_BIN="$(cd "$BUILD_DIR" && pwd)/examples/robustness_report"
PCNN_FAULTS="drop=0.05,seed=7" PCNN_FLIGHT="$OBS_DIR/flight.json" \
  "$RR_BIN" "$OBS_DIR/robustness.json" >/dev/null
python3 - "$OBS_DIR/flight.json" "$OBS_DIR/robustness.json" <<'EOF'
import json, sys
dump = json.load(open(sys.argv[1]))
events = dump["events"]
assert events, "flight dump has no events"
faults = [e for e in events
          if e["kind"] == "count" and e["name"].startswith("tn.faults.")]
assert faults, sorted({e["name"] for e in events})
degraded = [e for e in events if e["kind"] == "begin"
            and e["name"] in ("detect.level", "detect.level.degraded")]
assert degraded, sorted({e["name"] for e in events})
ts = [e["ts_us"] for e in events]
assert ts == sorted(ts), "flight events not time-ordered"
rob = json.load(open(sys.argv[2]))
assert rob["degraded_detection"]["levels_skipped"] > 0, rob
print(f"flight smoke: {len(events)} events ({len(faults)} tn fault counts, "
      f"{len(degraded)} degraded-path spans), reason={dump['reason']}")
EOF

# Bundle smoke: train a tiny pipeline, pack it into a model bundle, verify
# its content hash and score parity across two independent loads, then run
# the detection example against it (the deployment path -- no in-process
# training). The whole train-once/reload-by-name contract, end to end.
BUNDLE="$OBS_DIR/smoke.pcnb"
BT_BIN="$(cd "$BUILD_DIR" && pwd)/examples/bundle_tool"
"$BT_BIN" pack "$BUNDLE" hog --windows 30 >/dev/null
"$BT_BIN" inspect "$BUNDLE" >/dev/null
"$BT_BIN" verify "$BUNDLE"
PCNN_BUNDLE="$BUNDLE" "$PD_BIN" 1 7 >/dev/null
echo "bundle smoke: pack + verify + bundle-loaded detection passed"

# Video smoke: bench_video on a tiny burst (8 frames at 320x240) must emit
# per-frame detect.frame spans and actually reuse tiles (nonzero
# detect.tiles_reused counter) -- the temporal path working end to end, not
# just compiling.
BV_BIN="$(cd "$BUILD_DIR" && pwd)/bench/bench_video"
PCNN_TRACE="$OBS_DIR/video_trace.json" \
  PCNN_METRICS="$OBS_DIR/video_metrics.json" \
  "$BV_BIN" "$OBS_DIR/video_bench.json" 8 320 240 1 >/dev/null
python3 - "$OBS_DIR/video_trace.json" "$OBS_DIR/video_metrics.json" \
  "$OBS_DIR/video_bench.json" <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
events = {e["name"] for e in trace["traceEvents"]}
for name in ("detect.batch", "detect.frame", "detect.level"):
    assert name in events, f"missing span {name}: {sorted(events)}"
counters = json.load(open(sys.argv[2]))["counters"]
assert counters.get("detect.frames", 0) > 0, counters
assert counters.get("detect.tiles_reused", 0) > 0, counters
assert counters.get("detect.tiles_recomputed", 0) > 0, counters
bench = json.load(open(sys.argv[3]))
assert bench["backends"], bench
for name, row in bench["backends"].items():
    assert row["temporal_fps"] > 0, (name, row)
print("video smoke: detect.frame spans + tile reuse counters present "
      f"(reused={counters['detect.tiles_reused']}, "
      f"recomputed={counters['detect.tiles_recomputed']})")
EOF

# Serve smoke: bench_serve at a heavily overloaded point with the metrics
# stream on must show the admission ladder actually working -- rejected
# requests, a serve.level transition observable in the streamed windows --
# and write a well-formed BENCH_serve.json on the shared provenance schema.
BS_BIN="$(cd "$BUILD_DIR" && pwd)/bench/bench_serve"
PCNN_METRICS="$OBS_DIR/serve_stream.ndjson" PCNN_METRICS_PERIOD_MS=25 \
  "$BS_BIN" "$OBS_DIR/serve_bench.json" 40 320 240 smoke >/dev/null
python3 - "$OBS_DIR/serve_stream.ndjson" "$OBS_DIR/serve_bench.json" <<'EOF'
import json, sys
windows = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert windows, "no metrics windows streamed"
rejected = sum(w.get("counters", {}).get("serve.rejected", 0)
               for w in windows)
assert rejected > 0, "overloaded run never rejected at admission"
transitions = sum(w.get("counters", {}).get("serve.level.transitions", 0)
                  for w in windows)
assert transitions > 0, "no serve.level transition in the metrics windows"
levels = [w["gauges"]["serve.level"] for w in windows
          if "serve.level" in w.get("gauges", {})]
assert levels and max(levels) >= 1, f"ladder never left full quality: {levels}"
bench = json.load(open(sys.argv[2]))
assert bench["bench"] == "serve" and "provenance" in bench, bench.keys()
assert bench["points"], "no offered-load points"
overloaded = bench["points"][-1]
assert overloaded["rejected"] > 0 and overloaded["degraded"] > 0, overloaded
print(f"serve smoke: {rejected} rejected, {transitions} ladder transitions "
      f"(max level {max(levels):.0f}) across {len(windows)} windows; "
      f"overloaded point shed {overloaded['shed_rate']:.0%}")
EOF

# Benchmark smoke: the perfbench harness self-tests, then a short traced
# run of the gated Fig. 4 workload. Its output checks (thread parity of the
# detections, stage spans adding up to the traced frames) must pass; the
# run's timings are not judged here. perfbench builds its own tree.
BENCH_TREE="$(cd "$BUILD_DIR" && pwd)-bench"
CARGO_TARGET_DIR="$BENCH_TREE" \
  python3 -m unittest discover -s perfbench -p 'test_*.py'
CARGO_TARGET_DIR="$BENCH_TREE" python3 perfbench/run.py \
  --workload scene-vga-hog --seed 1 --seconds 5 --trace 1 \
  > "$OBS_DIR/perfbench.txt" \
  || { tail -n 40 "$OBS_DIR/perfbench.txt"; exit 1; }
python3 - "$OBS_DIR/perfbench.txt" <<'EOF'
import json, sys
lines = open(sys.argv[1]).read().splitlines()
result = json.loads(lines[-1])
assert result["correct"] is True, lines[-20:]
assert result["failed"] == 0, result
print(f"perfbench smoke: scene-vga-hog traced, {result['attempted']} frames, "
      "all checks ok")
EOF

echo "ci.sh: build + tests (incl. scalar-dispatch + dense-engine + asan fast|bundle|video|serve and tsan fast|serve re-runs + obs, stream, prom, flight, bundle, video, serve & perfbench smoke) passed"
