#!/usr/bin/env bash
# Benchmark-regression harness: runs the perf benches (perf_music,
# perf_pipeline, perf_memory) in google-benchmark's JSON mode and merges
# them into a single machine-diffable snapshot. The checked-in BENCH_<PR>.json files
# give every future PR a perf trajectory to defend — regenerate on the
# same machine and compare real_time per benchmark.
#
# Usage: bench/bench_to_json.sh <build-dir> <out.json> [--smoke]
#   --smoke  near-zero min-time per benchmark: exercises the full runner
#            path in seconds (CI uses this; numbers are NOT stable).
#
# The snapshot's `context` is google-benchmark's (num_cpus, mhz_per_cpu,
# ...) plus `cpu_model`, the first `model name` line of /proc/cpuinfo
# ("unknown" where there is none): bench_regression.py's normalized
# ratios only carry between hosts of the same CPU model.
#
# Benches registered with Repetitions() + ReportAggregatesOnly() (the ones
# whose single iteration fills the time budget, and the reference loop
# bench_regression.py normalizes by) are stored under their plain name
# with the median's times, plus `repetitions` and `real_time_cv`
# (standard deviation over mean of the repetitions).
#
# Do not export SPOTFI_THREADS when running this: the pipeline benches
# parameterize thread counts explicitly (threads:1 vs threads:4) and the
# env override would collapse every variant onto one value.
set -euo pipefail

BUILD_DIR=${1:?usage: bench_to_json.sh <build-dir> <out.json> [--smoke]}
OUT=${2:?usage: bench_to_json.sh <build-dir> <out.json> [--smoke]}
MODE=${3:-}

MIN_TIME=0.5
if [[ "${MODE}" == "--smoke" ]]; then
  MIN_TIME=0.01
fi

if [[ -n "${SPOTFI_THREADS:-}" ]]; then
  echo "bench_to_json: unset SPOTFI_THREADS first (it overrides the" \
       "per-benchmark thread parameterization)" >&2
  exit 1
fi

TMP=$(mktemp -d)
trap 'rm -rf "${TMP}"' EXIT

"${BUILD_DIR}/bench/perf_music" \
  --benchmark_format=json --benchmark_min_time="${MIN_TIME}" \
  > "${TMP}/perf_music.json"
"${BUILD_DIR}/bench/perf_pipeline" \
  --benchmark_format=json --benchmark_min_time="${MIN_TIME}" \
  > "${TMP}/perf_pipeline.json"
"${BUILD_DIR}/bench/perf_memory" \
  --benchmark_format=json --benchmark_min_time="${MIN_TIME}" \
  > "${TMP}/perf_memory.json"
"${BUILD_DIR}/bench/perf_sessions" \
  --benchmark_format=json --benchmark_min_time="${MIN_TIME}" \
  > "${TMP}/perf_sessions.json"
"${BUILD_DIR}/bench/perf_transport" \
  --benchmark_format=json --benchmark_min_time="${MIN_TIME}" \
  > "${TMP}/perf_transport.json"
"${BUILD_DIR}/bench/perf_durability" \
  --benchmark_format=json --benchmark_min_time="${MIN_TIME}" \
  > "${TMP}/perf_durability.json"

python3 - "${TMP}/perf_music.json" "${TMP}/perf_pipeline.json" \
  "${TMP}/perf_memory.json" "${TMP}/perf_sessions.json" \
  "${TMP}/perf_transport.json" "${TMP}/perf_durability.json" \
  "${OUT}" "${MODE}" <<'PY'
import json
import re
import sys

(music_path, pipeline_path, memory_path, sessions_path, transport_path,
 durability_path, out_path, mode) = sys.argv[1:9]

# google-benchmark reports real_time/cpu_time in each entry's time_unit
# (a bench registered with ->Unit(kMillisecond) reports milliseconds);
# the snapshot stores nanoseconds.
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def cpu_model():
    """The first `model name` line of /proc/cpuinfo, or "unknown"."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


# google-benchmark appends "/repeats:N" to a repeated bench's name.
REPEATS = re.compile(r"/repeats:\d+$")

merged = {
    "schema": "spotfi-bench-v1",
    "smoke": mode == "--smoke",
    "suites": {},
}
for name, path in (("perf_music", music_path),
                   ("perf_pipeline", pipeline_path),
                   ("perf_memory", memory_path),
                   ("perf_sessions", sessions_path),
                   ("perf_transport", transport_path),
                   ("perf_durability", durability_path)):
    with open(path) as f:
        raw = json.load(f)
    merged.setdefault("context", raw.get("context", {}))
    suite = []
    cvs = {}
    for b in raw.get("benchmarks", []):
        bench_name = b["name"]
        if b.get("run_type") == "aggregate":
            # A repeated bench: its median stands in under the plain name,
            # and its CV rides along; mean and stddev are dropped.
            bench_name = REPEATS.sub("", b["run_name"])
            if b["aggregate_name"] == "cv":
                cvs[bench_name] = b["real_time"]
            if b["aggregate_name"] != "median":
                continue
        scale = NS_PER_UNIT[b.get("time_unit", "ns")]
        entry = {
            "name": bench_name,
            "real_time_ns": b["real_time"] * scale,
            "cpu_time_ns": b["cpu_time"] * scale,
            "iterations": b["iterations"],
        }
        if b.get("run_type") == "aggregate":
            entry["repetitions"] = b["repetitions"]
        # Memory benches attach custom counters (allocs/bytes per packet,
        # arena high-water); session benches attach p99 round latency;
        # the spectrum stage bench, the ToF columns it sweeps. Keep them
        # so the zero-allocation contract, the tail-latency trajectory
        # and the sweep's pruning are visible in the snapshot.
        for key in ("allocs_per_packet", "bytes_per_packet",
                    "arena_high_water_bytes", "p99_round_ms", "sessions",
                    "items_per_second", "swept_cols"):
            if key in b:
                entry[key] = b[key]
        suite.append(entry)
    for entry in suite:
        if entry["name"] in cvs:
            entry["real_time_cv"] = cvs[entry["name"]]
    merged["suites"][name] = suite
merged["context"]["cpu_model"] = cpu_model()
# Snapshots from machines with different core counts do not compare
# (the threads:N benches), so the count sits beside the results.
merged["num_cpus"] = merged["context"].get("num_cpus")

with open(out_path, "w") as f:
    json.dump(merged, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out_path}")
PY
