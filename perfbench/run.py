#!/usr/bin/env python3
"""Closed-loop serving benchmark for the SpotFi engine.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary from source (CMake, into .bench_build/ at the
repository root), runs one workload in a fresh process, checks its
outputs, prints the metrics as a table, and prints one JSON object as
the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of an untraced run. --trace 1
runs the same workload and seed twice, untraced and then traced,
requires both runs to produce the same fix-stream digest, and reports
the per-layer metrics of the traced run plus the tracing overhead.
Workloads and metrics are listed in BENCHMARK.json; README.md explains
them.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("office_music", "tenants_esprit", "uplink_durable")
# The whole command, which may run the binary twice, must end within
# 180 s; each run gets what is left of this budget.
BUDGET_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))


def run_binary(workload, seed, seconds, trace, deadline):
    env = dict(os.environ)
    env.pop("SPOTFI_THREADS", None)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", OUT_DIR]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          env=env, timeout=max(1.0, deadline - time.monotonic()),
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError("perfbench exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("perfbench printed no result")
    return json.loads(lines[-1])


def fmt(value):
    return "%.6g" % value


def table(title, metrics):
    rows = [title, "-" * len(title)]
    width = max([len(k) for k in metrics] + [10])
    for name, m in metrics.items():
        rows.append("%-*s %14s %s" % (width, name, fmt(m["value"]), m["unit"]))
    return rows


def side_by_side(left, right):
    width = max(len(r) for r in left) + 4
    out = []
    for i in range(max(len(left), len(right))):
        a = left[i] if i < len(left) else ""
        b = right[i] if i < len(right) else ""
        out.append(a.ljust(width) + b)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
        # The first run of a checkout pays for the build; the budget
        # covers the runs themselves.
        deadline = time.monotonic() + BUDGET_S
        plain = run_binary(args.workload, args.seed, args.seconds, False, deadline)
        traced = None
        if args.trace:
            traced = run_binary(args.workload, args.seed, args.seconds, True,
                                deadline)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        return 1

    violations = list(plain["violations"])
    header = "%s seed=%d seconds=%d digest=%s" % (
        args.workload, args.seed, args.seconds, plain["digest"])
    info = plain["info"]
    lines = [header,
             "tail = p%g with %d of %d fixes beyond it; fail_frac = %.6g" % (
                 info["tail_percentile"]["value"], info["tail_beyond"]["value"],
                 info["fixes"]["value"], info["fail_frac"]["value"]), ""]
    e2e_rows = table("end to end (untraced)", plain["end_to_end"])
    if traced is None:
        metrics = plain["end_to_end"]
        lines += e2e_rows
    else:
        violations += traced["violations"]
        if traced["digest"] != plain["digest"]:
            violations.append("traced digest %s != untraced digest %s" % (
                traced["digest"], plain["digest"]))
        metrics = dict(traced["per_layer"])
        fps_plain = plain["end_to_end"]["fixes_per_s"]["value"]
        fps_traced = traced["end_to_end"]["fixes_per_s"]["value"]
        metrics["bench.trace_overhead_frac"] = {
            "value": fps_plain / fps_traced - 1.0, "unit": "ratio"}
        lines += side_by_side(e2e_rows, table("per layer (traced)", metrics))
    for v in violations:
        lines.append("CHECK FAILED: " + v)
    print("\n".join(lines))
    print(json.dumps({"correct": not violations,
                      "attempted": plain["attempted"],
                      "failed": plain["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
