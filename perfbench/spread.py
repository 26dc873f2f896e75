#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--out perfbench/RESULTS.json]

Builds the benchmark as run.py does, then runs every workload in
BENCHMARK.json untraced for its run_seconds, once per seed 1..10, and
repeats that set of ten. For every end-to-end metric it reports, per
set, the median, the first and third quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median, then how much worse the second
set's median is than the first's, as a share of the first.
BENCHMARK.json's bounds are meant to hold three times the spread and the
shift. With --out the figures are also written as JSON, together with
the machine they were measured on and each workload's lanes, tail
percentile and fix count as the benchmark binary reports them.
"""

import argparse
import json
import os
import platform
import re
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (run.py beside this file)

SEEDS = list(range(1, 11))
SETS = 2


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the figures to this JSON file")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    spec = {m["name"]: m for m in bench["end_to_end"]}
    run.build()

    results = []
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        info = None
        for _ in range(SETS):
            values, correct = {}, True
            for seed in SEEDS:
                result = run.run_binary(workload, seed, seconds, False,
                                        time.monotonic() + run.BUDGET_S)
                correct = correct and not result["violations"]
                info = result["info"]
                for name, m in result["end_to_end"].items():
                    values.setdefault(name, []).append(m["value"])
            sets.append({"correct": correct,
                         "metrics": {n: summarize(v) for n, v in values.items()}})
        print("%s: %d sets of %d runs, seeds %d..%d%s" % (
            workload, SETS, len(SEEDS), SEEDS[0], SEEDS[-1],
            "" if all(s["correct"] for s in sets) else "  CHECK FAILED"))
        shifts = {}
        for name in sets[0]["metrics"]:
            first = sets[0]["metrics"][name]["median"]
            last = sets[-1]["metrics"][name]["median"]
            worse = (last - first) if spec[name]["better"] == "lower" else (first - last)
            shifts[name] = worse / first if first else 0.0
            bound = spec[name]["bound"]
            spreads = [s["metrics"][name]["spread"] for s in sets]
            flag = "" if max(spreads) < bound / 3 and shifts[name] < bound / 3 else \
                "  > bound/3"
            print("  %-16s median %-11.6g spread %s  last-vs-first %+.4f (bound %s)%s" % (
                name, first, " ".join("%.4f" % x for x in spreads), shifts[name],
                bound, flag))
        results.append({"workload": workload,
                        "lanes": info["lanes"]["value"],
                        "tail_percentile": info["tail_percentile"]["value"],
                        "fixes": info["fixes"]["value"],
                        "seeds": SEEDS, "sets": sets, "median_shift": shifts})

    if args.out:
        doc = {"machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                           "kernel": platform.release()},
               "run_seconds": seconds, "workloads": results}
        text = json.dumps(doc, indent=1)
        # One line per list of numbers keeps the file short and diffable.
        text = re.sub(r"\[\s*([-+0-9.e,\s]+?)\s*\]",
                      lambda m: "[" + re.sub(r"\s+", " ", m.group(1)) + "]", text)
        with open(args.out, "w") as f:
            f.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
