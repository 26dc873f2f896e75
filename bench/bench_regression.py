#!/usr/bin/env python3
"""Bench-regression gate: fail when the candidate run is >N% slower.

Compares a fresh bench_to_json.sh snapshot against the checked-in
baseline (BENCH_<N>.json). Raw nanoseconds are not comparable across
machines, so every benchmark is first normalized by a reference kernel
measured in the *same* file (default: BM_Reference_DependentLoop, a
frozen chain of dependent floating-point operations in perf_music.cpp
that calls nothing in the library, so no library change can move the
yardstick every other ratio is read against). The gate then compares
normalized ratios:

    regression = (t_cand / ref_cand) / (t_base / ref_base) - 1

and fails when any benchmark regresses past the threshold (default
15%). Benchmarks present on only one side are reported but do not
fail the timing gate — new benches have no baseline yet, retired ones
no candidate.

The zero-allocation contract is machine-independent, so it is gated
exactly: the steady-state packet benches (`BM_PacketEstimate_Workspace*`)
and the session-layer admission bench (`BM_SessionAdmit_Steady*`) must
report 0 allocs/packet — shedding under overload must never touch the
heap — as must the journal-append bench (`BM_JournalAppend_Steady*`),
whose preallocated record buffer keeps durability off the allocator. Group-stage benches (`BM_GroupProcess_*`) are exempt — their
counters intentionally report the constant per-group bookkeeping
amortized over the group size, which is small but nonzero. A baseline
zero-allocation bench that carries `allocs_per_packet` must appear in
the candidate with that counter: renaming or dropping one would
otherwise retire its gate silently, so a missing one fails. The session
throughput benches (`BM_SessionRounds/*`) participate in the normalized
>threshold gate like every other benchmark.

The reference loop is latency-bound and the kernels are not, so the
ratios do not carry across CPU models. The gate prints each side's
`cpu_model`, `mhz_per_cpu` and `num_cpus` from the snapshot context and
warns when the recorded CPU models or clock rates differ; the pass/fail
rule does not read them.

Usage:
    bench_regression.py <baseline.json> <candidate.json>
        [--threshold 0.15] [--reference BM_Reference_DependentLoop]
    bench_regression.py <candidate.json>               # newest BENCH_*.json
    bench_regression.py --baseline <path> <candidate.json>

The baseline may be named three ways: positionally (first of two
paths), via --baseline (reads naturally in scripts), or omitted
entirely — in which case the highest-numbered checked-in BENCH_<N>.json
next to the repo root is used, so a local before/after comparison of a
refactor is just `bench_regression.py my_run.json`.
"""

import argparse
import glob
import json
import os
import re
import sys


def default_baseline():
    """The highest-numbered checked-in BENCH_<N>.json (repo root)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    best = None
    best_n = -1
    for path in glob.glob(os.path.join(root, "BENCH_*.json")):
        m = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if m and int(m.group(1)) > best_n:
            best_n = int(m.group(1))
            best = path
    if best is None:
        sys.exit("bench_regression: no checked-in BENCH_<N>.json found; "
                 "name a baseline explicitly (positionally or --baseline)")
    return best


def require(entry, key, path):
    """Fetch a required key from a benchmark entry with a clean error.

    A hand-edited or truncated BENCH_*.json used to surface as a raw
    KeyError traceback; name the offending key and file instead.
    """
    try:
        return entry[key]
    except (KeyError, TypeError):
        name = entry.get("name", "<unnamed>") if isinstance(entry, dict) \
            else "<malformed>"
        sys.exit(f"bench_regression: benchmark entry {name!r} in {path} "
                 f"is missing required key {key!r}")


def load_entries(path):
    with open(path) as f:
        raw = json.load(f)
    if raw.get("schema") != "spotfi-bench-v1":
        sys.exit(f"{path}: not a spotfi-bench-v1 snapshot")
    entries = {}
    for suite in raw.get("suites", {}).values():
        for b in suite:
            entries[require(b, "name", path)] = b
    return entries, bool(raw.get("smoke")), raw.get("context", {})


def host_warnings(base_ctx, cand_ctx):
    """Why the two snapshots may not compare: the hosts differ.

    A CPU model counts as recorded when the snapshot names one other
    than bench_to_json.sh's "unknown".
    """
    warnings = []
    models = [ctx.get("cpu_model") for ctx in (base_ctx, cand_ctx)]
    if all(m not in (None, "unknown") for m in models) and \
            models[0] != models[1]:
        warnings.append(f"CPU models differ ({models[0]!r} vs "
                        f"{models[1]!r})")
    clocks = [ctx.get("mhz_per_cpu") for ctx in (base_ctx, cand_ctx)]
    if clocks[0] != clocks[1]:
        warnings.append(f"mhz_per_cpu differs ({clocks[0]} vs {clocks[1]})")
    return warnings


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="+", metavar="json",
                    help="<baseline> <candidate>, or just <candidate> "
                         "(baseline defaults to the newest BENCH_<N>.json)")
    ap.add_argument("--baseline", default=None,
                    help="explicit baseline snapshot path (overrides the "
                         "checked-in BENCH_<N>.json convention)")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="maximum tolerated normalized slowdown (0.15 = 15%%)")
    ap.add_argument("--reference", default="BM_Reference_DependentLoop",
                    help="kernel used to normalize out machine speed")
    args = ap.parse_args()

    if len(args.paths) == 2:
        if args.baseline is not None:
            sys.exit("bench_regression: --baseline conflicts with naming "
                     "two positional paths")
        args.baseline, args.candidate = args.paths
    elif len(args.paths) == 1:
        args.candidate = args.paths[0]
        if args.baseline is None:
            args.baseline = default_baseline()
            print(f"baseline defaulted to {args.baseline}")
    else:
        sys.exit("bench_regression: expected <candidate> or "
                 "<baseline> <candidate>")

    base, base_smoke, base_ctx = load_entries(args.baseline)
    cand, cand_smoke, cand_ctx = load_entries(args.candidate)
    if base_smoke or cand_smoke:
        # Smoke numbers come from near-zero min-time runs and are pure
        # noise; gating on them would make CI flaky.
        sys.exit("bench_regression: refusing to gate on --smoke snapshots "
                 "(regenerate without --smoke)")

    for name, entries in (("baseline", base), ("candidate", cand)):
        if args.reference not in entries:
            sys.exit(f"bench_regression: reference {args.reference} "
                     f"missing from {name}")
    ref_base = require(base[args.reference], "real_time_ns", args.baseline)
    ref_cand = require(cand[args.reference], "real_time_ns", args.candidate)
    if ref_base <= 0 or ref_cand <= 0:
        sys.exit("bench_regression: non-positive reference timing")

    for name, ctx in (("baseline", base_ctx), ("candidate", cand_ctx)):
        print(f"{name} host: cpu_model {ctx.get('cpu_model', 'unrecorded')}, "
              f"mhz_per_cpu {ctx.get('mhz_per_cpu')}, "
              f"num_cpus {ctx.get('num_cpus')}")
    for warning in host_warnings(base_ctx, cand_ctx):
        print(f"WARNING: {warning}: normalized ratios do not carry across "
              "hosts, so this comparison may not mean what it says")

    failures = []
    print(f"reference {args.reference}: baseline {ref_base:.1f} ns, "
          f"candidate {ref_cand:.1f} ns "
          f"(machine-speed ratio {ref_cand / ref_base:.3f}x)")
    for name in sorted(set(base) | set(cand)):
        if name == args.reference:
            continue
        if name not in base:
            print(f"  NEW      {name} (no baseline, not gated)")
            continue
        if name not in cand:
            print(f"  RETIRED  {name} (no candidate, not gated)")
            continue
        norm_base = require(base[name], "real_time_ns", args.baseline) / ref_base
        norm_cand = require(cand[name], "real_time_ns", args.candidate) / ref_cand
        change = norm_cand / norm_base - 1.0
        tag = "ok"
        if change > args.threshold:
            tag = "REGRESSED"
            failures.append(f"{name}: {change * 100.0:+.1f}% normalized "
                            f"(threshold {args.threshold * 100.0:.0f}%)")
        print(f"  {tag:9s} {name}: {change * 100.0:+.1f}% normalized")

    # Exact zero-allocation gate: only the steady-state benches promise
    # 0 — the per-packet arena path and the session admission/shed path.
    # BM_GroupProcess_Workspace reports the per-group bookkeeping
    # constant amortized over group size (nonzero by design).
    zero_alloc_patterns = ("PacketEstimate_Workspace", "SessionAdmit_Steady",
                           "TransportDeliver_Steady", "JournalAppend_Steady")

    def zero_alloc_gated(name, entry):
        return (any(p in name for p in zero_alloc_patterns)
                and "allocs_per_packet" in entry)

    # A gated baseline bench missing from the candidate (renamed,
    # deleted, or stripped of its counter) would drop its gate unseen.
    for name, entry in sorted(base.items()):
        if zero_alloc_gated(name, entry) and not zero_alloc_gated(
                name, cand.get(name, {})):
            failures.append(f"{name}: zero-allocation bench missing from the "
                            "candidate (or lost its allocs_per_packet "
                            "counter); its gate would be retired silently")
    for name, entry in sorted(cand.items()):
        if zero_alloc_gated(name, entry):
            allocs = entry["allocs_per_packet"]
            if allocs > 0:
                failures.append(f"{name}: {allocs} heap allocations per "
                                "packet on the steady-state path (expected 0)")
            else:
                print(f"  ok        {name}: 0 allocs/packet")

    if failures:
        print("\nbench_regression: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nbench_regression: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
