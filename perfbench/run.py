#!/usr/bin/env python3
"""Repository benchmark: builds `perfbench` from source, runs one workload
for a fixed time and prints one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. Each iteration is its own process (so
its peak RSS is its own); the run repeats iterations until `--seconds`
have passed, at least MIN_ITERATIONS times. `--trace 0` reports the
end-to-end metrics: medians over the iterations, and property check
times over all checks of the run. `--trace 1` alternates untraced
and traced iterations and reports the per-layer metrics. An iteration
that fails ends the run: its golden lines count as failed, and the
result line is still printed. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

BENCH_DIR = "perfbench"
GOLDEN_DIR = os.path.join(BENCH_DIR, "golden")
# Minimum untraced iterations per run: a median of three absorbs one
# slow iteration, such as the first after an idle gap.
MIN_ITERATIONS = 3
# The golden files each workload's iterations check; a traced
# service_small iteration also checks its in-process reference run.
GOLDENS = {
    "table2_small": ["table2.txt", "verdicts.txt", "records.ndjson"],
    "fig7_chain": ["fig7_chain.txt"],
    "service_small": ["table2.txt", "verdicts.txt", "service_records.ndjson"],
}
TRACED_GOLDENS = {"service_small": ["records.ndjson"]}
ITERATION_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "property_iqm_ms": "ms",
    "property_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "mc.bmc_s": "s",
    "mc.bmc_runs": "count",
    "mc.bmc_frames": "count",
    "mc.bmc_falsify_ratio": "ratio",
    "mc.bmc_depth_needed_ratio": "ratio",
    "mc.induction_s": "s",
    "mc.induction_runs": "count",
    "mc.induction_proved_ratio": "ratio",
    "sat.conflicts": "count",
    "mc.bdd_umc_s": "s",
    "mc.pobdd_s": "s",
    "bdd.allocated": "nodes",
    "bdd.peak_live": "nodes",
    "bdd.quota_hits": "count",
    "bdd.iterations": "count",
    "mc.check_s": "s",
    "mc.portfolio_self_s": "s",
    "aig.coi_s": "s",
    "aig.preanalysis_s": "s",
    "core.verifiable_s": "s",
    "core.stereotype_s": "s",
    "netlist.lower_s": "s",
    "chipgen.generate_s": "s",
    "core.render_s": "s",
    "core.partition_s": "s",
    "core.corns_s": "s",
    "core.corns": "count",
    "campaign.submit_s": "s",
    "campaign.run_s": "s",
    "campaign.suspensions": "count",
    "campaign.record_overhead_ms": "ms",
    "trace.attributed_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Builds the iteration binary; returns its path, or exits non-zero."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(1)
    return os.path.join(target, "release", "perfbench")


def golden_lines(workload, traced):
    """How many golden lines one iteration checks."""
    names = GOLDENS[workload] + (TRACED_GOLDENS.get(workload, []) if traced else [])
    total = 0
    for name in names:
        with open(os.path.join(GOLDEN_DIR, name)) as f:
            total += sum(1 for _ in f)
    return total


def run_iteration(exe, workload, traced, work):
    """One iteration's result, or None (logged) if the process failed."""
    cmd = [exe, "--workload", workload, "--trace", "1" if traced else "0",
           "--golden", GOLDEN_DIR, "--work", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} iteration timed out after {ITERATION_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        log(f"{workload} iteration exited with {proc.returncode}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_of(iterations, key):
    # Only a run whose iterations all failed has none; it is reported
    # as incorrect, with zero figures.
    return statistics.median(it[key] for it in iterations) if iterations else 0.0


def mean_of_share(values, lo, hi):
    """Mean of the sorted values from share `lo` to share `hi` of them,
    counting a value cut by a boundary in part. An average, so it moves
    smoothly where a percentile of the service's records (which come in
    25 ms steps) jumps a whole step; and the partial ends keep the mix
    fixed where one slow check per iteration (the monolithic check of
    fig7_chain) falls in the range."""
    values = sorted(values)
    a, b = lo * len(values), hi * len(values)
    if b <= a:
        return 0.0
    weighted = sum(v * max(0.0, min(i + 1, b) - max(i, a)) for i, v in enumerate(values))
    return weighted / (b - a)


def end_to_end(plain):
    """The end-to-end metrics of an untraced run (see the module doc)."""
    durations = [d for it in plain for d in it["durations_ms"]]
    return {
        "wall_s": median_of(plain, "wall_s"),
        "cpu_s": median_of(plain, "cpu_s"),
        # Each iteration's set-up figure is already a mean over many
        # set-ups on a thread CPU clock, which waits do not reach; the
        # mean over iterations pools them.
        "setup_s": statistics.mean(it["setup_s"] for it in plain) if plain else 0.0,
        "property_iqm_ms": mean_of_share(durations, 0.25, 0.75),
        "property_tail_ms": mean_of_share(durations, 0.9, 1.0),
        "peak_rss_mb": median_of(plain, "peak_rss_mb"),
    }


def measure(exe, workload, seconds, traced, work):
    """Runs iterations until `seconds` have passed (at least the minimum
    count) or one fails; returns (untraced iterations, traced iterations,
    golden lines of the failed iteration or 0)."""
    plain, traced_its = [], []
    deadline = time.monotonic() + seconds
    min_rounds = 1 if traced else MIN_ITERATIONS
    while True:
        t0 = time.monotonic()
        for is_traced, into in [(False, plain)] + ([(True, traced_its)] if traced else []):
            it = run_iteration(exe, workload, is_traced, work)
            if it is None:
                return plain, traced_its, golden_lines(workload, is_traced)
            into.append(it)
        elapsed = time.monotonic() - t0
        if len(plain) >= min_rounds and time.monotonic() + elapsed > deadline:
            return plain, traced_its, 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(GOLDENS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    exe = build()
    # The workloads' inputs are fixed (the chip generator is
    # deterministic and the paper fixes the census); the seed is recorded.
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace}", flush=True)
    work = os.path.join(BENCH_DIR, ".work", f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        plain, traced, lost = measure(exe, args.workload, args.seconds, args.trace == 1, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    iterations = plain + traced
    attempted = sum(it["attempted"] for it in iterations) + lost
    failed = sum(it["failed"] for it in iterations) + lost
    if args.trace:
        traced_wall = median_of(traced, "wall_s")
        plain_wall = median_of(plain, "wall_s")
        overhead = traced_wall / plain_wall if plain_wall else 0.0
        # A layer the workload does not exercise reads 0.
        layers = [dict.fromkeys(PER_LAYER, 0.0) | it["layers"] | {"trace.overhead_ratio": overhead}
                  for it in traced]
        units = PER_LAYER
        values = {name: median_of(layers, name) for name in PER_LAYER}
    else:
        units = END_TO_END
        values = end_to_end(plain)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    log(f"{len(plain)} untraced and {len(traced)} traced iterations, "
        f"{failed} of {attempted} output checks failed")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
