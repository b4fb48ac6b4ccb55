#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The binary is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build` under the repository root). An end-to-end run
(`--trace 0`) splits its time over PROCESSES fresh processes (a lossy
workload: LOSS_PATTERNS), one after another, and pools their repeats: each process has its own memory
layout, which moves wall time by a few percent, so pooling several
keeps one layout from deciding the result. On a lossy workload process
p runs the seed's loss pattern p, and the simulated metrics are medians
over the processes: whether a loss lands in the last flight (and costs a
retransmission timeout) is close to a coin toss per pattern, so one
pattern per seed would make them jump between seeds. A traced run is
one process, on loss pattern 0. Each process's lines but the last are passed through; the
last line printed is the JSON result. Exits non-zero, without a result
line, when the build or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("allreduce_wide", "allreduce_reliable", "kvs_zipf")
PROCESSES = 8
# Workloads whose simulated results depend on the loss pattern, and how
# many patterns (one process each) an end-to-end run of one takes.
LOSSY = ("allreduce_reliable",)
LOSS_PATTERNS = 16
RUN_TIMEOUT_S = 170
# End-to-end metrics pooled over processes; every other metric is
# simulated and must read the same in every process, except on a lossy
# workload, where each process has its own loss pattern.
POOLED = {"setup_s": "setup_s_repeats", "windows_per_s": "windows_per_s_repeats"}
PER_PROCESS = ("peak_rss_mib",)


class RunError(Exception):
    pass


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    return p.parse_args()


def build(env):
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        raise RunError("build failed")


def run_once(exe, env, args, seconds, loss_pattern=0):
    """Runs the binary once; returns its (info, result) JSON lines."""
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", args.trace,
           "--loss-pattern", str(loss_pattern)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunError("run timed out")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or len(lines) < 2:
        raise RunError(f"run failed with code {run.returncode}")
    try:
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
    except json.JSONDecodeError:
        raise RunError("the last two lines are not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RunError("result has unexpected keys")
    return info, result


def pool(runs, lossy):
    """Combines the processes' results into one."""
    results = [r for _, r in runs]
    first = results[0]
    correct = all(r["correct"] for r in results)
    metrics = {}
    for name, m in first["metrics"].items():
        if name in POOLED:
            samples = [v for info, _ in runs for v in info[POOLED[name]]]
            value = statistics.median(samples)
        elif name in PER_PROCESS or lossy:
            value = statistics.median(r["metrics"][name]["value"] for r in results)
        else:
            value = m["value"]
            # Same seed, same simulated results, in every process.
            correct = correct and all(r["metrics"][name] == m for r in results)
        metrics[name] = {"value": value, "unit": m["unit"]}
    # Each process counts the same repeats of the same seed.
    counts = {(r["attempted"], r["failed"]) for r in results}
    correct = correct and len(counts) == 1
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main():
    args = parse_args()
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    try:
        build(env)
        exe = os.path.join(target, "release", "perfbench")
        if args.trace == "1":
            runs = [run_once(exe, env, args, float(args.seconds))]
            result = runs[0][1]
        else:
            lossy = args.workload in LOSSY
            n = LOSS_PATTERNS if lossy else PROCESSES
            runs = [run_once(exe, env, args, args.seconds / n, p) for p in range(n)]
            result = pool(runs, lossy)
    except RunError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    for info, _ in runs:
        print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
