#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark binary from source and runs one
workload.

    python3 perfbench/run.py --workload <gwts-sim|gsbs-sim> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the current directory. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are BENCHMARK.json's end_to_end ones, with --trace 1
its per_layer ones. --self-test checks that two traced runs of each simulator
workload with the same seed report identical per-layer counts.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 150
# Per-layer metrics in these units are timings; all others are counts,
# which the simulator reproduces exactly for a seed.
TIMING_UNITS = {"us", "ms", "%"}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"


def build():
    out = build_dir()
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure,
                ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return out


def expected_metrics(trace):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(out, workload, seed, seconds, trace):
    """Runs the binary; returns the parsed result or None."""
    cmd = [str(out / "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        log(f"{workload} exited with {proc.returncode}")
        return None
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        log(f"metrics differ from BENCHMARK.json: got {got}, want {want}")
        return None
    return result


def self_test(out):
    ok = True
    for workload in ("gwts-sim", "gsbs-sim"):
        runs = [run_workload(out, workload, 7, 1, True) for _ in range(2)]
        if None in runs:
            return False
        counts = [{k: v["value"] for k, v in r["metrics"].items()
                   if v["unit"] not in TIMING_UNITS} for r in runs]
        same = counts[0] == counts[1]
        ok = ok and same and all(r["correct"] for r in runs)
        log(f"{workload}: per-layer counts {'identical' if same else 'DIFFER'}"
            f" across two runs with one seed: {counts[0]}"
            + ("" if same else f" vs {counts[1]}"))
    log("self-test " + ("passed" if ok else "FAILED"))
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload or --self-test is required")

    out = build()
    if out is None:
        return 1
    if args.self_test:
        return 0 if self_test(out) else 1
    result = run_workload(out, args.workload, args.seed, args.seconds,
                          bool(args.trace))
    if result is None:
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
