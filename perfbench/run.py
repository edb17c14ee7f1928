#!/usr/bin/env python3
"""Builds the simulator from source and runs one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to .bench_build/perfbench and reports to .bench_out/, both
under the repository root. All output of the benchmark binary is passed
through; the last stdout line is one JSON object with the keys
"correct", "attempted", "failed" and "metrics", where "metrics" holds the
end-to-end metrics named in BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). Exits 1 when the build fails (printing no result),
when an output check fails, or when a listed metric is missing.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures once, then builds incrementally; False on failure."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                      "perfbench", "-j", "4"])
        for cmd in steps:
            # Build output goes to stderr: stdout ends with the result.
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return False
    return True


def select(metrics, wanted):
    """The `wanted` metrics, in order; names missing from `metrics`."""
    picked, missing = {}, []
    for name in wanted:
        if name in metrics:
            picked[name] = metrics[name]
        else:
            missing.append(name)
    return picked, missing


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = load_benchmark()
    except (OSError, ValueError) as e:
        print(f"run.py: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 1
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"run.py: unknown workload {args.workload}", file=sys.stderr)
        return 1
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1

    OUT_DIR.mkdir(exist_ok=True)
    cmd = [str(BUILD_DIR / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        print(f"run.py: no result line (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)

    key = "per_layer" if args.trace else "end_to_end"
    metrics, missing = select(result["metrics"], [m["name"] for m in spec[key]])
    correct = bool(result["correct"]) and proc.returncode == 0 and not missing
    for name in missing:
        print(f"CHECK FAILED: metric {name} not reported", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
