#!/usr/bin/env python3
"""Build and run the simulator's host-time benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench,
runs the C++ program perfbench, and prints its report. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end_to_end list of
BENCHMARK.json, with --trace 1 the per_layer list; the runner refuses
to print a result whose metric names differ from that list.

With --trace 0, setup_s is the median over this run and SETUP_REPS
further set-up-only processes, since set-up is paid once per process.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
SETUP_REPS = 4
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then build perfbench (a no-op when current)."""
    if not (SRC_DIR / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found at {SRC_DIR}")
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def run(cmd):
    """Run perfbench; return (report lines, parsed last line)."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"exit {proc.returncode}: {' '.join(cmd)}")
    return lines[:-1], json.loads(lines[-1])


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode."""
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = Path(".bench_build") / "perfbench"
    exe = str(build(build_dir))
    base = [exe, "--workload", args.workload, "--seed", str(args.seed)]
    cmd = base + ["--seconds", str(args.seconds),
                  "--trace", str(args.trace)]
    if args.trace:
        spans = build_dir / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-{args.seed}.json")]
    report, result = run(cmd)

    if not args.trace:
        setups = [result["metrics"]["setup_s"]["value"]]
        for _ in range(SETUP_REPS):
            setups.append(run(base + ["--setup-only"])[1]["setup_s"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        report.append("  setup_s samples: " +
                      " ".join(f"{s:.4f}" for s in setups))

    expected = expected_metrics(args.trace)
    if list(result["metrics"]) != expected:
        fail("printed metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ set(expected))}")

    for line in report:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
