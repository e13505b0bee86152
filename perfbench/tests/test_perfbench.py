#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/tests/test_perfbench.py

Builds perfbench and its C++ self-test into .bench_build/perfbench,
then checks:
  - the C++ self-test (generator purity, injected mismatches counted in
    failed / attempted, the span model);
  - every metric perfbench prints is listed in BENCHMARK.json with the
    same unit, in the same order, and the reverse;
  - the runner exits non-zero without a result in a directory that
    holds only BENCHMARK.json and perfbench/ (no simulator sources).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def build():
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", "4", "--target",
                    "perfbench", "perfbench_selftest"],
                   check=True, stdout=subprocess.DEVNULL)


def test_selftest():
    proc = subprocess.run([str(BUILD / "perfbench_selftest")],
                          stdout=subprocess.PIPE, text=True)
    print(proc.stdout, end="")
    assert proc.returncode == 0, "self-test failed"


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run([str(BUILD / "perfbench"), "--list-metrics"],
                         stdout=subprocess.PIPE, text=True, check=True)
    printed = {"end_to_end": [], "per_layer": []}
    for line in out.stdout.splitlines():
        kind, name, unit = line.split()
        printed[kind].append((name, unit))
    for kind, got in printed.items():
        listed = [(m["name"], m["unit"]) for m in spec[kind]]
        assert got == listed, f"{kind}: printed {got} != listed {listed}"


def test_fails_without_sources():
    bare = ROOT / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "runner succeeded without sources"
    assert '"metrics"' not in proc.stdout, "runner printed a result"


def main():
    build()
    tests = [test_selftest, test_metric_names_match_benchmark_json,
             test_fails_without_sources]
    failed = 0
    for t in tests:
        try:
            t()
            print(f"ok   {t.__name__}")
        except AssertionError as e:
            failed += 1
            print(f"FAIL {t.__name__}: {e}")
    print(f"{failed} failure(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
