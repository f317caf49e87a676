#!/usr/bin/env python3
"""Builds the benchmark harness from source, then runs one workload.

    python3 perfbench/run.py --workload sweep-1t --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/ at the repository root; its output goes to
stderr, so the last line of stdout is the harness's JSON result. Table
digests that differ from perfbench/baseline.json are noted on stderr: a
deliberate result change shows as changed, not as failed.
"""
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
TARGETS = ["perfbench", "perfbench_checker_test"]


def build():
    """Configures once, then builds incrementally; exits 1 on failure."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", *TARGETS])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return BUILD / "perfbench"


def note_digest_changes(lines):
    try:
        recorded = json.loads((HERE / "baseline.json").read_text())["table_digests"]
    except (OSError, ValueError, KeyError):
        return
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[0] == "table_digest":
            before = recorded.get(parts[1])
            if before is not None and before != parts[2]:
                print(f"perfbench: budget-{parts[1]} table changed "
                      f"(baseline {before}, now {parts[2]})", file=sys.stderr)


def main():
    binary = build()
    result = subprocess.run([str(binary), *sys.argv[1:]], stdout=subprocess.PIPE,
                            text=True)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    note_digest_changes(result.stdout.splitlines())
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
