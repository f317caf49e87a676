#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's median
and spread (interquartile range over median), per workload.

    python3 perfbench/spread.py --workloads sweep-1t sweep-par \
        --seeds 10 --seconds 10 [--trace 1] [--json out.json]

End-to-end spreads are checked against the bounds in BENCHMARK.json: a
spread above a third of its bound is marked "WIDE". Per-layer counts must
repeat exactly for a repeated seed; pass --repeat to run every seed twice
and check that.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--repeat", action="store_true")
    parser.add_argument("--json", help="write medians and spreads here")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    counts = {m["name"] for m in bench["per_layer"] if m["unit"] == "count"}
    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            values = run_once(workload, seed, args.seconds, args.trace)
            if args.repeat:
                again = run_once(workload, seed, args.seconds, args.trace)
                for name in counts & values.keys():
                    if again[name] != values[name]:
                        sys.exit(f"{workload} seed {seed}: {name} "
                                 f"{values[name]} then {again[name]}")
            runs.append(values)
        summary[workload] = {}
        print(f"== {workload} ({len(runs)} seeds, {args.seconds} s each)")
        for name in runs[0]:
            med, rel = spread([r[name] for r in runs])
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and rel > bound / 3:
                flag = "  WIDE"
            print(f"  {name:28s} median {med:14.6g}  spread {rel:8.4f}"
                  + (f"  bound {bound}" if bound is not None else "") + flag)
            summary[workload][name] = {"median": med, "spread": rel}
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(summary, indent=2) + "\n")


if __name__ == "__main__":
    main()
