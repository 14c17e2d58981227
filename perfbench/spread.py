#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each named workload (untraced) and
prints, per metric, the median of the per-run values and the distance
between their first and third quartiles (statistics.quantiles, n=4) as
a share of that median, next to the metric's bound in BENCHMARK.json.
Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 serve_hot batch_mix
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(cmd, capture_output=True, text=True)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in runs[-1].items()), file=sys.stderr)
        print(f"{workload} ({len(runs)} runs)")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            share = (q3 - q1) / med if med else 0.0
            flag = "" if name == "setup_s" or share <= metric["bound"] / 3 else "  <-- over bound/3"
            print(f"  {name:<18} median {med:<14.6g} spread {share:7.2%}  bound {metric['bound']:.0%}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
