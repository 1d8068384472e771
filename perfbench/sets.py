#!/usr/bin/env python3
"""Runs sets of benchmark runs and summarises them for the README.

    python3 perfbench/sets.py --seeds 1-10 --seeds 11-20 --trace-seed 1

Every workload runs once per seed in each set (one process per run, one at
a time). For each set the script prints, per workload and end-to-end
metric, the median and quartiles, the spread (quartile distance over the
median, as the acceptance rule reads it) and the share of failed
operations; then how far the second set's median moved from the first's,
against the metric's bound; then one traced run per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", action="append", type=seed_range, required=True, help="a set of seeds, e.g. 1-10 (repeatable)")
    parser.add_argument("--trace-seed", type=int, help="also make one traced run per workload with this seed")
    parser.add_argument("--workload", action="append", help="only these workloads (default: all)")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    medians: list[dict] = []
    for k, seeds in enumerate(args.seeds, 1):
        print(f"\n### Set {k}: seeds {seeds[0]}-{seeds[-1]}\n")
        print("| workload | metric | median | Q1 | Q3 | spread | bound |")
        print("|---|---|---|---|---|---|---|")
        meds = {}
        for w in workloads:
            results = [run(w, s, bench["run_seconds"], 0) for s in seeds]
            bad = [r for r in results if not r["correct"]]
            shares = {r["failed"] / r["attempted"] for r in results}
            for name in bounds:
                values = [r["metrics"][name]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(values, n=4)
                meds[(w, name)] = med
                unit = results[0]["metrics"][name]["unit"]
                print(f"| {w} | {name} ({unit}) | {med:.5g} | {q1:.5g} | {q3:.5g} | {(q3 - q1) / med:.3f} | {bounds[name]['bound']} |")
            print(f"| {w} | runs incorrect: {len(bad)}; failed shares: {sorted(shares)} | | | | | |", flush=True)
        medians.append(meds)

    if len(medians) > 1:
        print("\n### Median drift, last set against the first (positive = worse)\n")
        print("| workload | metric | drift | bound |")
        print("|---|---|---|---|")
        for (w, name), first in medians[0].items():
            last = medians[-1][(w, name)]
            worse = (last - first) / first if bounds[name]["better"] == "lower" else (first - last) / first
            print(f"| {w} | {name} | {worse:+.3f} | {bounds[name]['bound']} |")

    if args.trace_seed is not None:
        print(f"\n### Traced run, seed {args.trace_seed}\n")
        traced = {w: run(w, args.trace_seed, bench["run_seconds"], 1)["metrics"] for w in workloads}
        print("| metric | unit | " + " | ".join(workloads) + " |")
        print("|---|---|" + "---|" * len(workloads))
        for name, m in traced[workloads[0]].items():
            cells = " | ".join(f"{traced[w][name]['value']:.4g}" for w in workloads)
            print(f"| {name} | {m['unit']} | {cells} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
