#!/usr/bin/env python3
"""Run workloads over consecutive seeds and summarise each end-to-end metric.

    python3 perfbench/steadiness.py --runs 10 --first-seed 1 --seconds 15
    python3 perfbench/steadiness.py --workload garland --runs 5

For every workload and end-to-end metric it prints a Markdown row with the
median, the first and third quartiles (``statistics.quantiles(n=4)``) and
the spread (Q3 - Q1) / median beside the bound in BENCHMARK.json; it also
prints the failed share, the range of the host-speed probe and how long
the runs took.
Runs go one after another, each in its own process.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    status = 0
    print("| workload | metric | median | Q1 | Q3 | spread | bound |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for name in args.workload or names:
        values: dict[str, list[float]] = {}
        shares, refs, took = set(), [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            took.append(time.perf_counter() - t0)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                status = 1
                continue
            res = json.loads(lines[-1])
            shares.add((res["failed"], res["attempted"]))
            for metric, v in res["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            for line in lines:
                if line.startswith("host probe ms"):
                    f = line.replace(",", " ").split()
                    refs.extend(float(f[i]) for i in (4, 6))
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"| {name} | {metric} | {med:.5g} | {q1:.5g} | {q3:.5g} | "
                  f"{(q3 - q1) / med:.4f} | {bounds.get(metric)} |")
        failed = sorted(f"{f}/{a}" for f, a in shares)
        if refs:
            print(f"| {name} | failed/attempted {', '.join(failed)} | host probe ms "
                  f"{min(refs):.4f}..{max(refs):.4f} | run s {min(took):.1f}..{max(took):.1f}"
                  " | | | |")
    return status


if __name__ == "__main__":
    sys.exit(main())
