#!/usr/bin/env python3
"""Run every workload on several seeds and print the spread of each
end-to-end metric as a markdown table.

    python3 peerbench/steadiness.py [--runs 10] [--first-seed 1] [--workloads a,b]

Spread is the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median: the
figure each metric's bound in BENCHMARK.json is held against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = []
    record = None
    for w in workloads:
        values = {}
        failed = attempted = 0
        for k in range(args.runs):
            seed = args.first_seed + k
            t = time.time()
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if p.returncode != 0 or not result["correct"]:
                print(p.stdout[-3000:], p.stderr[-3000:], file=sys.stderr)
                sys.exit(f"{w} seed {seed} failed its checks")
            record = next(l for l in lines if l.startswith("record "))
            failed += result["failed"]
            attempted += result["attempted"]
            for name, v in result["metrics"].items():
                values.setdefault(name, []).append(v["value"])
            print(f"{w} seed {seed}: {time.time() - t:.1f} s", file=sys.stderr, flush=True)
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            rows.append((w, name, med, q1, q3, spread, bounds[name], min(v), max(v)))
        rows.append((w, "failed/attempted", failed, attempted, None, None, None, None, None))
    print(f"{args.runs} runs per workload, seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
          f"{spec['run_seconds']} s each.\n")
    print(f"Host of the last run: `{record[len('record '):]}`\n")
    print("| workload | metric | median | q1 | q3 | spread | bound | spread < bound/3 | min | max |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for w, name, med, q1, q3, spread, bound, lo, hi in rows:
        if q3 is None:
            print(f"| {w} | {name} | {med} / {q1} | | | | | | | |")
            continue
        ok = "yes" if spread < bound / 3 else ("n/a" if name == "setup_s" else "NO")
        print(f"| {w} | {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | {bound} | {ok} | {lo:.6g} | {hi:.6g} |")


if __name__ == "__main__":
    main()
