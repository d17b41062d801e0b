#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed for each workload,
checks that every run printed a correct result with exactly the
metric names BENCHMARK.json lists, and reports for each end-to-end
metric the interquartile distance of its values as a share of their
median (statistics.quantiles(values, n=4)), next to the metric's bound.

    python3 nkbench/spread.py [--seeds 10] [--first-seed 1]
                              [--trace 0] [workload ...]

Run it from the repository root.  Exits 1 if any run fails, any output
is incorrect, or any spread (setup_s excepted) exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    names = [m["name"] for m in metrics]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bad = False
    for w in workloads:
        values = {n: [] for n in names}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res = run_once(bench, w, seed, args.trace)
            got = sorted(res["metrics"])
            if got != sorted(names) or not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: bad result {json.dumps(res)[:300]}")
                bad = True
            for n in names:
                values[n].append(res["metrics"].get(n, {}).get("value", 0.0))
            print(f"{w} seed {seed}: " + " ".join(
                f"{n}={res['metrics'][n]['value']:.6g}" for n in names
                if n in res["metrics"]), flush=True)
        if args.trace != 0:
            continue
        for m in metrics:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "ok" if spread <= m["bound"] / 3 else (
                "wide" if spread <= m["bound"] else "OVER")
            if verdict == "OVER" and m["name"] != "setup_s":
                bad = True
            print(f"  {w:11s} {m['name']:22s} median {med:12.6g} {m['unit']:4s}"
                  f" spread {spread:6.3f} bound {m['bound']:.2f} {verdict}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
