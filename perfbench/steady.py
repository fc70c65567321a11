#!/usr/bin/env python3
"""Steadiness check: runs every workload in two alternating sets of runs
and prints each set's median and quartiles for every end-to-end metric
against the metric's bound in BENCHMARK.json.

Usage, from the root of a checkout:

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--workloads a,b]
                                [--out results.json]

Run i of set A uses seed 1000 + i, run i of set B seed 2000 + i; the two
sets alternate run by run (A first on even i, B first on odd i), so a
drift of the host lands on both. A metric passes when, in each set, the
interquartile range is within its bound as a share of the median, and
when set B's median is not worse than set A's by more than the bound. The share of failed operations must
be the same in both sets. The exit code is 0 when everything passes.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_REF = re.compile(r"host reference ([0-9.]+) ms median")


def run_once(command, workload, seed, seconds):
    t0 = time.monotonic()
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    host = HOST_REF.search(proc.stderr)
    result["host_ref_ms"] = float(host.group(1)) if host else None
    result["wall_s"] = time.monotonic() - t0
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", help="write every run's result here as JSON")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        for side in ("AB" if i % 2 == 0 else "BA"):
            seed = (1000 if side == "A" else 2000) + i
            for w in workloads:
                r = run_once(bench["command"], w, seed, args.seconds)
                results[w][side].append(r)
                print(f"run {i} set {side} {w} seed {seed}: correct={r['correct']} "
                      f"wall={r['wall_s']:.1f}s host_ref={r['host_ref_ms']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                      flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        sets = results[w]
        for side in "AB":
            rs = sets[side]
            if not all(r["correct"] for r in rs):
                print(f"  set {side}: a run reported correct=false")
                ok = False
        shares = {side: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for side, rs in sets.items()}
        if shares["A"] != shares["B"]:
            print(f"  failed share differs: A {shares['A']} B {shares['B']}")
            ok = False
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            line = f"  {name:<20} bound {bound:<5}"
            medians = {}
            for side in "AB":
                q1, q2, q3, s = spread([r["metrics"][name]["value"] for r in sets[side]])
                medians[side] = q2
                flag = "" if s <= bound else " SPREAD>BOUND"
                ok &= flag == ""
                line += f" | {side}: median {q2:.5g} q1 {q1:.5g} q3 {q3:.5g} spread {s:.3f}{flag}"
            worse = (medians["B"] - medians["A"]) / medians["A"]
            worse = worse if lower else -worse
            flag = "" if worse <= bound else " SHIFT>BOUND"
            ok &= flag == ""
            print(f"{line} | B worse by {worse:+.3f}{flag}")
        hosts = [r["host_ref_ms"] for side in "AB" for r in sets[side] if r["host_ref_ms"]]
        if hosts:
            print(f"  host reference ms: min {min(hosts):.2f} median "
                  f"{statistics.median(hosts):.2f} max {max(hosts):.2f}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
