#!/usr/bin/env python3
"""Steadiness of the benchmark on one commit: runs two sets of ten runs
of a workload, each run of a set with another seed (1-10), and prints
every end-to-end metric's median, quartiles and spread per set, the
shift of the median between the sets, and the share of failed
operations. Spreads and shifts are judged against the bounds in
BENCHMARK.json; the exit code is 1 when any is exceeded or the failed
shares differ.

    python3 perfbench/steadiness.py --workload <name>

Run from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
SEEDS = range(1, 11)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, timeout=1000)
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s seed %d printed nothing (exit %d)"
                           % (workload, seed, p.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in bench["workloads"]])
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets, shares = [], []
    ok = True
    for s in range(SETS):
        values = {name: [] for name in bounds}
        attempted = failed = 0
        for seed in SEEDS:
            res = run_once(args.workload, seed, bench["run_seconds"])
            attempted += res["attempted"]
            failed += res["failed"]
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            print("set %d seed %d: %s" % (s + 1, seed, " ".join(
                "%s=%.6g" % (n, v[-1]) for n, v in values.items())),
                flush=True)
        sets.append(values)
        shares.append(failed / attempted)
        print("set %d: %d attempted, %d failed" % (s + 1, attempted, failed))

    print("\n%-22s %5s %12s %12s %12s %8s %8s" %
          ("metric", "set", "q1", "median", "q3", "spread", "bound"))
    for name, bound in bounds.items():
        medians = []
        for s, values in enumerate(sets):
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if spread > bound:
                ok = False
            medians.append(med)
            print("%-22s %5d %12.6g %12.6g %12.6g %7.1f%% %7.0f%%%s" %
                  (name, s + 1, q1, med, q3, 100 * spread, 100 * bound,
                   "" if spread <= bound / 3 else
                   "  (above a third of the bound)"))
        better = next(m["better"] for m in bench["end_to_end"]
                      if m["name"] == name)
        for m in medians[1:]:
            worse = (m - medians[0]) / medians[0]
            if better == "higher":
                worse = -worse
            print("%-22s shift of set median: %+.1f%% (worse is +)"
                  % (name, 100 * worse))
            if worse > bound:
                ok = False
    if len(set(shares)) > 1:
        ok = False
    print("failed share per set: %s" % shares)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
