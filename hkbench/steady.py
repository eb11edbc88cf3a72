#!/usr/bin/env python3
"""Steadiness check for hkbench: repeat each workload, report the spread.

    python3 hkbench/steady.py [--runs 10] [--first-seed 1] [--seconds N]
                              [--trace 0|1] [--workloads a,b,...]

Runs hkbench/run.py --runs times per workload, each with its own seed, and
prints each run's metrics and, for every metric, the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the quartile spread (q3 - q1) as a
share of the median.  With --trace 0 it also prints each end-to-end
metric's bound from BENCHMARK.json and marks spreads above a third of it
('!') or above it ('!!').  This is how the bounds were set.  Exits 1 when a
run fails, reports incorrect outputs, or the failed share differs between
runs of one workload.
"""

import fractions
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse(argv):
    opts = {"runs": 10, "first-seed": 1, "seconds": None, "trace": 0, "workloads": None}
    for arg in argv:
        name, eq, value = arg.lstrip("-").partition("=")
        if not arg.startswith("--") or not eq or name not in opts:
            sys.exit("steady.py: bad argument '%s' (see the module docstring)" % arg)
        opts[name] = value if name == "workloads" else int(value)
    return opts


def main():
    opts = parse(sys.argv[1:])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = opts["seconds"] or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = opts["workloads"].split(",") if opts["workloads"] else [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        values, shares = {}, set()
        for run in range(opts["runs"]):
            seed = opts["first-seed"] + run
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(opts["trace"])]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: exit %d" % (workload, seed, proc.returncode))
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                print("%s seed %d: incorrect outputs" % (workload, seed))
                ok = False
            shares.add(fractions.Fraction(result["failed"], result["attempted"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (name, metric["value"]) for name, metric in result["metrics"].items())))
            sys.stdout.flush()
        if len(shares) > 1:
            print("%s: the failed share differs between runs: %s" % (workload, sorted(shares)))
            ok = False
        print("\n%s (%d runs of %d s)" % (workload, opts["runs"], seconds))
        print("  %-32s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name) if not opts["trace"] else None
            mark = ""
            if bound:
                mark = " !!" if spread > bound else " !" if spread > bound / 3 else ""
            print("  %-32s %14.6g %14.6g %14.6g %7.2f%% %6s%s" % (
                name, med, q1, q3, 100 * spread, "%.2f" % bound if bound else "", mark))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
