#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads recon-desk --seeds 1 2 3 4 5
    python3 perfbench/spread.py --json BENCH_label.json     # every workload, seeds 1-10

Runs are sequential, one process at a time, from the checkout root. For
each metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)``, and the spread: the distance between
the quartiles as a share of the median. A spread under a third of the
metric's bound in ``BENCHMARK.json`` counts as steady. ``--json`` writes
every run's result and report lines, plus those figures, to one file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    report = next((json.loads(line[len("REPORT "):]) for line in lines
                   if line.startswith("REPORT ")), {})
    return json.loads(lines[-1]), report


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", default=None, help="write all runs and figures here")
    args = p.parse_args()

    listed = bench["per_layer" if args.trace else "end_to_end"]
    out = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
           "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = [run_once(bench, workload, s, args.seconds, args.trace) for s in args.seeds]
        figures = {}
        print(f"{workload}: correct {all(r['correct'] for r, _ in runs)}, "
              f"failed {sum(r['failed'] for r, _ in runs)} "
              f"of {sum(r['attempted'] for r, _ in runs)}")
        for m in listed:
            values = [r["metrics"][m["name"]]["value"] for r, _ in runs]
            fig = figures[m["name"]] = {"values": values, **summarize(values)}
            bound = m.get("bound")
            mark = ""
            if bound is not None:
                ok = m["name"] == "setup_s" or fig["spread"] < bound / 3
                steady &= ok
                mark = f"bound {bound:<5} {'steady' if ok else 'SPREAD'}"
            print(f"  {m['name']:44s} median {fig['median']:<12.6g} "
                  f"spread {fig['spread']:8.4f} {m['unit']:9s} {mark}")
        out["workloads"][workload] = {"figures": figures,
                                      "results": [r for r, _ in runs],
                                      "reports": [rep for _, rep in runs]}
    if args.json:
        with open(args.json, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
