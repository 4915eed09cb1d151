#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/spread.py --workload W [--seeds 1-10] [--seconds S]
                                [--trace 0|1] [--save DIR]

For every metric: the median over the runs, the first and third quartiles
(Python's statistics.quantiles(values, n=4)) and their distance as a share
of the median. The last line is a JSON object with the same figures, one
point of the benchmark's trajectory. --save keeps each run's full output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = args.seconds or json.load(f)["run_seconds"]

    values, units, runs = {}, {}, []
    for seed in seed_list(args.seeds):
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        if args.save:
            os.makedirs(args.save, exist_ok=True)
            name = f"{args.workload}.trace{args.trace}.seed{seed}.txt"
            with open(os.path.join(args.save, name), "w") as f:
                f.write(p.stdout + p.stderr)
        res = json.loads(p.stdout.splitlines()[-1]) if p.stdout else None
        if p.returncode != 0 or res is None:
            print(f"seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}", flush=True)
            sys.exit(1)
        runs.append({"seed": seed, "correct": res["correct"],
                     "attempted": res["attempted"], "failed": res["failed"]})
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
            units[k] = v["unit"]

    summary = {}
    for k, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        share = (q3 - q1) / med if med else 0.0
        summary[k] = {"median": med, "q1": q1, "q3": q3, "iqr_share": share,
                      "unit": units[k]}
        print(f"  {k:40s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"iqr/median {share:.4f}")
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "seconds": seconds, "runs": runs, "metrics": summary}))


if __name__ == "__main__":
    main()
