#!/usr/bin/env python3
"""Build and run the runtime benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune (default profile) and runs the span
recorder's unit test. Then it runs K realizations of the workload, each
in a fresh bench.exe process with its own seed. K and the realization
seeds are a fixed function of --workload, --seed, --seconds and --trace,
so the same arguments always give the same inputs. Each metric is the
median over the K realizations.

The last line of standard output is the JSON result. Every metric named
in BENCHMARK.json must be present (end_to_end with --trace 0, per_layer
with --trace 1). A correctness failure still prints the result, with
"correct" false, and exits 1. A failed build or unit test, a missing
metric or a timeout exits 2 without a result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "_build", "default", "perfbench")
OUT = os.path.join(ROOT, ".perfbench")
PROFILE = "dev"  # dune's default profile
BUILD_TIMEOUT_S = 850  # a first build in a fresh checkout
RUN_BUDGET_S = 175

# Nominal host seconds of one realization on a 2-CPU x86 host, untraced
# and traced (a traced realization also runs the untraced twin).
COST_S = {
    "web_cc": (5.2, 12.0),
    "web_ack": (1.9, 4.0),
    "shard_tracked": (2.4, 11.0),
}
MIN_REALIZATIONS = 3


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kw):
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=timeout, **kw)
    except subprocess.TimeoutExpired:
        die(f"timed out: {' '.join(cmd)}")


def realization_seeds(workload, seed, seconds, trace):
    k = max(MIN_REALIZATIONS, round(seconds / COST_S[workload][trace]))
    return [seed * 1000 + i for i in range(k)]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why or args.workload not in COST_S:
        die(f"unknown workload {args.workload!r}; have {sorted(why)}")
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    if not shutil.which("dune"):
        die("dune not found")
    build = run(
        # no shared cache: the build writes only inside the checkout
        ["dune", "build", "--root", ".", "--profile", PROFILE, "--cache", "disabled",
         "./perfbench/bench.exe", "./perfbench/spans_test.exe"],
        BUILD_TIMEOUT_S,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        die("build failed")
    unit = run([os.path.join(BUILD, "spans_test.exe")], 60, stdout=sys.stderr)
    if unit.returncode != 0:
        die("span recorder unit test failed")

    os.makedirs(OUT, exist_ok=True)
    seeds = realization_seeds(args.workload, args.seed, args.seconds, args.trace)
    print(f"# perfbench {args.workload} seed={args.seed} realizations={seeds}: "
          f"{why[args.workload]}", flush=True)
    # A ring big enough for one realization's GC events on every domain;
    # runtime_events keeps its file in OUT while the process runs.
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=OUT)
    env["OCAMLRUNPARAM"] = ",".join(
        p for p in [env.get("OCAMLRUNPARAM", ""), "e=18"] if p)
    env.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)

    deadline = time.monotonic() + RUN_BUDGET_S
    correct, attempted, failed = True, 0, 0
    values, units = {}, {}
    for i, s in enumerate(seeds):
        cmd = [os.path.join(BUILD, "bench.exe"), "--workload", args.workload,
               "--seed", str(s), "--trace", str(args.trace), "--profile", PROFILE]
        if i == 0:
            cmd += ["--first", "--out", OUT]
        child = run(cmd, max(1.0, deadline - time.monotonic()), env=env,
                    stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            die(f"realization {s} printed no result (exit {child.returncode})")
        print(f"# realization {s}: {lines[-1]}", flush=True)
        correct = correct and res["correct"] and child.returncode == 0
        attempted += res["attempted"]
        failed += res["failed"]
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    missing = [n for n in wanted if n not in values]
    if missing:
        die(f"metrics missing from bench.exe: {missing}")
    metrics = {n: {"value": statistics.median(values[n]), "unit": units[n]}
               for n in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
