#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints each metric's median,
quartiles and spread (IQR / median), the figures the bounds in
BENCHMARK.json are judged by.

    python3 perfbench/spread.py --workload churn --seeds 1-10 [--trace 0|1] [--seconds S]

Run from the repository root. Runs are sequential; each result line is also
appended to --log (default .bench_build/spread.jsonl) so figures can be
re-read without rerunning.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--seconds", default=None)
    parser.add_argument("--log", default=os.path.join(".bench_build", "spread.jsonl"))
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or str(spec["run_seconds"])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    rows = []
    os.makedirs(os.path.dirname(args.log) or ".", exist_ok=True)
    for seed in seeds_of(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit("run failed: " + " ".join(cmd))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit("incorrect result for seed %d" % seed)
        rows.append(result["metrics"])
        with open(args.log, "a") as log:
            log.write(json.dumps({"workload": args.workload, "seed": seed,
                                  "trace": args.trace, "result": result}) + "\n")

    print("| metric | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|")
    for name in rows[0]:
        values = [r[name]["value"] for r in rows]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print("| %s | %.6g | %.6g | %.6g | %.4f | %s |"
              % (name, med, q1, q3, spread, "" if bound is None else bound))


if __name__ == "__main__":
    main()
