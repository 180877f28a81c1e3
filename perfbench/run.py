#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to .bench_build/perfbench (the
first run compiles pimlib, later runs only check it is up to date). The
binary's stdout passes through unchanged; its last line is the JSON result.
Before passing a result on, this script checks that it names exactly the
metrics BENCHMARK.json declares for the chosen --trace mode.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(message):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; fails on error."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        fail("the pimlib sources (src/) are not next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    return os.path.join(BUILD, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}


def main(argv):
    trace = argv[argv.index("--trace") + 1] if "--trace" in argv[:-1] else "0"
    binary = build()
    proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("perfbench exited with code %d" % proc.returncode)
    names = set(json.loads(lines[-1]).get("metrics", {}))
    want = expected_metrics(trace)
    if names != want:
        sys.stderr.write(proc.stdout)
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(want - names), sorted(names - want)))
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
