#!/usr/bin/env python3
"""Build and run the Metis benchmark program (perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload cycle_b4_fig5 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20
    python3 perfbench/run.py --selftest

The first call configures and builds metis_perfbench and the repo's libraries
from source into the build directory ($CARGO_TARGET_DIR, else
.bench_build); later calls rebuild only what changed.  Build output goes to
standard error.  With --workload, the last line of standard output is the
program's JSON result.  --all runs every workload untraced and traced and
prints one table per run kind, a column per workload.  Exits non-zero,
printing no result, when the build or a run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def workloads():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "metis_perfbench"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "metis_perfbench")


def run(cmd):
    """Runs metis_perfbench; returns its standard output or exits on failure."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s: %s" % (RUN_TIMEOUT_S, " ".join(cmd)))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: metis_perfbench exited with code %d" % proc.returncode)
    return proc.stdout


def run_all(binary, args):
    names_of_workloads = workloads()
    for trace in (0, 1):
        results = {}
        for w in names_of_workloads:
            out = run(binary + ["--workload", w, "--seed", str(args.seed),
                                "--seconds", str(args.seconds), "--trace", str(trace)])
            results[w] = json.loads(out.strip().splitlines()[-1])
        names = sorted({m for r in results.values() for m in r["metrics"]})
        print("# %s, seed %d" % ("per-layer (traced)" if trace else
                                 "end-to-end (untraced)", args.seed))
        print("%-56s %-6s" % ("metric", "unit") +
              "".join("%18s" % w for w in names_of_workloads))
        for name in ["correct", "attempted", "failed"]:
            print("%-56s %-6s" % (name, "") +
                  "".join("%18s" % results[w][name] for w in names_of_workloads))
        for name in names:
            unit = next(r["metrics"][name]["unit"] for r in results.values()
                        if name in r["metrics"])
            cells = "".join("%18.4f" % results[w]["metrics"].get(name, {}).get("value", 0)
                            for w in names_of_workloads)
            print("%-56s %-6s%s" % (name, unit, cells))
        print()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one of the workloads in BENCHMARK.json")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="determinism self-test on small instances")
    args = parser.parse_args()
    if not (args.selftest or args.all or args.workload):
        parser.error("one of --workload, --all or --selftest is required")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = [build(os.path.join(os.path.abspath(target), "perfbench"))]
    if args.selftest:
        sys.stdout.write(run(binary + ["--selftest"]))
    elif args.all:
        run_all(binary, args)
    else:
        sys.stdout.write(run(binary + [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]))


if __name__ == "__main__":
    main()
