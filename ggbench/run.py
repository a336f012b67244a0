#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 ggbench/run.py --workload paper-campaign|fault-sweep|service \
        --seed N --seconds S --trace 0|1

Builds the greengpu libraries, the greengpud daemon and the benchmark
program from this checkout's sources into .bench_build/ (Release), then
runs one workload.  Build output goes to stderr; stdout carries the
benchmark's human-readable lines and, last, one JSON result line.  See
ggbench/README.md for the workloads, metrics and the compare mode
(ggbench/compare.py).
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("paper-campaign", "fault-sweep", "service")


def build():
    """Configure once, then build incrementally; exits non-zero on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "ggbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "greengpud", "ggbench"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("ggbench: build step failed: " + " ".join(cmd))


def host_class():
    """nproc, CPU model and build type: timings only compare within one."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = "unknown"
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model, "build": build_type}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the result, with the host "
                        "class, to this file (input of ggbench/compare.py)")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("ggbench: no src/ next to ggbench/; run from a repository checkout")

    build()
    host = host_class()
    print("host nproc=%d cpu=\"%s\" build=%s" % (host["nproc"], host["cpu"], host["build"]),
          flush=True)
    work_dir = os.path.join(".bench_build", "run-%d" % os.getpid())
    cmd = [os.path.join(BUILD, "ggbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--bin-dir", BUILD]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    finally:
        subprocess.run(["rm", "-rf", os.path.join(ROOT, work_dir)])
    sys.stdout.write(done.stdout)
    if done.returncode == 0 and args.out:
        result = json.loads(done.stdout.strip().splitlines()[-1])
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                       "seconds": args.seconds, "host": host, "result": result}, f)
            f.write("\n")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
