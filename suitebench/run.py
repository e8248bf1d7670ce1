#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 suitebench/run.py --workload fig6-par --seed 0 --seconds 30 --trace 0

Builds the simulator and the benchmark driver from source (Release,
probes off) under .bench_build/suitebench, then runs the driver from the
checkout root. The driver's last stdout line is the JSON result; with
--trace 1 the span file and the full result land in .bench_build/work.
Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "suitebench")
WORK = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("fig6-par", "btb-par", "fig7-timeline")
RUN_TIMEOUT_S = 170


def fail(message):
    print("suitebench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(command, log):
    with open(log, "a") as out:
        return subprocess.run(command, stdout=out, stderr=subprocess.STDOUT).returncode


def build():
    """Configure (once) and build the benchmark package; return its build dir."""
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(os.path.dirname(BUILD), exist_ok=True)
    log = os.path.join(os.path.dirname(BUILD), "suitebench-build.log")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as text:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE + "\n") not in text.read():
                shutil.rmtree(BUILD)  # configured for another checkout
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if run_logged(configure, log) != 0:
            fail("configure failed; see " + log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_logged(["cmake", "--build", BUILD, "-j", jobs], log) != 0:
        fail("build failed; see " + log)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    os.makedirs(WORK, exist_ok=True)
    if args.trace == 1:
        selftest = subprocess.run([os.path.join(BUILD, "suitebench_selftest")],
                                  cwd=ROOT, timeout=RUN_TIMEOUT_S)
        if selftest.returncode != 0:
            fail("protocol-fidelity self-test failed")

    command = [
        os.path.join(BUILD, "suitebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--reference", os.path.join(HERE, "reference", args.workload + ".json"),
        "--workdir", WORK,
    ]
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = result.stdout.rstrip("\n").split("\n")
    if result.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(line for line in lines if not line.startswith("{")) + "\n")
        fail("driver exited with code %d" % result.returncode)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
