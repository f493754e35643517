#!/usr/bin/env python3
"""DumbNet fabric benchmark entry point.

Builds the benchmark program (fabricbench/fabric_bench.cc) and the DumbNet
libraries from the checkout it sits in, then runs one workload:

    python3 fabricbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 fabricbench/run.py --workload all ...   # every workload in turn
    python3 fabricbench/run.py --selftest           # the benchmark's own checks

The last line of standard output is the run's JSON result. Build output goes
to standard error. The build tree is .bench_build/ at the checkout root.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["bringup_ls4k", "coldstart_ft8", "pingmesh_ft8", "churn_ft8", "wire_rtt"]


def build():
    """Configures once, then lets the build tool bring the program up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "fabric.h")):
        sys.exit("run.py: no DumbNet sources next to fabricbench/; nothing to build")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "fabric_bench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "fabric_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload or --selftest is required")

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit("run.py: build failed: %s" % err)
    if args.selftest:
        return subprocess.run([binary, "--selftest"]).returncode

    scratch = os.path.join(BUILD, "run")
    os.makedirs(scratch, exist_ok=True)
    status = 0
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [binary, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", os.path.relpath(scratch)]
        sys.stdout.flush()
        returncode = subprocess.run(cmd).returncode
        status = status or returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
