#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --make-reference > perfbench/reference.tsv

Run it from the repository root. The build tree lives under
$CARGO_TARGET_DIR (default .bench_build), and the last line on stdout is
the driver's JSON result. Exit status: 0 for a correct run, 1 for a failed
run or build, 2 for bad arguments.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_cold", "paper_certified", "whatif_service")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    """Configures (once) and builds the driver; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(cmd))
            return None
    return os.path.join(bdir, "perfbench")


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json declares for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-reference", action="store_true")
    args = ap.parse_args()
    if not args.make_reference and (args.workload is None or args.seed is None
                                    or args.seconds is None):
        ap.error("--workload, --seed and --seconds are required")

    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        return 1
    if args.make_reference:
        return subprocess.run([exe, "--make-reference"]).returncode

    sock = os.path.join(bdir, "perfbench-%d.sock" % os.getpid())
    if len(sock) > 100:  # sun_path holds 108 bytes
        sock = os.path.relpath(sock)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--reference", os.path.join(HERE, "reference.tsv"),
           "--socket", sock]
    if args.trace:
        cmd += ["--spans", os.path.join(bdir, "spans-%s.jsonl" % args.workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    finally:
        for path in (sock, sock + ".setup"):  # left behind only by a crash
            if os.path.exists(path):
                os.unlink(path)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write("perfbench: driver printed no result (exit %d)\n"
                         % proc.returncode)
        return 1
    for line in lines[:-1]:
        sys.stderr.write(line + "\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write("perfbench: last line is not JSON: %s\n" % lines[-1])
        return 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected_metrics(args.trace):
        sys.stderr.write("perfbench: metrics differ from BENCHMARK.json\n")
        return 1
    print(lines[-1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
