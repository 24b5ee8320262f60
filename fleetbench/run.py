#!/usr/bin/env python3
"""Build and run the fleet serving benchmark.

    python3 fleetbench/run.py --workload <qec_steady|calib_churn|recal_swap>
                              --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds fleetbench/ and the compaqt sources
it drives (CMake, Release) into .bench_build/fleetbench, runs the benchmark
binary from the root, and passes its output and exit code through: the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics. A traced run (--trace 1) also writes a Chrome trace to
.bench_out/, which is strict-parsed here; a trace that does not parse turns
the result incorrect. Build output goes to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "fleetbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the benchmark; return the binary path."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, *generator,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "fleetbench")


def reject_constant(name):
    raise ValueError("non-finite number " + name)


def trace_parses(path):
    """Strict-parse a Chrome trace: RFC 8259 JSON with a traceEvents list."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f, parse_constant=reject_constant)
    except (OSError, ValueError) as e:
        print("trace %s does not parse: %s" % (path, e), file=sys.stderr)
        return False
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    return isinstance(events, list) and len(events) > 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("build failed: %s" % e, file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out", OUT_DIR]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark timed out", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0 or args.trace != "1":
        return proc.returncode

    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line)["env"] for line in lines
                if line.startswith('{"env"')), {})
    if trace_parses(env.get("trace_file", "")):
        return 0
    result = json.loads(lines[-1])
    result["correct"] = False
    print(json.dumps(result))
    return 1


if __name__ == "__main__":
    sys.exit(main())
