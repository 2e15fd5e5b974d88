#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the program's default configuration (RelWithDebInfo) together with
the benchmark binary into .bench_build/ at the root of the checkout, then
runs the binary.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones; a traced run also
writes its spans to .bench_build/spans/.

Extra flags for the benchmark's own tests: --scale <x> shrinks the inputs,
--inject corrupt-frame|digest-mismatch breaks one output on purpose.

Exit status: 0 when every correctness gate passed; non-zero (with no result
line) when the build fails, or (with "correct": false) when a gate fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "pfr_perfbench")
WORKLOADS = ("serve-ring-oi", "engine-harmonic-1024", "serve-sharded-hybrid")
# The binary measures for --seconds and then checks its outputs; it never
# needs this long, so hitting the limit means it hung.
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark target; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log(f"no program sources at {ROOT} (CMakeLists.txt missing)")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", BUILD,
                      "-DPFR_BUILD_TESTS=OFF", "-DPFR_BUILD_BENCH=OFF",
                      "-DPFR_BUILD_EXAMPLES=OFF",
                      "-DCMAKE_PROJECT_pfair_reweight_INCLUDE="
                      + os.path.join(HERE, "hook.cmake")])
    steps.append(["cmake", "--build", BUILD, "--target", "pfr_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as e:
            log(f"cannot run {cmd[0]}: {e}")
            return False
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return os.path.isfile(BINARY)


def commit():
    """The checkout's git commit, or 'unknown' outside a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--inject", choices=("corrupt-frame", "digest-mismatch"))
    args = parser.parse_args()

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale), "--commit", commit()]
    if args.inject:
        cmd += ["--inject", args.inject]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--span-out",
                os.path.join(spans, f"{args.workload}-{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
