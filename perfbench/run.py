#!/usr/bin/env python3
"""Builds the rails benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark binary (perfbench/src, linked against the
library in src/) is configured and built under $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that variable is unset; a build that is up to
date costs one `cmake --build` check. Build output goes to stderr, so the last
line of stdout is the binary's JSON result. The exit code is the binary's.

--self-test feeds each output check one wrong output (a flipped payload byte,
a missing delivery, a goodput above the bandwidth bound) on every workload and
requires each of those runs to fail, then requires clean runs to pass.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("torus_eager", "testbed_loaded", "chaos_reliable")
INJECTIONS = ("flip-byte", "missing-delivery", "goodput")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (first time) and builds the binary; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    if subprocess.run(["cmake", "--build", out, "-j", jobs], stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "rails_perfbench")


def run(binary, workload, seed, seconds, trace, inject="none"):
    """Runs the binary; returns (exit code, parsed last stdout line or None)."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--inject", inject],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout


def self_test(binary):
    ok = True
    for workload in WORKLOADS:
        for inject in INJECTIONS:
            code, result, _ = run(binary, workload, 1, 0, 0, inject)
            caught = code != 0 and result is not None and result["correct"] is False
            print(f"{workload:15s} {inject:17s} {'fails the run (ok)' if caught else 'NOT CAUGHT'}")
            ok = ok and caught
        code, result, _ = run(binary, workload, 1, 0, 0)
        clean = code == 0 and result is not None and result["correct"] is True
        print(f"{workload:15s} {'none':17s} {'passes (ok)' if clean else 'FAILED'}")
        ok = ok and clean
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None
                               or args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test(binary)
    code, _, stdout = run(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
