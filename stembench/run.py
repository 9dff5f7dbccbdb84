#!/usr/bin/env python3
"""Build and run the stemcp benchmark.

    python3 stembench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>
    python3 stembench/run.py --self-test

Run from the root of a stemcp checkout.  The benchmark compiles the
repository's libraries from ./src together with the benchmark program
(stembench/CMakeLists.txt) into $CARGO_TARGET_DIR/stembench, or
.bench_build/stembench when that variable is unset, then runs one workload.
The program prints its result as one JSON object on the last line of standard
output; build output goes to standard error.  --self-test builds and runs the
benchmark's own tests instead.  See stembench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir, target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("stembench: no stemcp sources in %s/src; run from a stemcp checkout" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", target, "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("stembench: build failed: %s" % " ".join(cmd))
    return os.path.join(build_dir, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dump-stream", help="also write the stream as a stemcp trace file")
    ap.add_argument("--self-test", action="store_true", help="run the benchmark's own tests")
    args = ap.parse_args()

    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target_root):
        target_root = os.path.join(ROOT, target_root)
    build_dir = os.path.join(target_root, "stembench")

    if args.self_test:
        test = build(build_dir, "stembench_test")
        return subprocess.run([test]).returncode
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    binary = build(build_dir, "stembench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(build_dir, "out")]
    if args.dump_stream:
        cmd += ["--dump-stream", args.dump_stream]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
