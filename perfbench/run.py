#!/usr/bin/env python3
"""Builds and runs the AStream headline benchmark.

    python3 perfbench/run.py --workload agg_churn --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The first call configures and
builds the engine and the benchmark program under .bench_build/ (later calls
only re-check the build). The program's stdout is passed through unchanged:
its last line is one JSON object with the keys correct, attempted, failed
and metrics. The exit code is the program's: nonzero on any output mismatch,
refused operation or failed workload self-check, and nonzero when the
engine sources are missing. With --trace 1 the span trace is written to
.bench_build/traces/<workload>-seed<seed>.ndjson.

Arguments after the four standard ones are handed to the program as they
are (--scale, --check-partition, --corrupt-digest; see README.md).
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_headline")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources not found under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
         "--target", "perfbench_headline"],
        stdout=sys.stderr, check=True)


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the engine and benchmark sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["agg_churn", "join_sharded", "mjoin_spill"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        fail("build failed: " + str(e))

    work_dir = os.path.join(BUILD_ROOT, "work-%d" % os.getpid())
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--commit", source_id()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD_ROOT, "traces", "%s-seed%d.ndjson" % (args.workload, args.seed))]
    cmd += extra
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, cwd=ROOT).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
