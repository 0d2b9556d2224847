#!/usr/bin/env python3
"""The headline benchmark's own tests.

    python3 perfbench/selftest.py

Run from the root of a source checkout (builds like run.py). Checks that:
  1. a reduced pass of every workload is digest-clean, and the per-key
     reference evaluation equals the whole-input one on it;
  2. a deliberately corrupted digest makes the command fail;
  3. in the traced mode, the self times of all spans sum to the traced
     run's wall time within 5%;
  4. without the engine sources the command fails fast and prints no result.
Exits nonzero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
WORKLOADS = ["agg_churn", "join_sharded", "mjoin_spill"]
SEED = 7


def run(workload, trace=0, extra=(), cwd=ROOT, runner=None):
    cmd = (runner or RUN) + ["--workload", workload, "--seed", str(SEED),
                             "--seconds", "1", "--trace", str(trace)] + list(extra)
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return out.returncode, result, out


def check(ok, what, out=None):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        if out is not None:
            sys.stdout.write(out.stdout[-4000:])
            sys.stderr.write(out.stderr[-4000:])
        sys.exit(1)


def main():
    for w in WORKLOADS:
        code, result, out = run(w, extra=["--scale", "0.1", "--check-partition"])
        check(code == 0 and result is not None and result["correct"]
              and result["failed"] == 0,
              w + ": reduced pass is digest-clean against the reference", out)

    code, result, out = run("join_sharded", extra=["--scale", "0.1", "--corrupt-digest"])
    check(code != 0 and result is not None and not result["correct"],
          "join_sharded: a corrupted digest fails the command", out)

    for w in WORKLOADS:
        code, result, out = run(w, trace=1, extra=["--scale", "0.25"])
        check(code == 0 and result is not None and result["correct"],
              w + ": traced run is clean", out)
        path = os.path.join(ROOT, ".bench_build", "traces", "%s-seed%d.ndjson" % (w, SEED))
        spans = [json.loads(line) for line in open(path)]
        wall = next(s["wall_ns"] for s in spans if s["name"] == "run")
        self_ns = sum(s["self_ns"] for s in spans if s["name"] != "run")
        share = self_ns / wall
        check(abs(share - 1) < 0.05,
              "%s: span self times cover %.3f of the traced wall time" % (w, share))

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, result, out = run("agg_churn", cwd=bare,
                            runner=[sys.executable, os.path.join(bare, "perfbench", "run.py")])
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and result is None,
          "without the engine sources the command fails and prints no result", out)


if __name__ == "__main__":
    main()
