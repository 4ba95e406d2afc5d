#!/usr/bin/env python3
"""Cluster benchmark entry point.

Builds `tgroom` and the load generator `cbench` from this checkout's
sources, then runs one workload against a live five-process cluster
(router + two shard groups of primary and replica) on loopback:

    python3 clusterbench/run.py --workload read_mix --seed 1 \\
        --seconds 10 --trace 0

Run it from the repository root.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}: end-to-end metrics
with --trace 0, per-layer metrics with --trace 1 (see
clusterbench/README.md).  The build goes to $CARGO_TARGET_DIR/clusterbench
(default .bench_build/clusterbench); run data goes to .bench_run/.
Exits non-zero, without a result line, when the build or the run fails,
and with correct=false when a response check fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "clusterbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(os.cpu_count() or 1), "--target", "tgroom_server",
                  "cbench"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write("\n".join(done.stdout.splitlines()[-40:]) + "\n")
            sys.exit(f"build failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "cbench"), os.path.join(build_dir, "tgroom")


def stop_group(pgid):
    """SIGKILLs every process left in the run's process group and waits
    until none remains."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["read_mix", "plan_churn", "cold_big"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    cbench, tgroom = build()
    work = os.path.join(ROOT, ".bench_run", args.workload)
    cmd = [cbench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tgroom", tgroom, "--work", work]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        sys.exit(f"cbench did not finish within {RUN_TIMEOUT_S} s")
    finally:
        stop_group(proc.pid)
    lines = out.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(out)
        sys.exit(f"cbench failed with exit code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        sys.exit("cbench printed no result")
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.exit(f"metrics differ from BENCHMARK.json: {sorted(got)} "
                 f"vs {sorted(want)}")
    print(out, end="")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
