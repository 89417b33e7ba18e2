#!/usr/bin/env python3
"""Run one perfbench workload from the root of a rangerpp checkout.

    python3 perfbench/run.py --workload zoo-setup --seed 1 --seconds 20 --trace 0

Builds the program and the benchmark from the checkout's sources (Release,
into .bench_build/perfbench), trains or calibrates the model zoo once into
.bench_build/perfbench-weights (an untimed prepare step), then runs the
workload.  The last stdout line is the result JSON
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1 (see perfbench/README.md).

A timed run never trains: the weights directory is compared before and
after, and a run that changed it fails without a result.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_BASE = Path(".bench_build")
BUILD_DIR = BUILD_BASE / "perfbench"
WEIGHTS_DIR = BUILD_BASE / "perfbench-weights"
WORK_DIR = BUILD_BASE / "perfbench-work"
PREPARED = WEIGHTS_DIR / ".prepared"
WORKLOADS = ("zoo-setup", "campaign-long", "serve-mixed")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600
PREPARE_TIMEOUT_S = 280


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, env=None, stdout=None):
    """Runs cmd in its own process group; on timeout the whole group
    (the benchmark and any daemon it spawned) is killed and reaped."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout,
                            stderr=sys.stderr, start_new_session=True,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} timed out after {timeout} s")
    try:  # a daemon left behind by a crashed benchmark
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return proc.returncode, out


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (ROOT / BUILD_DIR / "CMakeCache.txt").exists():
        rc, _ = run_group(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                           "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S,
                          stdout=sys.stderr)
        if rc != 0:
            fail("cmake configure failed")
    rc, _ = run_group(["cmake", "--build", str(BUILD_DIR), "--target",
                       "perfbench", "-j", jobs], BUILD_TIMEOUT_S,
                      stdout=sys.stderr)
    if rc != 0:
        fail("build failed")


def weights_state():
    d = ROOT / WEIGHTS_DIR
    return sorted((p.name, p.stat().st_size, p.stat().st_mtime_ns)
                  for p in d.iterdir()) if d.is_dir() else []


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not ((ROOT / "CMakeLists.txt").is_file() and
            (ROOT / "src" / "fi" / "suite.hpp").is_file()):
        fail(f"{ROOT} holds no rangerpp sources to build")
    build()

    env = dict(os.environ, RANGERPP_WEIGHTS_DIR=str(WEIGHTS_DIR))
    binary = str(BUILD_DIR / "perfbench")
    if not (ROOT / PREPARED).exists():
        (ROOT / WEIGHTS_DIR).mkdir(parents=True, exist_ok=True)
        rc, _ = run_group([binary, "prepare"], PREPARE_TIMEOUT_S, env=env,
                          stdout=sys.stderr)
        if rc != 0:
            fail("prepare failed")
        (ROOT / PREPARED).touch()

    before = weights_state()
    rc, out = run_group(
        [binary, "run", "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--trace",
         args.trace, "--work", str(WORK_DIR), "--daemon",
         str(BUILD_DIR / "rangerpp" / "scheduler_cli")],
        RUN_TIMEOUT_S, env=env, stdout=subprocess.PIPE)
    if weights_state() != before:
        fail("the timed run trained or rewrote weights; prepare first")
    lines = out.strip().splitlines()
    if not lines:
        fail(f"perfbench exited {rc} without a result")
    result = json.loads(lines[-1])
    print(json.dumps(result))
    sys.exit(rc)


if __name__ == "__main__":
    main()
