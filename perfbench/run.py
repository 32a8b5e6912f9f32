#!/usr/bin/env python3
"""Build and run the ssdfail end-to-end benchmark.

    python3 perfbench/run.py --workload {retrain,ingest,online_cycle} \
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --selftest

Run from the repository root.  The first run configures and builds the
libraries under src/ plus the ssdbench program into $CARGO_TARGET_DIR
(default .bench_build); later runs only re-check the build.  Build output
goes to stderr.  The last line of stdout is the JSON result printed by
ssdbench; the exit status is ssdbench's (non-zero when an oracle fails).
Per-run scratch files live in .bench_run/ and are removed on exit; traced
runs leave their spans in .bench_out/.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", build_dir, "--target", "ssdbench", "-j", jobs]]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "ssdbench")


def run_child(cmd, **kwargs):
    """Run `cmd` to completion; if we are interrupted, kill it and wait."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        out, _ = proc.communicate()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["retrain", "ingest", "online_cycle"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: ssdfail sources (src/) not found next to perfbench/", file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    run_dir = os.path.join(ROOT, ".bench_run", f"{args.workload or 'selftest'}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        if args.selftest:
            return run_child([binary, "--selftest", "--dir", run_dir])[0]
        with open(os.path.join(HERE, "ledger.json")) as f:
            rate = json.load(f)["ingest_offered_rows_per_s"]
        code, out = run_child(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--rate", str(rate),
             "--dir", run_dir, "--out", os.path.join(ROOT, ".bench_out")],
            stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("run.py: ssdbench printed no result", file=sys.stderr)
        return code or 1
    if set(result) != RESULT_KEYS:
        print("run.py: malformed result line", file=sys.stderr)
        return 1
    print(lines[-1])
    return code


if __name__ == "__main__":
    sys.exit(main())
