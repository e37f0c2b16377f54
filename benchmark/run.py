#!/usr/bin/env python3
"""tordb end-to-end benchmark: build, run one workload, report.

Usage (from the repository root):

    python3 benchmark/run.py --workload <group100|shards100|tpcc|churn14> \
        --seed <n> --seconds <s> --trace <0|1>

Builds benchmark/ (which compiles ../src) with CMake into the directory
named by CARGO_TARGET_DIR, default .bench_build, then runs the benchmark
binary. The binary's standard output is passed through; its last line is
the JSON result. With --trace 1 the spans are written to
.bench_trace/<workload>-seed<n>.json. TORDB_* variables are removed from
the binary's environment so that no environment switch can change a
workload's schedule or cost. Exits non-zero, without a result, when the
sources are missing or the build fails.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("group100", "shards100", "tpcc", "churn14")
# A run must end within 180 s; this bound leaves the wrapper time to report.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"benchmark: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once and build incrementally; returns the binary path."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "tordb_bench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not (ROOT / "src" / "core" / "replication_engine.h").is_file():
        log(f"tordb sources not found under {ROOT / 'src'}")
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    try:
        binary = build(target / "tordb-benchmark")
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = ROOT / ".bench_trace"
        trace_dir.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    env = {k: v for k, v in os.environ.items() if not k.startswith("TORDB_")}
    # On timeout the binary is killed; the repetition it forked dies with it
    # (it runs with a parent-death signal).
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
