#!/usr/bin/env python3
"""Builds the benchmark program from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload l3-lookup --seed 1 --seconds 12 --trace 0

The program (perfbench.cpp) is compiled against the repository's libraries into
.bench_build/perfbench; the first run builds it, later runs reuse the build.
Image files go to a private directory under .bench_tmp/ that is removed when
the run ends. With --trace 1 the span trace is kept in .bench_out/.
The last line of stdout is the program's JSON result. Exit codes: 0 = ran and
every check passed, 1 = ran but an output was wrong, other = did not run.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("l3-lookup", "dram-setup", "update-churn")
# Each run must end within 180 s; building is not counted.
RUN_TIMEOUT_S = 170


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # Concurrent runs share one build.
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release", *gen],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD, "--target",
                        "perfbench", "-j", "4"],
                       stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-leaf", action="store_true",
                    help="serve a copy of the image with one leaf id changed; "
                         "the run must then report correct: false")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(REPO, ".bench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(REPO, ".bench_tmp"))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmpdir", tmp]
    if args.trace:
        out_dir = os.path.join(REPO, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            out_dir, f"trace-{args.workload}-seed{args.seed}.json")]
    if args.corrupt_leaf:
        cmd.append("--corrupt-leaf")

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.join(REPO, ".bench_tmp"))
        except OSError:
            pass  # Another run still uses it.

    lines = stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(stdout)
        print(f"perfbench: program exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 2
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    sys.stdout.write(stdout)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
