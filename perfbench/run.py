#!/usr/bin/env python3
"""Build and run the hpcpower benchmark.

    python3 perfbench/run.py --workload study|capped_chaos|ingest_recover \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the benchmark and the library
from the checkout's sources with CMake, into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later runs rebuild only what changed. After
each new build it runs the benchmark's self-tests once. It then runs the
named workload, whose last line on stdout is the JSON result. Scratch files
go under the build directory and are removed on exit.

Exit codes: 0 result printed, 2 bad arguments or no sources, 3 build failed,
4 self-tests failed, 5 a step ran out of time; anything else is the
benchmark's own.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

BUILD_TIMEOUT_S = 800
SELFTEST_TIMEOUT_S = 120
RUN_TIMEOUT_S = 170


class StepTimeout(Exception):
    pass


def run(cmd, timeout, stdout=None):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=subprocess.STDOUT if stdout else None,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        raise StepTimeout(" ".join(cmd))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        code, out = run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                        BUILD_TIMEOUT_S, stdout=subprocess.PIPE)
        if code != 0:
            return code, out
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run(["cmake", "--build", build_dir, "-j", jobs,
                "--target", "perfbench", "perfbench_selftest"],
               BUILD_TIMEOUT_S, stdout=subprocess.PIPE)


def selftest(build_dir, work_dir):
    """Runs the self-tests unless they already passed on this exact binary."""
    binary = os.path.join(build_dir, "perfbench_selftest")
    stat = os.stat(binary)
    stamp = os.path.join(build_dir, "selftest.passed")
    signature = f"{stat.st_mtime_ns} {stat.st_size}\n"
    if os.path.isfile(stamp) and open(stamp).read() == signature:
        return 0, ""
    code, out = run([binary, os.path.join(work_dir, "selftest")], SELFTEST_TIMEOUT_S,
                    stdout=subprocess.PIPE)
    if code == 0:
        with open(stamp, "w") as f:
            f.write(signature)
    return code, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["study", "capped_chaos", "ingest_recover"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "study.hpp")):
        print(f"perfbench: no hpcpower sources under {ROOT}/src", file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    work_dir = os.path.join(build_dir, f"work-{os.getpid()}")
    try:
        code, out = build(build_dir)
        if code != 0:
            sys.stderr.write(out or "")
            print("perfbench: build failed", file=sys.stderr)
            return 3
        os.makedirs(work_dir, exist_ok=True)
        code, out = selftest(build_dir, work_dir)
        if code != 0:
            sys.stderr.write(out or "")
            print("perfbench: self-tests failed", file=sys.stderr)
            return 4
        sys.stdout.flush()
        code, _ = run([os.path.join(build_dir, "perfbench"),
                       "--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--work-dir", os.path.join(work_dir, "run")],
                      RUN_TIMEOUT_S)
        return code
    except StepTimeout as e:
        print(f"perfbench: timed out: {e}", file=sys.stderr)
        return 5
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
