#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The library and the benchmark are compiled from source into
.bench_build/perfbench (Release) before every run; an up-to-date build is a
no-op. Build output goes to standard error, so the last line of standard
output is the benchmark's JSON result. The exit code is the benchmark's
(0 ok, 1 output check failed, 2 degenerate run refused, 3 usage or error);
2 also means the library sources are missing, 4 that the build failed or
the run timed out.
"""

import argparse
import fcntl
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("fleet", "wire_churn", "self_learning")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message, code=4):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_quiet(command, timeout):
    """Runs a build step with its output on stderr; fails the run on error."""
    try:
        completed = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                                   stderr=sys.stderr, timeout=timeout,
                                   check=False)
    except subprocess.TimeoutExpired:
        fail(f"build step timed out: {' '.join(map(str, command))}")
    if completed.returncode != 0:
        fail(f"build step failed: {' '.join(map(str, command))}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("the library sources (CMakeLists.txt, src/) are not next to "
             "perfbench/; run from a full checkout", code=2)
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        run_quiet(["cmake", "--build", str(BUILD), "--target", "perfbench",
                   "-j", "4"], BUILD_TIMEOUT_S)
    return BUILD / "perfbench"


def stop_on_sigterm(signum, frame):
    """Turns SIGTERM into an exception, so the running benchmark is killed
    and waited for on the way out."""
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own self-tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if args.selftest:
        command = [str(binary), "--selftest"]
    else:
        command = [str(binary), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.trace:
            command += ["--trace-file",
                        str(BUILD / f"trace-{args.workload}.json")]
    sys.stdout.flush()
    process = subprocess.Popen(command, cwd=ROOT)
    try:
        code = process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    except BaseException:
        process.kill()
        process.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
