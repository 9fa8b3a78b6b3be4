#!/usr/bin/env python3
"""Builds and runs the dpack wall-time benchmark.

Usage (from the root of a dpack checkout):

    python3 perfbench/run.py --workload alibaba_online --seed 11 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the library and the benchmark into .bench_build
(or $CARGO_TARGET_DIR when set); later calls only rebuild what changed. The benchmark's
last line of standard output is one JSON object with the keys correct, attempted, failed
and metrics; this script checks its metric names and units against BENCHMARK.json and
exits nonzero when the build fails, a correctness check fails or the result is malformed.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(target):
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return None
    command = ["cmake", "--build", out, "-j", jobs, "--target", target]
    if subprocess.run(command, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, target)


def build_id():
    """The commit when the checkout is the root of a git repository, else a digest of the
    library sources and build file."""
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, names in os.walk(path) for f in names)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "src-" + digest.hexdigest()[:12]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns an error message, or None when the result line has the contracted shape."""
    try:
        result = json.loads(line)
    except ValueError:
        return "the last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "unexpected result keys: %s" % sorted(result)
    if result["correct"] is not True:
        return "a correctness check failed"
    expected = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        return "metrics differ from BENCHMARK.json: %s" % sorted(
            set(got.items()) ^ set(expected.items()))
    return None


def run_process(command):
    """Runs `command` in its own process group; on timeout the whole group is killed."""
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        print("benchmark timed out after %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return None, 1
    return stdout, process.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's statistics tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_stats_test")
        return 1 if binary is None else subprocess.run([binary], cwd=ROOT).returncode
    if not args.workload:
        parser.error("--workload is required")

    binary = build("dpack_perfbench")
    if binary is None:
        print("build failed", file=sys.stderr)
        return 1
    command = [binary, "--workload", args.workload, "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--build-id", build_id(),
               "--run-dir", ".bench_run"]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    stdout, code = run_process(command)
    if stdout is None:
        return 1
    lines = stdout.rstrip("\n").split("\n")
    error = check_result(lines[-1], args.trace == 1) if lines else "no output"
    if error is not None:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("benchmark result rejected: %s" % error, file=sys.stderr)
        return code if code != 0 else 1
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
