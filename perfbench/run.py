#!/usr/bin/env python3
"""The cdbp benchmark: build the harness from source, run one workload.

    python3 perfbench/run.py --workload replay|dense|serve|grid \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
cdbp library and the harness (CMake, Release) under $CARGO_TARGET_DIR
(default .bench_build); later runs only re-check the build. The last line
of stdout is the harness's JSON result; the exit code is the harness's
(0 = every output checked correct). --self-test runs every workload at
small scale, checks that every metric named in BENCHMARK.json is emitted
with its unit, and that a corrupted reference makes the checks fail.
See perfbench/README.md.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["replay", "dense", "serve", "grid"]
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.abspath(target)


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "CMakeLists.txt")):
        fail(f"no cdbp sources next to {BENCH_DIR} (expected ../src)")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    build_dir = os.path.join(build_root(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append([cmake, "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append([cmake, "--build", build_dir, "--target", "perfbench_cdbp",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    binary = os.path.join(build_dir, "perfbench_cdbp")
    if not os.access(binary, os.X_OK):
        fail(f"build produced no {binary}")
    return binary


def git_sha():
    if not os.path.isdir(os.path.join(REPO_ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def workdir():
    path = os.path.join(build_root(), "perfbench-work")
    os.makedirs(path, exist_ok=True)
    return path


def harness_command(binary, args):
    return [binary, *args, "--workdir", workdir(), "--git-sha", git_sha()]


def run_once(binary, args, capture):
    """Runs the harness; returns (exit code, stdout text or None)."""
    try:
        done = subprocess.run(harness_command(binary, args),
                              stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {RUN_TIMEOUT_S} s", code=3)
    return done.returncode, done.stdout


def last_json(text):
    lines = [line for line in (text or "").splitlines() if line.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def self_test(binary):
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    for workload in WORKLOADS:
        for trace in (0, 1):
            args = ["--workload", workload, "--seed", "11", "--seconds", "1",
                    "--trace", str(trace), "--small"]
            code, out = run_once(binary, args, capture=True)
            result = last_json(out)
            tag = f"{workload} --trace {trace}"
            expect(code == 0, f"{tag}: exit code 0 (got {code})")
            if result is None:
                expect(False, f"{tag}: last line is a JSON result")
                continue
            expect(sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"], f"{tag}: result keys")
            expect(result.get("correct") is True and result.get("failed") == 0
                   and result.get("attempted", 0) >= 1,
                   f"{tag}: every output checked correct")
            got = {name: m.get("unit")
                   for name, m in result.get("metrics", {}).items()}
            expect(got == expected[trace],
                   f"{tag}: every metric emitted with its unit")
            if trace == 0:
                zero = [n for n, m in result["metrics"].items()
                        if not m["value"] > 0]
                expect(not zero, f"{tag}: no end-to-end metric is 0 {zero}")

        args = ["--workload", workload, "--seed", "11", "--seconds", "1",
                "--trace", "0", "--small", "--corrupt-reference"]
        code, out = run_once(binary, args, capture=True)
        result = last_json(out) or {}
        expect(code == 1 and result.get("correct") is False
               and result.get("failed", 0) > 0,
               f"{workload}: a corrupted reference makes the checks fail "
               f"(exit {code}, failed {result.get('failed')})")

    print(f"self-test: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv):
    binary = build()
    if argv == ["--self-test"]:
        return self_test(binary)
    code, _ = run_once(binary, argv, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
