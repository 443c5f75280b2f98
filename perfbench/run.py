#!/usr/bin/env python3
"""Builds and runs the arfs benchmark.

    python3 perfbench/run.py --workload serve-long --seed 1 --seconds 30 --trace 0

Run from the repository root. The benchmark program (perfbench/*.cpp) and
the arfs library (src/) are compiled with CMake into $CARGO_TARGET_DIR
(default .bench_build) on every run; an up-to-date build costs a second.
Build output goes to stderr. The program's report goes to stdout, and its
last line is one JSON object: correct, attempted, failed, and the metrics
BENCHMARK.json lists (end_to_end with --trace 0, per_layer with --trace 1).
That line is checked against BENCHMARK.json before it is printed; a build
failure, a program failure or a malformed result exits non-zero without a
result line.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    return code


def build(build_dir):
    """Configures (once) and builds the benchmark; True on success."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    made = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    return made.returncode == 0


def check_result(result, spec, trace):
    """Returns the ways `result` breaks the result-line format."""
    problems = []
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return ["result keys are not correct/attempted/failed/metrics"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(key + " is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "extra %s" % (missing, extra))
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append("%s has unit %r, expected %r"
                            % (name, entry.get("unit"), unit))
        value = entry.get("value")
        if not isinstance(value, (int, float)) or value != value:
            problems.append(name + " is not a number")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        return fail("unknown workload %r (have %s)" % (args.workload,
                                                       ", ".join(workloads)))
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("library sources (src/) not found next to perfbench/")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not build(build_dir):
        return fail("build failed")

    state_dir = os.path.join(build_dir, "state")
    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(state_dir, exist_ok=True)
    os.makedirs(spans_dir, exist_ok=True)
    command = [os.path.join(build_dir, "arfs_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--state-dir", state_dir]
    if args.trace:
        command += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.csv" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        return fail("benchmark program exited with %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(run.stdout)
        return fail("last output line is not JSON")
    problems = check_result(result, spec, args.trace)
    if problems:
        sys.stderr.write(run.stdout)
        return fail("; ".join(problems), 3)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
