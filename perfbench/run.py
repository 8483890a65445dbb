#!/usr/bin/env python3
"""Build and run the DHL repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload ipsec-64 --seed 1 --seconds 10 --trace 0

The benchmark is compiled from source on first use into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), as a Release
build.  Build output goes to stderr; stdout carries the benchmark's
human-readable metric table and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics.  The metric names and units are
checked against BENCHMARK.json before the result is printed; any build,
run or contract failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build the benchmark binary; return its path."""
    target_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(target_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "dhl_perfbench", "-j", jobs],
    ]
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=840).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if rc != 0:
            fail(f"build step {' '.join(cmd[:2])} exited with {rc}")
    binary = os.path.join(build_dir, "dhl_perfbench")
    if not os.path.isfile(binary):
        fail("benchmark binary missing after build")
    return binary


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def check_result(line, spec, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("benchmark did not end with a JSON result line")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    section = spec["per_layer" if trace == "1" else "end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            fail(f"metric {name} has no numeric value")
    return result


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with {proc.returncode}")
    result = check_result(lines[-1], spec, args.trace)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
