#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

Runs every workload in BENCHMARK.json once untraced and once traced, with
--seconds 0 (one trial of each kind), and checks each result line: exact
keys, correct outputs, no failed packets, and metric names and units equal
to BENCHMARK.json's end_to_end (untraced) or per_layer (traced) lists.
Also checks that an unknown workload fails without printing a result.

Run from the repository root:

    python3 perfbench/test_smoke.py
"""

import json
import math
import subprocess
import sys


def run(args):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def check(workload, trace, section):
    args = ["--workload", workload, "--seed", "1", "--seconds", "0",
            "--trace", trace]
    proc = run(args)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-800:]}"]
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{where}: outputs not correct:\n{proc.stdout[-2000:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted {result.get('attempted')}")
    if result.get("failed") != 0:
        errors.append(f"{where}: failed {result.get('failed')}")
    want = {m["name"]: m["unit"] for m in section}
    got = {n: m.get("unit") for n, m in result.get("metrics", {}).items()}
    if got != want:
        errors.append(f"{where}: metrics {sorted(got.items())} != "
                      f"{sorted(want.items())}")
    for name, m in result.get("metrics", {}).items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"{where}: {name} = {v!r}")
        elif trace == "0" and v <= 0:
            errors.append(f"{where}: end-to-end {name} = {v} is not positive")
    return errors


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    errors = []
    for w in spec["workloads"]:
        errors += check(w["name"], "0", spec["end_to_end"])
        errors += check(w["name"], "1", spec["per_layer"])
    bad = run(["--workload", "no-such-workload", "--seed", "1",
               "--seconds", "0", "--trace", "0"])
    if bad.returncode == 0 or "{" in bad.stdout:
        errors.append("an unknown workload did not fail cleanly")
    for e in errors:
        print("FAIL:", e)
    print(f"{'FAILED' if errors else 'OK'}: {len(spec['workloads'])} workloads "
          "x {untraced, traced}")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
