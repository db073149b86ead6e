#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes (about a minute after the build).

    python3 crawlbench/smoke_test.py

For every workload in BENCHMARK.json it runs run.py untraced and traced and
asserts that the result line has exactly the keys correct, attempted,
failed and metrics, that the run is correct, and that every end-to-end
(untraced) or per-layer (traced) metric named in BENCHMARK.json prints,
with its unit. It then reruns each workload
with a tampered reference fingerprint and asserts the output check trips.
Exits non-zero on the first failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.05"
SECONDS = "1"


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", SECONDS, "--trace",
           str(trace), "--scale", SCALE, *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def fail(msg):
    print(f"smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_metrics(where, result, specs, positive):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True:
        fail(f"{where}: run reported incorrect output")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{where}: attempted = {result['attempted']}")
    if result["failed"] != 0:
        fail(f"{where}: failed = {result['failed']}")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in specs}
    if set(metrics) != set(want):
        fail(f"{where}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(metrics))}, "
             f"extra {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        m = metrics[name]
        if m.get("unit") != unit:
            fail(f"{where}: {name} has unit {m.get('unit')!r}, want {unit!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"{where}: {name} = {v!r}")
        if positive and v <= 0:
            fail(f"{where}: end-to-end metric {name} = {v} is not positive")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, result, err = run(name, trace)
            if code != 0 or result is None:
                fail(f"{name} trace={trace}: exit {code}\n{err}")
            check_metrics(f"{name} trace={trace}", result, specs,
                          positive=trace == 0)
        code, result, _ = run(name, 0, "--tamper-fingerprint")
        if code == 0 or result is None or result["correct"] is not False:
            fail(f"{name}: tampered fingerprint did not trip the output check")
        print(f"smoke: {name} ok")
    print("smoke: ok")


if __name__ == "__main__":
    main()
