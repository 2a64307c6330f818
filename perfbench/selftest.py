#!/usr/bin/env python3
"""Benchmark self-test: runs every workload run.py knows (the gated ones in
BENCHMARK.json and train-stochastic) at a tiny size, untraced and traced,
and asserts that

  * the result line names every metric of BENCHMARK.json (end_to_end for
    --trace 0, per_layer for --trace 1), each with its declared unit, and
    nothing else;
  * the correctness checks pass: "correct" is true and no operation failed.

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-minibatch", "train-stochastic", "serve-open-loop")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "2", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit "
                             f"{proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def check(result, expected, label, stderr):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"attempted {result.get('attempted')} "
                        f"failed {result.get('failed')}")
    metrics = result.get("metrics", {})
    for name, unit in expected.items():
        got = metrics.get(name)
        if got is None:
            problems.append(f"missing {name}")
        elif got.get("unit") != unit or not isinstance(got.get("value"),
                                                        (int, float)):
            problems.append(f"{name}: {got} (want unit {unit})")
    for name in sorted(set(metrics) - set(expected)):
        problems.append(f"unexpected metric {name}")
    if problems:
        raise AssertionError(f"{label}:\n  " + "\n  ".join(problems) +
                             "\n" + stderr[-2000:])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = 0
    gated = {w["name"] for w in bench["workloads"]}
    if not gated <= set(WORKLOADS):
        print(f"FAIL BENCHMARK.json names unknown workloads {gated - set(WORKLOADS)}")
        return 1
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            try:
                result, stderr = run(workload, trace)
                check(result, expected[trace], label, stderr)
                print(f"ok   {label}: {len(result['metrics'])} metrics, "
                      f"{result['attempted']} operations")
            except (AssertionError, ValueError, IndexError,
                    subprocess.TimeoutExpired) as e:
                failures += 1
                print(f"FAIL {label}: {e}")
    print("self-test " + ("passed" if failures == 0 else f"failed ({failures})"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
