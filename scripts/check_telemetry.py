#!/usr/bin/env python3
"""Validates the telemetry artifacts a bench run produces.

Usage:
  scripts/check_telemetry.py <trace.json> <telemetry.jsonl> \
      [--require-span NAME ...] [--require-method NAME ...]

Checks:
  - the trace file is valid JSON in the Chrome Trace Event format
    ({"traceEvents": [...]}) with well-formed complete events, and contains
    every span name passed via --require-span;
  - the JSONL file parses line by line, every record carries the full flat
    schema of EpochTelemetry (DESIGN.md section "Observability"), epochs are
    1-based, and every method passed via --require-method appears.

Exit code 0 on success; prints the first problem and exits 1 otherwise.
"""

import argparse
import json
import sys

TRACE_EVENT_KEYS = {"name", "cat", "ph", "ts", "dur", "pid", "tid"}

JSONL_KEYS = {
    "run", "method", "architecture", "epoch",
    "train_loss", "test_accuracy", "validation_accuracy", "epoch_seconds",
    "forward_seconds", "backward_seconds", "sampling_seconds",
    "rebuild_seconds", "parallel_seconds",
    "active_node_fraction", "hash_rebuilds",
    "alsh_avg_bucket_occupancy", "alsh_max_bucket_occupancy",
    "alsh_nonempty_buckets",
    "mc_batch_samples", "mc_delta_samples",
    "rollbacks", "nan_batches", "alsh_dense_fallbacks",
    "gemm_flops", "gemm_flops_realized", "sparse_flops",
    "gemm_parallel_dispatches", "gemm_serial_dispatches",
    "gemm_pack_b_panels", "gemm_inplace_b_panels", "gemm_pack_a_panels",
    "gemm_block_tasks",
    "drift_score", "drift_trips", "lifecycle_promotions",
    "lifecycle_rollbacks", "lifecycle_diverged",
    "rss_bytes",
}


def fail(msg: str) -> None:
    print(f"check_telemetry: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_trace(path: str, required_spans: list[str]) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: missing top-level traceEvents array")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents is empty")
    names = set()
    for i, ev in enumerate(events):
        missing = TRACE_EVENT_KEYS - ev.keys()
        if missing:
            fail(f"{path}: event {i} missing keys {sorted(missing)}")
        if ev["ph"] != "X":
            fail(f"{path}: event {i} is not a complete event (ph={ev['ph']})")
        if ev["ts"] < 0 or ev["dur"] < 0:
            fail(f"{path}: event {i} has negative ts/dur")
        names.add(ev["name"])
    for span in required_spans:
        if span not in names:
            fail(f"{path}: no '{span}' span (saw: {sorted(names)})")
    print(f"check_telemetry: {path}: {len(events)} events, "
          f"spans {sorted(names)}")


def check_jsonl(path: str, required_methods: list[str]) -> None:
    methods = set()
    count = 0
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as e:
                    fail(f"{path}:{lineno}: invalid JSON: {e}")
                missing = JSONL_KEYS - rec.keys()
                if missing:
                    fail(f"{path}:{lineno}: missing keys {sorted(missing)}")
                if not isinstance(rec["epoch"], int) or rec["epoch"] < 1:
                    fail(f"{path}:{lineno}: epoch must be a 1-based int")
                if rec["epoch_seconds"] < 0:
                    fail(f"{path}:{lineno}: negative epoch_seconds")
                methods.add(rec["method"])
                count += 1
    except OSError as e:
        fail(f"{path}: {e}")
    if count == 0:
        fail(f"{path}: no records")
    for method in required_methods:
        if method not in methods:
            fail(f"{path}: no records for method '{method}' "
                 f"(saw: {sorted(methods)})")
    print(f"check_telemetry: {path}: {count} records, "
          f"methods {sorted(methods)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="chrome trace JSON path")
    parser.add_argument("jsonl", help="per-epoch telemetry JSONL path")
    parser.add_argument("--require-span", action="append", default=[],
                        help="span name that must appear in the trace")
    parser.add_argument("--require-method", action="append", default=[],
                        help="method that must appear in the JSONL")
    args = parser.parse_args()
    check_trace(args.trace, args.require_span)
    check_jsonl(args.jsonl, args.require_method)
    print("check_telemetry: OK")


if __name__ == "__main__":
    main()
