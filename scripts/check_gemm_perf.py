#!/usr/bin/env python3
"""Gates the packed GEMM's throughput and thread-scaling behaviour.

Usage:
  scripts/check_gemm_perf.py <BENCH_gemm.json> [--shape N] [--min-ratio R]
      [--mt-tolerance T] [--scaling-floor S] [--large-shape N]
      [--large-floor F]

Reads the JSON the `bench_micro_gemm --sweep` mode writes and enforces the
gates below. Records are keyed by (op, shape): `gemm` (Gemm), and the
backward products `gemm_trans_a` (GemmTransA, swept as tA:MxKxN) and
`gemm_trans_b` (GemmTransB, tB:MxKxN), each against its own seed scalar
loop.

  1. packed/scalar ratio: at the gate shape (default 512^3 Gemm), at each
     of the paper's skinny layer products (SKINNY_SHAPES) the sweep
     covers, and at every backward-product shape it covers, the
     single-thread product must be at least --min-ratio times its seed
     scalar loop (default 1.0: "never slower than the code it
     replaced").
  2. multi-worker never slower (HARD failure): at every swept shape with at
     least 256^3 flops volume, the best run at every effective worker count
     > 1 must reach --mt-tolerance (default 0.95) of the single-worker
     throughput. Records are grouped by the clamped `workers` field, not
     the requested thread count: requesting 4 threads on a 1-core host runs
     1 worker by design (GemmEffectiveWorkers) and is gated as such.
  3. monotone scaling: doubling the effective workers never costs more than
     (1 - --scaling-floor): best(w) >= scaling_floor * best(w/2), default
     0.9, for every swept shape at or above the 256^3 volume.
  4. large-shape cache floor: the --large-shape (default 1024) single-thread
     packed Gemm must reach --large-floor (default 0.8) of the gate shape's
     single-thread packed throughput — the blocked nest must not fall off a
     cache cliff once operands exceed L2.

Exit code 0 on success; prints the first problem and exits 1 otherwise.
"""

import argparse
import json
import sys

# The paper's layer products at batch 1, a full serve micro-batch (8) and
# batch 20, as (m, k, n); gate 1 covers each one the sweep includes.
SKINNY_SHAPES = ((1, 1000, 1000), (8, 1000, 1000), (20, 784, 1000),
                 (20, 1000, 1000))

# Swept ops and the shape prefix bench_micro_gemm --shapes takes for each.
OP_PREFIX = {"gemm": "", "gemm_trans_a": "tA:", "gemm_trans_b": "tB:"}


def fail(msg: str) -> None:
    print(f"check_gemm_perf: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def shape_name(key) -> str:
    op, m, k, n = key
    dims = f"{m}^3" if m == k == n else f"{m}x{k}x{n}"
    return OP_PREFIX[op] + dims


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench_json", help="BENCH_gemm.json from --sweep")
    parser.add_argument("--shape", type=int, default=512,
                        help="square gate shape (default 512)")
    parser.add_argument("--min-ratio", type=float, default=1.0,
                        help="required packed/scalar ratio at 1 thread")
    parser.add_argument("--mt-tolerance", type=float, default=0.95,
                        help="multi-worker runs must reach this fraction of "
                             "single-worker throughput (default 0.95)")
    parser.add_argument("--scaling-floor", type=float, default=0.9,
                        help="best(w) must reach this fraction of best(w/2) "
                             "(default 0.9)")
    parser.add_argument("--large-shape", type=int, default=1024,
                        help="square shape for the cache-cliff floor "
                             "(default 1024; skipped when not swept)")
    parser.add_argument("--large-floor", type=float, default=0.8,
                        help="large-shape 1t must reach this fraction of the "
                             "gate shape 1t (default 0.8)")
    args = parser.parse_args()

    try:
        with open(args.bench_json, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{args.bench_json}: {e}")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        fail(f"{args.bench_json}: missing or empty results array")

    # Index records: scalar baselines and packed runs per (op,m,k,n).
    scalar = {}       # (op,m,k,n) -> gflops
    packed = {}       # (op,m,k,n) -> {workers -> best gflops}
    for rec in results:
        if rec.get("op") not in OP_PREFIX:
            continue
        key = (rec["op"], rec.get("m"), rec.get("k"), rec.get("n"))
        gf = rec.get("gflops")
        if not all(isinstance(v, int) for v in key[1:]) or \
                not isinstance(gf, (int, float)):
            continue
        if rec.get("variant") == "scalar_seed":
            scalar[key] = gf
        elif rec.get("variant") == "packed":
            # Older sweeps have no `workers` field; fall back to threads.
            w = rec.get("workers", rec.get("threads"))
            if isinstance(w, int) and w >= 1:
                by_w = packed.setdefault(key, {})
                by_w[w] = max(by_w.get(w, 0.0), gf)

    blk = doc.get("block", {})

    def gate_vs_scalar(key):
        """Gate 1 at one shape; returns the 1-worker throughput."""
        if scalar[key] <= 0:
            fail(f"scalar_seed gflops is non-positive: {scalar[key]}")
        packed1 = packed[key][1]
        ratio = packed1 / scalar[key]
        print(f"check_gemm_perf: shape {shape_name(key)}: scalar "
              f"{scalar[key]:.2f} GFLOP/s, packed(1w) {packed1:.2f} GFLOP/s, "
              f"ratio {ratio:.2f}x (avx2_fma={doc.get('avx2_fma')}, "
              f"block mc={blk.get('mc')} kc={blk.get('kc')} "
              f"nc={blk.get('nc')})")
        if ratio < args.min_ratio:
            fail(f"packed 1-worker GEMM ratio {ratio:.2f}x is below the "
                 f"{args.min_ratio:.2f}x floor at {shape_name(key)}")
        return packed1

    gate = ("gemm", args.shape, args.shape, args.shape)
    if gate not in scalar:
        fail(f"no scalar_seed record at shape {args.shape}")
    if gate not in packed or 1 not in packed[gate]:
        fail(f"no packed 1-worker record at shape {args.shape}")
    packed1 = gate_vs_scalar(gate)
    backward = sorted(key for key in scalar if key[0] != "gemm")
    for key in [("gemm",) + shape for shape in SKINNY_SHAPES] + backward:
        if key in scalar and 1 in packed.get(key, {}):
            gate_vs_scalar(key)
        else:
            print(f"check_gemm_perf: {shape_name(key)} not swept; skipping "
                  f"its scalar floor")

    # Multi-worker gates, per shape at or above the 256^3 volume. Smaller
    # products are dominated by fan-out overhead and are not gated.
    min_volume = 256 ** 3
    for key, by_w in sorted(packed.items()):
        _, m, k, n = key
        if m * k * n < min_volume or 1 not in by_w:
            continue
        base = by_w[1]
        for w in sorted(by_w):
            if w == 1:
                continue
            if by_w[w] < args.mt_tolerance * base:
                fail(f"{shape_name(key)}: {w}-worker packed GEMM "
                     f"({by_w[w]:.2f} GFLOP/s) is below "
                     f"{args.mt_tolerance:.2f}x the 1-worker run "
                     f"({base:.2f} GFLOP/s) — parallel partitioning is "
                     f"losing to its own overhead")
            half = by_w.get(w // 2)
            if w % 2 == 0 and half is not None and \
                    by_w[w] < args.scaling_floor * half:
                fail(f"{shape_name(key)}: scaling is not monotone: "
                     f"{w} workers {by_w[w]:.2f} GFLOP/s < "
                     f"{args.scaling_floor:.2f}x the {w // 2}-worker run "
                     f"({half:.2f} GFLOP/s)")
        best_w = max(by_w, key=by_w.get)
        print(f"check_gemm_perf: {shape_name(key)}: workers "
              f"{{{', '.join(f'{w}: {g:.2f}' for w, g in sorted(by_w.items()))}}}"
              f" GFLOP/s, best {by_w[best_w]:.2f} at {best_w} "
              f"({by_w[best_w] / base:.2f}x 1-worker)")

    # Cache-cliff floor: large single-thread throughput must hold up.
    large = ("gemm", args.large_shape, args.large_shape, args.large_shape)
    if large in packed and 1 in packed[large]:
        large1 = packed[large][1]
        frac = large1 / packed1
        print(f"check_gemm_perf: {args.large_shape}^3 packed(1w) "
              f"{large1:.2f} GFLOP/s = {frac:.2f}x of {args.shape}^3")
        if frac < args.large_floor:
            fail(f"{args.large_shape}^3 1-worker packed GEMM "
                 f"({large1:.2f} GFLOP/s) fell below "
                 f"{args.large_floor:.2f}x of the {args.shape}^3 run "
                 f"({packed1:.2f} GFLOP/s) — cache blocking is not holding")
    else:
        print(f"check_gemm_perf: {args.large_shape}^3 not swept; "
              f"skipping cache-cliff floor")
    print("check_gemm_perf: OK")


if __name__ == "__main__":
    main()
