#!/usr/bin/env bash
# Crash-resume smoke test: for each training method, run the resilient
# example uninterrupted to get a reference per-epoch JSONL, then run the
# same configuration again with a SIGKILL injected mid-training
# (SAMPNN_FAULTS=kill@N), resume from the latest checkpoint, and require
# the resumed run's per-epoch losses/accuracies to be bitwise identical to
# the reference.
#
# Usage: scripts/crash_resume_smoke.sh [path/to/resilient_training]
# (default binary: build/release/examples/resilient_training)

set -u

# Bitwise reference/resume comparison requires bitwise-reproducible math:
# force the serial scalar kernels so results cannot depend on the host's
# SIMD support or thread count (see src/tensor/kernel_config.h).
export SAMPNN_DETERMINISTIC_KERNELS=1

BIN="${1:-build/release/examples/resilient_training}"
if [[ ! -x "$BIN" ]]; then
  echo "crash_resume_smoke: binary not found: $BIN" >&2
  echo "build it with: cmake --build --preset release --target resilient_training" >&2
  exit 1
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# scale=100 gives 600 train examples. Two legs, each over every method:
#   batch 20: 30 batches/epoch = 90 total steps, so kill@50 lands
#             mid-epoch-2, after several checkpoints (cadence 10);
#   batch 1:  600 steps/epoch, so kill@500 lands late in epoch 1 — the
#             stochastic setting (Standard^S, Dropout^S, ..., MC^S).
COMMON=(--dataset=mnist --scale=100 --epochs=3 --hidden=32
        --depth=2 --seed=42 --checkpoint_every=10)
LEGS=("20 50" "1 500")

METHODS=(standard dropout adaptive-dropout alsh mc)
FAILED=0

for leg in "${LEGS[@]}"; do
  read -r BATCH KILL_STEP <<< "$leg"
  for method in "${METHODS[@]}"; do
    dir="$WORK/b$BATCH/$method"
    mkdir -p "$dir"
    echo "== $method, batch $BATCH: reference run =="
    "$BIN" "${COMMON[@]}" --batch="$BATCH" --method="$method" \
        --checkpoint_dir="$dir/ckpt_ref" \
        --epochs_jsonl="$dir/reference.jsonl" || { FAILED=1; continue; }

    echo "== $method, batch $BATCH: crash run (SIGKILL at step $KILL_STEP) =="
    SAMPNN_FAULTS="kill@$KILL_STEP" "$BIN" "${COMMON[@]}" --batch="$BATCH" \
        --method="$method" \
        --checkpoint_dir="$dir/ckpt" \
        --epochs_jsonl="$dir/crashed.jsonl"
    status=$?
    if [[ $status -ne 137 ]]; then
      echo "crash_resume_smoke: $method b$BATCH: expected SIGKILL exit 137, got $status" >&2
      FAILED=1
      continue
    fi
    if [[ -e "$dir/crashed.jsonl" ]]; then
      echo "crash_resume_smoke: $method b$BATCH: killed run must not have written output" >&2
      FAILED=1
      continue
    fi
    if ! ls "$dir/ckpt"/ckpt-*.snnckpt >/dev/null 2>&1; then
      echo "crash_resume_smoke: $method b$BATCH: no checkpoint survived the kill" >&2
      FAILED=1
      continue
    fi

    echo "== $method, batch $BATCH: resume run =="
    "$BIN" "${COMMON[@]}" --batch="$BATCH" --method="$method" \
        --checkpoint_dir="$dir/ckpt" --resume \
        --epochs_jsonl="$dir/resumed.jsonl" || { FAILED=1; continue; }

    if python3 "$(dirname "$0")/diff_epoch_jsonl.py" \
        "$dir/reference.jsonl" "$dir/resumed.jsonl"; then
      echo "== $method, batch $BATCH: OK (resume bitwise-identical) =="
    else
      echo "crash_resume_smoke: $method b$BATCH: resumed run diverged from reference" >&2
      FAILED=1
    fi
  done
done

if [[ $FAILED -ne 0 ]]; then
  echo "crash_resume_smoke: FAILED" >&2
  exit 1
fi
echo "crash_resume_smoke: all ${#METHODS[@]} methods OK at batch 20 and batch 1"
