#!/usr/bin/env bash
#
# End-to-end determinism checks for pluto_sim, run by ctest as
# `e2e_determinism` (label e2e). Under --deterministic every emitted
# file must be byte-identical across:
#
#   - the determinism matrix, per campaign mode (batch on quickstart
#     and on sweep_designs, which covers GSA's per-query LUT reloads;
#     service; nn):
#       --threads 1 vs --threads 8;
#       the scalar kernel path (PLUTO_NO_SIMD=1) vs the dispatched
#       SIMD path;
#       a 3-way sharded campaign's merge pass vs the cold run, with
#       a jsonl and with a binary cache;
#   - the serve memo modes: memo = on, off and verify, comparing the
#     primary outputs and the side-band files (--metrics-out,
#     --tail-report, --timeseries).
#
# pluto_sim exits 2 on any unverified cell, which fails the script.
#
# Usage:
#   scripts/e2e_determinism.sh PATH/TO/pluto_sim
#
# Works in a temporary directory that is removed on exit.

set -euo pipefail

BIN="${1:?usage: e2e_determinism.sh PATH/TO/pluto_sim}"
BIN="$(cd "$(dirname "$BIN")" && pwd)/$(basename "$BIN")"
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SCENARIOS="$ROOT/examples/scenarios"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK" || exit 1

fail() {
  echo "e2e_determinism: $*" >&2
  exit 1
}

# Byte-compare file $1 with file $2.
same() {
  cmp "$1" "$2" || fail "$1 differs from $2"
}

echo "simd tier: $("$BIN" --simd-tier)" \
     "(scalar run: $(PLUTO_NO_SIMD=1 "$BIN" --simd-tier))"

# ---- Determinism matrix ----

legs=("batch $SCENARIOS/quickstart.ini"
      "batch $SCENARIOS/sweep_designs.ini"
      "service $SCENARIOS/service_saturation.ini"
      "nn $SCENARIOS/nn_lenet5.ini")
for leg in "${legs[@]}"; do
  read -r mode ini <<<"$leg"
  dm="dm-$mode-$(basename "$ini" .ini)"
  flags=(--deterministic --quiet)
  [[ "$mode" == service ]] && flags+=(--service)
  [[ "$mode" == nn ]] && flags+=(--nn)

  "$BIN" "$ini" --threads 1 --out "$dm-t1" "${flags[@]}" > "$dm-t1.log"
  "$BIN" "$ini" --threads 8 --out "$dm-t8" "${flags[@]}" > "$dm-t8.log"
  PLUTO_NO_SIMD=1 "$BIN" "$ini" --threads 8 --out "$dm-scalar" \
    "${flags[@]}" > "$dm-scalar.log"
  for f in "$dm-t1"/*; do
    same "$f" "$dm-t8/$(basename "$f")"
    same "$f" "$dm-scalar/$(basename "$f")"
  done

  for fmt in jsonl binary; do
    "$ROOT/scripts/run_sharded.sh" --pluto-sim "$BIN" --mode "$mode" \
      --scenario "$ini" --shards 3 --cache-format "$fmt" \
      --deterministic --out-dir "$dm-shards-$fmt" > "$dm-$fmt.log"
  done
  for f in "$dm-shards-jsonl"/merged/*.csv \
           "$dm-shards-jsonl"/merged/*.json; do
    same "$f" "$dm-t1/$(basename "$f")"
    same "$f" "$dm-shards-binary/merged/$(basename "$f")"
  done
  echo "determinism matrix: $mode $(basename "$ini") ok"
done

# ---- Memo determinism (on / off / verify) ----

# The batch-signature memo is an optimization, not an approximation:
# every file, side-band analysis included, must match memo = on.
for memo in on off verify; do
  mkdir -p "memo-cfg-$memo"
  { cat "$SCENARIOS/service_saturation.ini"
    echo "memo = $memo"; } > "memo-cfg-$memo/scenario.ini"
  # Same relative scenario path for every mode: the path is echoed
  # into metrics.json, which must byte-compare too.
  ( cd "memo-cfg-$memo" &&
    "$BIN" --service scenario.ini \
      --out "../memo-$memo" --deterministic --quiet \
      --metrics-out "../memo-$memo/metrics.json" \
      --tail-report "../memo-$memo/tail.json" \
      --timeseries "../memo-$memo/timeseries.csv" > "../memo-$memo.log" )
done
for memo in off verify; do
  for f in memo-on/*; do
    same "$f" "memo-$memo/$(basename "$f")"
  done
  echo "memo=$memo byte-identical to memo=on"
done

echo "e2e_determinism: ok"
