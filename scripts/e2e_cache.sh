#!/usr/bin/env bash
#
# End-to-end result-cache checks for pluto_sim, run by ctest as
# `e2e_cache` (label e2e). Every campaign mode (batch, service, nn)
# runs cold against a fresh cache and then replays from it, once per
# cache encoding (jsonl, binary):
#
#   - the replay hits every cell (batch: at least 90%, plus the
#     100% hit-rate line) and emits byte-identical files;
#   - the jsonl and binary cold runs emit byte-identical files;
#   - a jsonl-mode read of a binary cache directory fails and names
#     `--cache-format binary` instead of silently recomputing;
#   - a 3-way sharded batch campaign's merge pass replays every run.
#
# Usage:
#   scripts/e2e_cache.sh PATH/TO/pluto_sim
#
# Works in a temporary directory that is removed on exit.

set -euo pipefail

BIN="${1:?usage: e2e_cache.sh PATH/TO/pluto_sim}"
BIN="$(cd "$(dirname "$BIN")" && pwd)/$(basename "$BIN")"
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SCENARIOS="$ROOT/examples/scenarios"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK" || exit 1

fail() {
  echo "e2e_cache: $*" >&2
  exit 1
}

# Byte-compare every file of directory $1 with its namesake in $2.
same_files() {
  local f
  for f in "$1"/*; do
    cmp "$f" "$2/$(basename "$f")" || fail "$f differs from $2"
  done
}

# Run scenario $2 in mode $1 (batch, service or nn) against cache
# encoding $3 twice: a cold run that fills a fresh cache, then a
# replay. Leaves $1-$3-1/ and $1-$3-2/ (outputs) and .log files.
check_replay() {
  local mode=$1 ini=$2 fmt=$3
  local tag="$mode-$fmt"
  local -a flags=(--cache-dir "cache-$tag" --cache-format "$fmt"
                  --deterministic --quiet)
  [[ "$mode" == service ]] && flags+=(--service)
  [[ "$mode" == nn ]] && flags+=(--nn)

  "$BIN" "$ini" --out "$tag-1" "${flags[@]}" > "$tag-1.log"
  "$BIN" "$ini" --out "$tag-2" "${flags[@]}" > "$tag-2.log"

  local hits misses
  hits=$(sed -n 's/^cache_hits=\([0-9]*\) .*/\1/p' "$tag-2.log")
  misses=$(sed -n 's/.*cache_misses=\([0-9]*\) .*/\1/p' "$tag-2.log")
  [[ -n "$hits" && -n "$misses" ]] || fail "$tag: no cache summary"
  echo "$tag replay: $hits hits, $misses misses"
  [[ $((hits * 10)) -ge $(((hits + misses) * 9)) ]] ||
    fail "$tag: replay hit under 90% of cells"
  grep -q 'hit_rate=100.0%' "$tag-2.log" ||
    fail "$tag: replay did not hit every cell"
  same_files "$tag-1" "$tag-2"
}

legs=("batch $SCENARIOS/quickstart.ini"
      "service $SCENARIOS/service_saturation.ini"
      "nn $SCENARIOS/nn_lenet5.ini")
for leg in "${legs[@]}"; do
  read -r mode ini <<<"$leg"
  for fmt in jsonl binary; do
    check_replay "$mode" "$ini" "$fmt"
  done
  same_files "$mode-jsonl-1" "$mode-binary-1"
done

# A jsonl-mode read of a binary cache must fail loudly and name the
# flag that fixes it.
if "$BIN" "$SCENARIOS/quickstart.ini" --out mixed \
    --cache-dir cache-batch-binary --deterministic --quiet \
    > mixed.log 2> mixed.err; then
  fail "jsonl-mode read of a binary cache dir must fail"
fi
grep -q -- '--cache-format binary' mixed.err ||
  fail "mixed-format error does not name --cache-format binary"

# Sharded campaign: 3 cached shards, then a merge pass that must
# replay everything.
"$ROOT/scripts/run_sharded.sh" --pluto-sim "$BIN" \
  --scenario "$SCENARIOS/quickstart.ini" --shards 3 --deterministic \
  --out-dir shards > shards.log
grep -q 'hit_rate=100.0%' shards/merged/merge.log ||
  fail "sharded merge pass did not replay every run"

echo "e2e_cache: ok"
