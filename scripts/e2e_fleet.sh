#!/usr/bin/env bash
#
# Fleet-scale serving checks for pluto_sim, run by ctest as
# `e2e_fleet` (label e2e). Both fleet scenarios run on a window of
# virtual time short enough for a unit-test budget:
#
#   - service_fleet.ini (256 devices, Zipf-skewed tenants, open-loop
#     Poisson arrivals) capped from 580 ms to 2.5 ms (~22k of the full
#     run's ~5M requests): two cold runs emit byte-identical files,
#     and a memo=verify run (replay with a deterministic 1-in-64
#     re-executed sample, aborting on any bundle mismatch) matches
#     them; the cell serves more than 10000 requests across 4 tenants.
#   - Peak RSS stays flat in pool size (256 devices at most 1.25x the
#     peak of 16: pool entries are clocks plus a LUT-residency bit and
#     one oracle device runs every batch) and in request count (a 10x
#     longer window at most 1.25x: serve metrics fold every completion
#     into histograms and keep nothing per request).
#   - service_fleet_xl.ini (512 devices, ~50M requests at full scale)
#     capped from 2850 ms to 1.2 ms: the memoized serving core emits
#     byte-identical files to the memo=off oracle, on 512 devices and
#     more than 10000 requests.
#
# Usage:
#   scripts/e2e_fleet.sh PATH/TO/pluto_sim
#
# Works in a temporary directory that is removed on exit.

set -euo pipefail

BIN="${1:?usage: e2e_fleet.sh PATH/TO/pluto_sim}"
BIN="$(cd "$(dirname "$BIN")" && pwd)/$(basename "$BIN")"
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SCENARIOS="$ROOT/examples/scenarios"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK" || exit 1

fail() {
  echo "e2e_fleet: $*" >&2
  exit 1
}

# Rewrite line $1 of file $3 to $2 into file $4; fail unless it took.
edit_line() {
  sed "s/^$1\$/$2/" "$3" > "$4"
  grep -q "^$2\$" "$4" || fail "$4: '$1' not found in $3"
}

# Run service scenario $1 deterministically into directory $2.
serve() {
  "$BIN" --service "$1" --out "$2" --deterministic --quiet
}

# Byte-compare the service CSV and JSON of scenario $1 in dirs $2, $3.
same_outputs() {
  local ext
  for ext in service_runs.csv service_summary.json; do
    cmp "$2/$1_$ext" "$3/$1_$ext" || fail "$2 and $3 differ in $ext"
  done
}

# Print the peak RSS (KiB) of one service run of scenario $1. Each
# run gets its own python3 wrapper, so RUSAGE_CHILDREN sees only it.
peak_kb() {
  python3 - "$BIN" --service "$1" --out rss --deterministic --quiet <<'EOF'
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
EOF
}

# ---- service_fleet: determinism, memo=verify, request and tenant
# counts ----
edit_line "duration_ms = 580" "duration_ms = 2.5" \
  "$SCENARIOS/service_fleet.ini" fleet.ini
serve fleet.ini fleet-1
serve fleet.ini fleet-2
same_outputs service_fleet fleet-1 fleet-2
{ cat fleet.ini; echo "memo = verify"; } > fleet-verify.ini
serve fleet-verify.ini fleet-v
same_outputs service_fleet fleet-1 fleet-v
python3 - fleet-1/service_fleet_service_summary.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
run = doc["results"][0]
assert run["requests"] > 10000, run["requests"]
assert len(run["tenants"]) == 4, len(run["tenants"])
print("fleet: %d requests across %d tenants"
      % (run["requests"], len(run["tenants"])))
EOF

# ---- Peak RSS flat in pool size and in request count ----
edit_line "devices = 256" "devices = 16" fleet.ini fleet-16.ini
edit_line "duration_ms = 2.5" "duration_ms = 25" fleet.ini fleet-long.ini
rss16=$(peak_kb fleet-16.ini)
rss256=$(peak_kb fleet.ini)
rssLong=$(peak_kb fleet-long.ini)
echo "fleet peak RSS: ${rss16} KiB @16 devices, ${rss256} KiB @256"
[[ $((rss256 * 4)) -le $((rss16 * 5)) ]] ||
  fail "peak RSS grows with pool size"
echo "fleet peak RSS: ${rss256} KiB @2.5 ms, ${rssLong} KiB @25 ms"
[[ $((rssLong * 4)) -le $((rss256 * 5)) ]] ||
  fail "peak RSS grows with request count"

# ---- service_fleet_xl: memo on vs the memo=off oracle ----
edit_line "duration_ms = 2850" "duration_ms = 1.2" \
  "$SCENARIOS/service_fleet_xl.ini" xl.ini
edit_line "memo = on" "memo = off" xl.ini xl-off.ini
serve xl.ini xl-on
serve xl-off.ini xl-off
same_outputs service_fleet_xl xl-on xl-off
python3 - xl-on/service_fleet_xl_service_summary.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
run = doc["results"][0]
assert run["devices"] == 512, run["devices"]
assert run["requests"] > 10000, run["requests"]
print("fleet xl: %d requests on %d devices"
      % (run["requests"], run["devices"]))
EOF

echo "e2e_fleet: ok"
