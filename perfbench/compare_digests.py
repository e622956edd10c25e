#!/usr/bin/env python3
"""Compare the simulated-output digests of two benchmark checkouts.

    python3 perfbench/compare_digests.py DIR_A DIR_B

Each DIR is a checkout's .bench_build/perfbench/digests directory (one
JSON file per workload and seed, written by perfbench/run.py --trace 0).
Digests hash the program's CSV/JSON reports with host-time fields
zeroed, so a change that touches host time only leaves every one
identical. Prints each differing workload and cell by name; exits 1
when any differ, 0 when all shared files agree.
"""

import json
import sys
from pathlib import Path


def load(d):
    return {p.name: json.loads(p.read_text())
            for p in sorted(Path(d).glob("*.json"))}


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    a, b = load(sys.argv[1]), load(sys.argv[2])
    shared = sorted(set(a) & set(b))
    if not shared:
        print("no workload/seed digest file in common")
        return 2
    differ = 0
    for name in shared:
        da, db = a[name], b[name]
        if da["digest"] == db["digest"]:
            print(f"same     {da['workload']} seed={da['seed']}")
            continue
        differ += 1
        print(f"DIFFERS  {da['workload']} seed={da['seed']}")
        for cell in sorted(set(da["cells"]) | set(db["cells"])):
            if da["cells"].get(cell) != db["cells"].get(cell):
                print(f"    cell {cell}")
    print(f"{len(shared)} compared, {differ} differ; "
          f"{len(set(a) - set(b))} only in A, {len(set(b) - set(a))} only in B")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
