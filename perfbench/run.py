#!/usr/bin/env python3
"""Benchmark of the pLUTo simulator's host time, memory and paper gap.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench_driver from the
checkout's src/ into .bench_build/perfbench (Release), writes the
workload's scenario for --seed, and runs the driver in one child
process with two worker threads (one on a single-CPU machine).

--trace 0 measures the end-to-end metrics with tracing off;
--trace 1 runs the product path untraced and traced and reports the
per-layer metrics (see perfbench/layers.json and README.md). The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is non-zero when a correctness
check fails or the driver fails; nothing is printed as a result when
the build fails.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))
# Campaign worker threads: half of a 4-vCPU shared host, so the
# measured threads do not compete with each other, the driver's own
# process and the host's other tenants for every vCPU.
THREADS = max(1, min(2, os.cpu_count() or 1))
# Each driver child must end well inside the 180 s a run may take.
DRIVER_TIMEOUT_S = 150

FIG7_WORKLOADS = ["CRC-8", "CRC-16", "CRC-32", "Salsa20", "VMPC",
                  "ImgBin", "ColorGrade"]
DESIGNS = ["gsa", "bsa", "gmc"]
MEMORIES = ["ddr4", "3ds"]


def fig7_scenario(seed):
    """Batch mode over Figure 7: 7 workloads x 3 designs x 2 memories
    at paper-scale element counts (42 cells)."""
    lines = ["[scenario]", "name = fig7_batch", ""]
    for mem in MEMORIES:
        for design in DESIGNS:
            lines += [f"[variant {design}-{mem}]", f"memory = {mem}",
                      f"design = {design}", ""]
    for w in FIG7_WORKLOADS:
        lines += [f"[workload {w}]", f"seed = {seed + 1}", ""]
    return "\n".join(lines), len(MEMORIES) * len(DESIGNS) * len(FIG7_WORKLOADS)


LENET_BITS = [1, 4]
LENET_IMAGES = [16, 64]
LENET_SEEDS = 4


def lenet_scenario(seed):
    """nn mode: LeNet-5 over bits x images x seeds x {BSA, GSA salp
    16/64, GMC} (64 cells)."""
    seeds = ", ".join(str(LENET_SEEDS * seed + k + 1)
                      for k in range(LENET_SEEDS))
    text = f"""[scenario]
name = lenet_nn

[device]
memory = ddr4

[variant bsa]
design = bsa

[variant gsa]
design = gsa
sweep salp = 16, 64

[variant gmc]
design = gmc

[nn lenet5]
sweep bits = {", ".join(map(str, LENET_BITS))}
sweep images = {", ".join(map(str, LENET_IMAGES))}
sweep seed = {seeds}
"""
    cells = 4 * len(LENET_BITS) * len(LENET_IMAGES) * LENET_SEEDS
    return text, cells


# service_fleet.ini's pool and rate scaled down 4x (256 -> 64 devices,
# 8.8M -> 2.2M req/s, the same 95% utilization) over its full 580 ms
# window: the same ~1.28M requests in a 0.3 s pool build instead of
# 1.2 s, so a run holds about a dozen repetitions of the cell.
FLEET_DEVICES = 64
FLEET_RATE = 2200000
FLEET_DURATION_MS = 580


def fleet_scenario(seed):
    """Service mode: examples/scenarios/service_fleet.ini scaled to a
    64-device GMC pool (one cell, memo on), ~1.28M Poisson requests,
    with the load-generation seed taken from --seed."""
    text = f"""[scenario]
name = fleet_serve

[device]
memory = ddr4
design = gmc
salp = 128

[workload ColorGrade]
elements = 1024
tenant = 0
slo_ms = 2

[workload ImgBin]
elements = 1024
tenant = 1
weight = 0.8
slo_ms = 2

[workload Bitwise-XOR]
elements = 1024
tenant = 2
weight = 0.6
slo_ms = 4

[workload CRC-8]
elements = 1024
tenant = 3
weight = 0.4
slo_ms = 4

[service fleet]
mode = open
arrivals = poisson
rate = {FLEET_RATE}
duration_ms = {FLEET_DURATION_MS}
policy = adaptive
batch = 64
devices = {FLEET_DEVICES}
lanes = 16
seed = {seed + 11}
tenant_skew = 2.0
slo_ms = 2
tail_quantile = 0.99
"""
    return text, round(FLEET_RATE * FLEET_DURATION_MS / 1000)


# mode: driver mode; make: seed -> (scenario text, operations expected);
# op / item: what attempted/failed and host_ns_per_item count;
# setups: set-ups timed before each product repetition.
Workload = namedtuple("Workload", "mode make op item setups")
WORKLOADS = {
    "fig7_batch": Workload("batch", fig7_scenario, "cell", "element", 33),
    "lenet_nn": Workload("nn", lenet_scenario, "cell", "inference", 33),
    "fleet_serve": Workload("service", fleet_scenario, "request",
                            "request", 1),
}

COLD_START = ("cold: no campaign cache, empty serve memo, every cell "
              "builds fresh devices and loads its LUTs itself")

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "host_ns_per_item": "ns/item",
    "peak_rss_mb": "MB", "ok_share": "share", "paper_gap_x": "x",
    "paper_energy_gap_x": "x",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally. Returns the driver
    path, or None when the checkout cannot be built."""
    if not (ROOT / "src").is_dir():
        log(f"perfbench: no simulator sources under {ROOT / 'src'}")
        return None
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        steps.append(cmd)
    steps.append(["cmake", "--build", str(BUILD), "-j", str(BUILD_JOBS)])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    driver = BUILD / "perfbench_driver"
    return driver if driver.exists() else None


def run_driver(driver, mode, scenario, phase, seconds, setup_reps, tag):
    """Run one driver child; returns its JSON, or None on failure."""
    out = BUILD / "out" / tag
    out.mkdir(parents=True, exist_ok=True)
    result = BUILD / "run" / f"{tag}.{phase}.json"
    if result.exists():
        result.unlink()
    cmd = [str(driver), "--mode", mode, "--scenario", str(scenario),
           "--phase", phase, "--seconds", str(seconds),
           "--threads", str(THREADS), "--setup-reps", str(setup_reps),
           "--out", str(out), "--result", str(result)]
    try:
        # subprocess.run kills and reaps the child on timeout.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: driver timed out after {DRIVER_TIMEOUT_S} s")
        return None
    if r.returncode != 0:
        log(f"perfbench: driver exited with code {r.returncode}")
        return None
    return json.loads(result.read_text())


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def paper_gaps(cells):
    """Per DDR4 design: simulated GMEAN speedup / energy saving over
    the CPU, and the paper's value divided by it. Returns the rows and
    the geomean gaps over the three designs."""
    ref = json.loads((HERE / "paper_reference.json").read_text())
    rows = []
    for design in DESIGNS:
        ddr4 = [c for c in cells if c.get("variant") == f"{design}-ddr4"]
        if len(ddr4) != len(FIG7_WORKLOADS):
            raise ValueError(f"expected {len(FIG7_WORKLOADS)} "
                             f"{design}-ddr4 cells, got {len(ddr4)}")
        sim_x = geomean([c["speedup_cpu"] for c in ddr4])
        sim_e = geomean([c["energy_x"] for c in ddr4])
        paper_x = ref["fig7_speedup_over_cpu"][design.upper()]
        paper_e = ref["fig10_energy_saving_over_cpu"][design.upper()]
        rows.append((design.upper(), sim_x, paper_x, paper_x / sim_x,
                     sim_e, paper_e, paper_e / sim_e))
    return rows, geomean([r[3] for r in rows]), geomean([r[6] for r in rows])


def save_digests(name, seed, data):
    """Keep the run's digests so two checkouts can be compared with
    perfbench/compare_digests.py."""
    d = BUILD / "digests"
    d.mkdir(parents=True, exist_ok=True)
    doc = {"workload": name, "seed": seed, "digest": data["digest"],
           "cells": {c["name"]: c["digest"] for c in data["cells"]}}
    (d / f"{name}-seed{seed}.json").write_text(json.dumps(doc, indent=1))


def result_line(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def fail_result(name, op, expected, metric_names):
    """The driver did not finish: every operation counts as failed."""
    print(f"FAILED     {name}: driver did not finish; all {expected} "
          f"{op}s counted as failed")
    print(f"attempted  {expected}  failed {expected}")
    result_line(False, expected, expected,
                {m: {"value": 0.0, "unit": u} for m, u in metric_names})
    return 1


def measure(name, seed, seconds, driver, scenario, expected):
    wl = WORKLOADS[name]
    mode = wl.mode
    data = run_driver(driver, mode, scenario, "measure", seconds,
                      wl.setups, f"{name}-seed{seed}")
    if data is None:
        return fail_result(name, wl.op, expected, END_TO_END_UNITS.items())

    cells = data["cells"]
    problems = []
    bad_cells = [c["name"] for c in cells if not c["ok"]]
    if bad_cells:
        problems.append(f"{len(bad_cells)} cells failed verification: "
                        + ", ".join(bad_cells[:5]))
    if not data["reps_agree"]:
        problems.append("repetitions of one run produced different "
                        "simulated outputs")
    if mode == "service":
        generated = int(data["generated"])
        completed = int(data["items"])
        attempted = generated
        failed = (generated - completed) + sum(
            int(c["items"]) for c in cells if not c["ok"])
        if completed != generated:
            problems.append(f"completed {completed} requests of "
                            f"{generated} generated")
    else:
        attempted = len(cells)
        failed = len(bad_cells)
    failed = max(0, min(attempted, failed))

    # Noise on a shared host only ever adds time to a repetition, so
    # the fastest one is the steadiest estimate of the program's own
    # cost; the median and quartiles are printed beside it.
    walls = data["wall_s"]
    wall = min(walls)
    setup = statistics.median(data["setup_s"])
    items = int(data["items"])
    metrics = {
        "wall_s": wall,
        "setup_s": setup,
        "host_ns_per_item": (wall - setup) * 1e9 / items if items else 0.0,
        "peak_rss_mb": data["peak_rss_mb"],
        "ok_share": 1.0 - failed / attempted if attempted else 0.0,
        # No reference exists outside Figure 7: the neutral 1.0 keeps
        # one metric set for every workload and is not an error figure.
        "paper_gap_x": 1.0,
        "paper_energy_gap_x": 1.0,
    }

    print(f"workload   {name}  ({mode} mode, seed {seed}, "
          f"{THREADS} threads)")
    print(f"items      {items} {wl.item}s; operations are {wl.op}s; "
          f"{COLD_START}")
    q1, q2, q3 = statistics.quantiles(walls, n=4)
    print(f"runs       {len(walls)} product repetitions after one warm-up, "
          f"{len(data['setup_s'])} set-ups; wall_s is the fastest "
          f"repetition, setup_s the median set-up")
    print(f"wall       min {wall:.4f} s, quartiles {q1:.4f} / {q2:.4f} / "
          f"{q3:.4f} s, max {max(walls):.4f} s")
    if name == "fig7_batch":
        rows, gap_x, gap_e = paper_gaps(cells)
        metrics["paper_gap_x"] = gap_x
        metrics["paper_energy_gap_x"] = gap_e
        print("paper      DDR4 GMEAN over the CPU, simulated vs paper "
              "(gap = paper / simulated):")
        for d, sx, px, gx, se, pe, ge in rows:
            print(f"  {d}  speedup {sx:.4g}x vs {px}x  gap {gx:.3f}x   "
                  f"energy {se:.4g}x vs {pe}x  gap {ge:.3f}x")
    else:
        print(f"paper      no reference exists for {name} (model "
              f"unvalidated); no error figure. paper_gap_x and "
              f"paper_energy_gap_x read a neutral 1.0")
    for m, unit in END_TO_END_UNITS.items():
        print(f"  {m:<20} {metrics[m]:.6g} {unit}")
    print(f"attempted  {attempted} {wl.op}s  failed {failed}")
    print(f"digest     {name} seed={seed} {data['digest']}")
    save_digests(name, seed, data)
    for p in problems:
        print(f"CHECK FAILED: {p}")

    correct = not problems and failed == 0
    result_line(correct, attempted, failed,
                {m: {"value": metrics[m], "unit": u}
                 for m, u in END_TO_END_UNITS.items()})
    return 0 if correct else 1


def trace(name, seed, seconds, driver, scenario, expected):
    wl = WORKLOADS[name]
    mode = wl.mode
    layers = json.loads((HERE / "layers.json").read_text())["metrics"]
    data = run_driver(driver, mode, scenario, "trace", seconds, 1,
                      f"{name}-seed{seed}")
    if data is None:
        return fail_result(name, wl.op, expected,
                           [(m["name"], m["unit"]) for m in layers])

    cells = data["cells"]
    problems = []
    if data["traced_digest"] != data["untraced_digest"]:
        problems.append("traced run's simulated outputs differ from "
                        "the untraced run's")
    bad = [c["name"] for c in cells if not c["ok"]]
    if bad:
        problems.append(f"{len(bad)} cells failed verification")
    if mode == "batch":
        # The traced decomposition repeats the product cells, so its
        # per-cell spans must account for the product's cell walls.
        ratio = data["traced_cell_sum_ms"] / data["product_cell_sum_ms"]
        print(f"cells      traced span sum / product wallMs sum = "
              f"{ratio:.3f}")
        if not 2 / 3 <= ratio <= 1.5:
            problems.append(f"per-cell span sum is {ratio:.2f}x the "
                            f"product's per-cell wallMs")

    print(f"workload   {name}  traced run ({mode} mode, seed {seed})")
    print(f"wall       untraced {data['untraced_wall_s']:.4f} s, traced "
          f"{data['traced_wall_s']:.4f} s")
    print("spans      name                         count   total_ms    "
          "self_ms")
    for s in data["spans"]:
        print(f"  {s['name']:<30} {int(s['count']):>6} "
              f"{s['total_ms']:>10.2f} {s['self_ms']:>10.2f}")
    values = data["layers"]
    print("layers")
    for m in layers:
        print(f"  {m['name']:<34} {values[m['name']]:.6g} {m['unit']}")
    if mode == "service":
        # Summed over cells, so on a multi-cell workload this is
        # worker time and exceeds the wall.
        accounted = (values["serve.pool_setup_ms"]
                     + values["serve.loop_ms"]) / 1e3
        print(f"serve      pool set-up + loop = {accounted:.4f} s, "
              f"{accounted / data['untraced_wall_s'] - 1:+.3f} against "
              f"the untraced wall; tracing overhead "
              f"{values['obs.trace_overhead_share']:+.3f}")
    for p in problems:
        print(f"CHECK FAILED: {p}")

    correct = not problems
    attempted = (int(data["items"]) if mode == "service" else len(cells))
    failed = attempted if problems else 0
    result_line(correct, attempted, failed,
                {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                 for m in layers})
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    t0 = time.monotonic()
    driver = build()
    if driver is None:
        return 2
    log(f"perfbench: build ready in {time.monotonic() - t0:.1f} s")

    text, expected = WORKLOADS[args.workload].make(args.seed)
    scen_dir = BUILD / "run"
    scen_dir.mkdir(parents=True, exist_ok=True)
    scenario = scen_dir / f"{args.workload}-seed{args.seed}.ini"
    scenario.write_text(text)
    run = trace if args.trace else measure
    return run(args.workload, args.seed, args.seconds, driver, scenario,
               expected)


if __name__ == "__main__":
    sys.exit(main())
