#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload burst --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds perfbench/bench.exe with dune into
.bench_build/, then:

  * derives SUB_SEEDS simulation seeds from --seed (the only input the
    program sees);
  * before every repetition, times batches of the workload's set-up
    (setup_s) and measures the host's speed with a fixed loop
    (calibrate.ml), each in a process of its own; the host times are
    scaled to a host of fixed speed (see host_scale);
  * runs the workload in a fresh process per repetition, cycling through
    the simulation seeds, for --seconds (at least MIN_REPS repetitions,
    so every seed runs at least REPS_PER_SEED times); the first
    repetition also verifies the deployed disks. Simulated metrics are
    medians over the seeds. wall_s takes each simulated tick of a seed at
    its fastest repetition (see tick_min_s); the other host metrics are
    medians over the repetitions;
  * with --trace 1, first makes one traced run of the first seed and
    reports the per-layer metrics instead of the end-to-end ones.

Every repetition of a seed must give bit-identical simulated results,
traced or not. Any failed check prints "correct": false and exits 1.
The last line of standard output is the JSON result; the metric names
and units come from BENCHMARK.json.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("burst", "swarm", "carousel", "cassandra_deploy")
DEFAULT_SEED = 1
SUB_SEEDS = 2
REPS_PER_SEED = 3
MIN_REPS = SUB_SEEDS * REPS_PER_SEED
SETUP_BATCHES = 4
CAL_ROUNDS = 4
# First decile and median of the calibration rounds on the reference
# host, a 2-vCPU x86-64 VM (Xeon, 2.1 GHz), undisturbed. Host times are
# reported in seconds of that host.
REF_CAL_DECILE_S = 0.0108
REF_CAL_MEDIAN_S = 0.0110
STEP_TIMEOUT_S = 150
EXE = os.path.join(".bench_build", "default", "perfbench", "bench.exe")

# End-to-end metrics read from the simulation; equal for a seed.
SIM_E2E = ("ttfb_p50_s", "ttfb_p90_s", "ttdv_p50_s", "ttdv_p90_s", "tier_gb")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", ".bench_build",
           "--profile", "release", "--cache=disabled", "--display", "quiet",
           "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout + r.stderr)
        fail("build failed")


def sim_seed(workload, seed, k):
    """Simulation seed k of a benchmark seed and workload."""
    h = hashlib.sha256(f"{workload}:{seed}:{k}".encode()).hexdigest()
    return int(h[:7], 16) + 1


def step(*args):
    """Run one bench.exe step; return (notes, parsed last line)."""
    try:
        r = subprocess.run([EXE, *map(str, args)], capture_output=True,
                           text=True, timeout=STEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench.exe {' '.join(map(str, args))} timed out")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr)
        fail(f"bench.exe {' '.join(map(str, args))} exited {r.returncode}")
    return lines[:-1], json.loads(lines[-1])


def tick_min_s(runs):
    """Host seconds of one seed's simulation, each tick at its fastest run.

    Repetitions of a seed execute the same events in every tick of
    simulated time, and interference from the rest of the host only adds
    time, so the per-tick minimum over repetitions filters it out while
    any change to the program's own cost still shows.
    """
    return sum(map(min, zip(*(r["tick_ns"] for r in runs)))) / 1e9


def host_scale(cal_s):
    """Factors from this host's current speed to the reference host's.

    Each host time is scaled by the calibration statistic that matches
    it. The per-tick minimum over a few repetitions takes each tick at a
    low quantile of its disturbed times, which the first decile of the
    calibration rounds matches; setup_s is a median over batches taken
    beside the rounds, which their median matches. Each ratio cancels
    the drift in the host's own speed. Returns (wall, setup) factors.
    """
    q = statistics.quantiles(cal_s, n=10)
    return REF_CAL_DECILE_S / q[0], REF_CAL_MEDIAN_S / statistics.median(cal_s)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    build()

    w = a.workload
    seeds = [sim_seed(w, a.seed, k) for k in range(SUB_SEEDS)]
    errors = []
    attempted = failed = 0

    def account(run, what):
        nonlocal attempted, failed
        attempted += run["attempted"]
        failed += run["failed"]
        errors.extend(f"{what}: {e}" for e in run["errors"])

    traced = None
    if a.trace:
        _, traced = step("run", w, seeds[0], 1, 0)
        account(traced, "traced run")

    # (seed index, run) per repetition. Stop once the next repetition
    # would end past --seconds.
    reps, notes, cal_s, setup_s = [], [], [], []

    def sample_host():
        setup_s.extend(step("setup", w, seeds[0], SETUP_BATCHES)[1]["setup_s"])
        cal_s.extend(step("calibrate", CAL_ROUNDS)[1]["cal_s"])

    t0 = time.monotonic()
    while True:
        sample_host()
        k = len(reps) % SUB_SEEDS
        n, run = step("run", w, seeds[k], 0, 0 if reps else 1)
        notes = notes or n
        account(run, f"repetition {len(reps) + 1}")
        reps.append((k, run))
        spent = time.monotonic() - t0
        if len(reps) >= MIN_REPS and spent * (len(reps) + 1) / len(reps) > a.seconds:
            break

    first, by_seed = {}, {}
    for i, (k, run) in enumerate(reps, 1):
        by_seed.setdefault(k, []).append(run)
        if k not in first:
            first[k] = run
        elif (run["sim"] != first[k]["sim"]
              or len(run["tick_ns"]) != len(first[k]["tick_ns"])):
            failed += 1
            errors.append(f"repetition {i} simulated results differ from "
                          f"an earlier run of simulation seed {seeds[k]}")
    first = {k: run["sim"] for k, run in first.items()}
    if traced is not None and traced["sim"] != first[0]:
        failed += 1
        errors.append("traced run simulated results differ from the "
                      "untraced run")
    for sim in first.values():
        for key in SIM_E2E:
            v = sim.get(key)
            if v is None or not math.isfinite(v) or v <= 0:
                failed += 1
                errors.append(f"{key} is {v}")

    def med(key, runs=None):
        return statistics.median(r["host"][key] for _, r in runs or reps)

    values = {key: statistics.median(s.get(key) or 0.0 for s in first.values())
              for key in SIM_E2E}
    sample_host()
    wall_scale, setup_scale = host_scale(cal_s)
    raw_wall = statistics.median(map(tick_min_s, by_seed.values()))
    raw_setup = statistics.median(setup_s)
    values.update(wall_s=raw_wall * wall_scale, setup_s=raw_setup * setup_scale,
                  peak_heap_mb=med("peak_heap_mb"))
    if traced is not None:
        values.update(traced["layers"])
        values["engine.events"] = first[0]["events"]
        values["engine.ns_per_event"] = statistics.median(
            r["host"]["wall_s"] * 1e9 / r["sim"]["events"] for _, r in reps)
        values["engine.minor_words_per_event"] = med("minor_words_per_event")
        values["obs.trace_overhead"] = traced["host"]["wall_s"] / med(
            "wall_s", [(k, r) for k, r in reps if k == 0])

    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        v = values.get(m["name"])
        if v is None:
            failed += 1
            errors.append(f"no value for {m['name']}")
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}

    for line in notes:
        print(line)
    print(f"workload {w} seed {a.seed} (simulation seeds "
          f"{', '.join(map(str, seeds))}), {len(reps)} timed repetitions")
    print(f"host speed: calibration decile {REF_CAL_DECILE_S / wall_scale * 1e3:.3f} ms "
          f"(reference {REF_CAL_DECILE_S * 1e3:.3f}), median "
          f"{REF_CAL_MEDIAN_S / setup_scale * 1e3:.3f} ms (reference "
          f"{REF_CAL_MEDIAN_S * 1e3:.3f}); unscaled wall_s {raw_wall:.6g} s, "
          f"setup_s {raw_setup:.6g} s")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    for e in errors:
        print(f"error: {e}")
    correct = not errors and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
