#!/usr/bin/env python3
"""Enforce the simulation-engine performance gates over BENCH_perf.json.

Usage:
    check_perf_gates.py BENCH_perf.json [--floors tools/bench_floors.json]
    check_perf_gates.py --obs BENCH_obs.json --floors tools/bench_floors.json
    check_perf_gates.py --explore BENCH_explore.json
    check_perf_gates.py --floor BENCH_floor.json --floors tools/bench_floors.json

Five families of checks (docs/PERFORMANCE.md and docs/OBSERVABILITY.md
record the models they guard):

1. Absolute floors (--floors): each entry of the floors file names a
   (benchmark, metric) pair and a 'min' (throughput counter) or 'max'
   (ns/iteration) bound. Floors are set ~5x off the recorded numbers, so
   tripping one means an algorithmic regression, not jitter.

2. Thread scaling: BM_FaultSimThreaded/4 vs BM_FaultSimThreaded/1 real
   time. Scaling depends on the host, so the gate keys off the
   hw_threads counter the bench records: >= 2.5x required on hosts with
   >= 8 hardware threads, >= 1.8x with 4-7 (hosted CI runners are
   typically 4 hyperthreaded vCPUs), skipped below 4 where no real-time
   speedup is physically possible. Correctness at any thread count is
   covered separately by tests/test_parallel_faultsim.cpp.

3. Telemetry overhead (--obs, over BENCH_obs.json from bench_obs): the
   whole-floor overhead fraction with metrics+tracing fully on must stay
   under the 'obs.max_overhead' cap of the floors file (the <= 5%
   acceptance bar of the observability layer), and the disabled
   instrument site must stay under 'obs.max_disabled_ns' — it compiles
   to a single null-pointer test and must keep doing so. The health
   engine rides the same artifact: one sampler tick over the full floor
   catalogue is capped at 'obs.max_sampler_tick_us' and one
   HealthMonitor evaluation at 'obs.max_health_eval_us', so the
   background health loop can never grow into a tax on the floor.

4. Parallel branch and bound (--explore, over BENCH_explore.json from
   bench_explore): (a) the gap ladder's highest-thread-count row must
   certify a 1000-core bound gap strictly below both the single-thread
   population row in the same artifact and the 1.71 absolute ceiling the
   serial engine recorded before the parallel search landed — the gap is
   only ever allowed to move down; (b) deterministic mode must have held
   (every fixed-work throughput row byte-identical to the 1-thread run);
   (c) nodes/sec scaling on the fixed-work search, hw-aware like the
   fault-sim gate: >= 2.5x at 8 threads on hosts with >= 8 hardware
   threads, >= 1.8x at 4 threads with 4-7, skipped below 4.

5. Floor cache hit rate (--floor, over BENCH_floor.json from bench_floor):
   the one-worker zipf point's cache_hit_rate must reach the
   'floor.min_zipf_hit_rate' floor of the floors file. The point runs on
   one worker, so its hit count is a deterministic function of the
   cache's eviction policy: the gate is noise-free.

Exits non-zero with one line per violated gate.
"""

import argparse
import json
import pathlib
import sys

THREAD_SPEEDUP_MIN_8HW = 2.5
THREAD_SPEEDUP_MIN_4HW = 1.8


def load_values(path):
    """Returns {(name, metric): value}; the last record of a pair wins."""
    doc = json.loads(pathlib.Path(path).read_text())
    values = {}
    for rec in doc["records"]:
        if rec["value"] is not None:
            values[(rec["name"], rec["metric"])] = rec["value"]
    return values


def fmt(value):
    """Whole numbers for throughputs and times, three digits for ratios."""
    return f"{value:.0f}" if abs(value) >= 100 else f"{value:.3g}"


def check_floors(values, floors_path, problems):
    spec = json.loads(pathlib.Path(floors_path).read_text())
    for floor in spec["floors"]:
        key = (floor["name"], floor["metric"])
        value = values.get(key)
        if value is None:
            problems.append(f"floor target missing from artifact: {key}")
            continue
        if "min" in floor and value < floor["min"]:
            problems.append(
                f"{floor['name']} {floor['metric']} = {fmt(value)} "
                f"below floor {fmt(floor['min'])}")
        elif "max" in floor and value > floor["max"]:
            problems.append(
                f"{floor['name']} {floor['metric']} = {fmt(value)} "
                f"above ceiling {fmt(floor['max'])}")
        else:
            bound = floor.get("min", floor.get("max"))
            print(f"floor ok: {floor['name']} {floor['metric']} "
                  f"= {fmt(value)} (bound {fmt(bound)})")


def check_thread_scaling(values, problems):
    t1 = values.get(("BM_FaultSimThreaded/1", "real_time_ns_per_iter"))
    t4 = values.get(("BM_FaultSimThreaded/4", "real_time_ns_per_iter"))
    hw = values.get(("BM_FaultSimThreaded/4", "counter_hw_threads"))
    if not t1 or not t4:
        problems.append("BM_FaultSimThreaded 1/4-thread pair missing")
        return
    speedup = t1 / t4
    if hw is None or hw < 4:
        print(f"thread scaling: {speedup:.2f}x at 4 threads — gate skipped "
              f"(host has {hw} hardware threads, need >= 4)")
        return
    required = THREAD_SPEEDUP_MIN_8HW if hw >= 8 else THREAD_SPEEDUP_MIN_4HW
    print(f"thread scaling: {speedup:.2f}x at 4 threads "
          f"(gate: >= {required}x on {hw:.0f} hardware threads)")
    if speedup < required:
        problems.append(
            f"threaded fault campaign scaling is {speedup:.2f}x at 4 "
            f"threads (< {required}x on {hw:.0f}-thread host)")


# The serial engine's certified 1000-core gap before the parallel search
# landed (BENCH_explore.json population row, node budget 600): 171.70%.
# The ladder must stay strictly under it, forever.
EXPLORE_GAP_CEILING = 1.71


def load_records(path):
    """Returns the raw records list of a JsonReporter artifact."""
    doc = json.loads(pathlib.Path(path).read_text())
    return [r for r in doc["records"] if r.get("value") is not None]


def check_explore_gates(path, problems):
    """Parallel branch-and-bound gates over BENCH_explore.json."""
    records = load_records(path)

    # (a) Certified-gap ladder: highest-thread-count row vs the
    # single-thread population row and the absolute ceiling.
    ladder = {int(r["params"]["sched_threads"]): r["value"]
              for r in records
              if r["name"] == "parallel_bb" and r["metric"] == "bound_gap"}
    if not ladder:
        problems.append("no parallel_bb bound_gap records in artifact")
    else:
        top_threads = max(ladder)
        top_gap = ladder[top_threads]
        serial = [r["value"] for r in records
                  if r["name"] == "population"
                  and r["metric"] == "bound_gap"
                  and r["params"].get("strategy") == "branch_bound"
                  and r["params"].get("cores") == "1000"]
        print(f"1000-core certified gap at {top_threads} threads: "
              f"{100 * top_gap:.2f}% "
              f"(ceiling: < {100 * EXPLORE_GAP_CEILING:.0f}%)")
        if top_gap >= EXPLORE_GAP_CEILING:
            problems.append(
                f"parallel B&B certified gap is {100 * top_gap:.2f}% at "
                f"{top_threads} threads "
                f"(>= {100 * EXPLORE_GAP_CEILING:.0f}% ceiling)")
        if serial and top_gap >= serial[0]:
            problems.append(
                f"parallel B&B certified gap {100 * top_gap:.2f}% did not "
                f"beat the single-thread population row "
                f"({100 * serial[0]:.2f}%)")

    # (b) Determinism: every fixed-work row must match the 1-thread run.
    matches = [(int(r["params"]["sched_threads"]), r["value"])
               for r in records
               if r["name"] == "parallel_bb_throughput"
               and r["metric"] == "deterministic_match"]
    if not matches:
        problems.append(
            "no parallel_bb_throughput deterministic_match records")
    for threads, match in sorted(matches):
        if match != 1:
            problems.append(
                f"deterministic mode diverged at {threads} threads "
                f"(fixed-work search not byte-identical to 1 thread)")

    # (c) hw-aware nodes/sec scaling on the fixed-work search.
    speedups = {int(r["params"]["sched_threads"]): r["value"]
                for r in records
                if r["name"] == "parallel_bb_throughput"
                and r["metric"] == "speedup_vs_1_thread"}
    hw_vals = [r["value"] for r in records
               if r["name"] == "parallel_bb_throughput"
               and r["metric"] == "hw_threads"]
    hw = hw_vals[0] if hw_vals else None
    if not speedups:
        problems.append("no parallel_bb_throughput speedup records")
        return
    if hw is None or hw < 4:
        best = max(speedups.values())
        print(f"B&B thread scaling: {best:.2f}x best — gate skipped "
              f"(host has {hw} hardware threads, need >= 4)")
        return
    if hw >= 8:
        threads, required = 8, THREAD_SPEEDUP_MIN_8HW
    else:
        threads, required = 4, THREAD_SPEEDUP_MIN_4HW
    speedup = speedups.get(threads)
    if speedup is None:
        problems.append(f"no parallel_bb_throughput speedup row at "
                        f"{threads} threads")
        return
    print(f"B&B thread scaling: {speedup:.2f}x nodes/sec at {threads} "
          f"threads (gate: >= {required}x on {hw:.0f} hardware threads)")
    if speedup < required:
        problems.append(
            f"parallel B&B nodes/sec scaling is {speedup:.2f}x at "
            f"{threads} threads (< {required}x on {hw:.0f}-thread host)")


DEFAULT_OBS_MAX_OVERHEAD = 0.05
DEFAULT_OBS_MAX_DISABLED_NS = 5.0
DEFAULT_OBS_MAX_SAMPLER_TICK_US = 50.0
DEFAULT_OBS_MAX_HEALTH_EVAL_US = 50.0


def check_obs_overhead(path, floors_path, problems):
    """Telemetry-overhead gates over BENCH_obs.json (see module doc)."""
    caps = {}
    if floors_path:
        caps = json.loads(pathlib.Path(floors_path).read_text()).get(
            "obs", {})
    max_overhead = caps.get("max_overhead", DEFAULT_OBS_MAX_OVERHEAD)
    max_disabled = caps.get("max_disabled_ns", DEFAULT_OBS_MAX_DISABLED_NS)
    max_tick = caps.get("max_sampler_tick_us", DEFAULT_OBS_MAX_SAMPLER_TICK_US)
    max_eval = caps.get("max_health_eval_us", DEFAULT_OBS_MAX_HEALTH_EVAL_US)

    doc = json.loads(pathlib.Path(path).read_text())
    overhead = None
    disabled_ns = None
    tick_us = None
    eval_us = None
    for rec in doc["records"]:
        if rec["name"] == "floor_overhead" and rec["metric"] == "overhead_frac":
            overhead = rec["value"]
        if (rec["name"] == "registry" and rec["metric"] == "ns_per_op"
                and rec["params"].get("op") == "disabled"):
            disabled_ns = rec["value"]
        if rec["name"] == "sampler" and rec["metric"] == "us_per_tick":
            tick_us = rec["value"]
        if rec["name"] == "health" and rec["metric"] == "us_per_eval":
            eval_us = rec["value"]

    if overhead is None:
        problems.append("no floor_overhead/overhead_frac record in artifact")
    else:
        print(f"telemetry overhead: {overhead * 100:.2f}% "
              f"(gate: <= {max_overhead * 100:.0f}%)")
        if overhead > max_overhead:
            problems.append(
                f"telemetry-on floor overhead is {overhead * 100:.2f}% "
                f"(> {max_overhead * 100:.0f}%)")
    if disabled_ns is None:
        problems.append("no registry/disabled ns_per_op record in artifact")
    else:
        print(f"disabled instrument site: {disabled_ns:.2f} ns "
              f"(gate: <= {max_disabled:.1f} ns)")
        if disabled_ns > max_disabled:
            problems.append(
                f"disabled instrument site costs {disabled_ns:.2f} ns "
                f"(> {max_disabled:.1f} ns: no longer just a null check)")
    if tick_us is None:
        problems.append("no sampler/us_per_tick record in artifact")
    else:
        print(f"sampler tick: {tick_us:.2f} us "
              f"(gate: <= {max_tick:.0f} us)")
        if tick_us > max_tick:
            problems.append(
                f"time-series sampler tick costs {tick_us:.2f} us "
                f"(> {max_tick:.0f} us)")
    if eval_us is None:
        problems.append("no health/us_per_eval record in artifact")
    else:
        print(f"health rule evaluation: {eval_us:.2f} us "
              f"(gate: <= {max_eval:.0f} us)")
        if eval_us > max_eval:
            problems.append(
                f"health rule evaluation costs {eval_us:.2f} us "
                f"(> {max_eval:.0f} us)")


def check_floor_cache(path, floors_path, problems):
    """The zipf hit-rate floor over BENCH_floor.json (see module doc)."""
    if not floors_path:
        problems.append("--floor needs --floors for its hit-rate floor")
        return
    floor = json.loads(pathlib.Path(floors_path).read_text())["floor"]
    minimum = floor["min_zipf_hit_rate"]
    rates = [rec["value"] for rec in load_records(path)
             if rec["name"] == "cache" and rec["metric"] == "cache_hit_rate"
             and rec["params"].get("config") == "zipf"]
    if not rates:
        problems.append("no cache/cache_hit_rate record with config=zipf")
        return
    print(f"zipf cache hit rate: {rates[0]:.4f} "
          f"(gate: >= {minimum:.4f})")
    if rates[0] < minimum:
        problems.append(
            f"zipf cache hit rate {rates[0]:.4f} below floor {minimum:.4f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("artifact", nargs="?", help="BENCH_perf.json path")
    parser.add_argument("--floors", help="bench_floors.json path")
    parser.add_argument("--obs", metavar="FILE",
                        help="check telemetry-overhead gates over "
                             "BENCH_obs.json instead of the perf gates")
    parser.add_argument("--explore", metavar="FILE",
                        help="check parallel branch-and-bound gates over "
                             "BENCH_explore.json instead of the perf gates")
    parser.add_argument("--floor", metavar="FILE",
                        help="check the floor cache hit-rate gate over "
                             "BENCH_floor.json instead of the perf gates")
    args = parser.parse_args()

    problems = []
    if args.obs:
        check_obs_overhead(args.obs, args.floors, problems)
    if args.explore:
        check_explore_gates(args.explore, problems)
    if args.floor:
        check_floor_cache(args.floor, args.floors, problems)
    if args.artifact:
        values = load_values(args.artifact)
        if args.floors:
            check_floors(values, args.floors, problems)
        check_thread_scaling(values, problems)
    elif not args.obs and not args.explore and not args.floor:
        parser.error("need BENCH_perf.json, --obs BENCH_obs.json, "
                     "--explore BENCH_explore.json and/or "
                     "--floor BENCH_floor.json")

    for problem in problems:
        print(f"GATE FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
