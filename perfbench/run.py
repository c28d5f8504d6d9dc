#!/usr/bin/env python3
"""The casbus benchmark: builds the workload driver from source, runs one
workload, checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The report lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics.
perfbench/README.md defines every workload and metric.
"""

import argparse
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

WORKLOADS = ("floor_requalify", "explore_1000")
SCENARIOS = ("scan", "bist", "hier", "maint")
# Column order of a job record (driver.cpp emit_floor_phase).
JOB_FIELDS = ("scenario", "pass", "errored", "latency_s", "wall_s",
              "build_s", "schedule_s", "compile_s", "verify_s", "simulate_s",
              "verdict_s", "tier", "sim_cycles", "deviation", "memo_lookups",
              "memo_hits", "golden_s", "cell_evals", "sweep_cell_evals")
TIER_NONE, TIER_PROGRAM, TIER_VERDICT = 0, 1, 2
# Column order of an explore point and a branch-and-bound call.
POINT_FIELDS = ("width", "strategy", "test_cycles", "lower_bound", "gap",
                "schedule_s")
BB_FIELDS = ("nodes", "prunes", "leaves", "seconds")
LAYERS = ("floor", "soc", "netlist", "verify", "sched", "explore")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build_driver(bdir):
    """Configures and builds the driver; returns its path or None."""
    cmake_dir = bdir / "cmake"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "-j4",
                  "--target", "perfbench_driver"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(step))
            return None
    return cmake_dir / "perfbench_driver"


def rows(records, fields):
    return [dict(zip(fields, r)) for r in records]


# --- correctness ---------------------------------------------------------------

def digest_stable(bdir, workload, seed, digest):
    """True unless an earlier run of the same workload and seed in this
    build directory recorded another digest."""
    path = bdir / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = "%s:%d" % (workload, seed)
    if key in known:
        return known[key] == digest
    known[key] = digest
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return True


def check(raw, bdir, workload, seed):
    """Returns (correct, reasons)."""
    reasons = []
    if not digest_stable(bdir, workload, seed, raw["digest"]):
        reasons.append("digest changed for this seed")
    if raw["kind"] == "floor":
        if not raw["agree"]:
            reasons.append("measured jobs differ from the cache-off re-run "
                           "of their recipes at another worker count")
    else:
        c = raw["check"]
        for key in ("lint_errors", "mismatches", "lb_violations"):
            if c[key]:
                reasons.append("%s: %d" % (key, c[key]))
    return not reasons, reasons


# --- end-to-end metrics -----------------------------------------------------------

def floor_jobs(phase):
    """Every job of every pass of a floor phase."""
    return [j for p in phase["passes"] for j in rows(p["jobs"], JOB_FIELDS)]


def floor_end_to_end(raw, phase):
    # Every pass runs the same jobs from cold caches, so passes differ only
    # in how much the shared host slowed them; the best pass is the one it
    # slowed least (README.md, "Steadiness").
    passes = [rows(p["jobs"], JOB_FIELDS) for p in phase["passes"]]
    elapsed = [p["elapsed_s"] for p in phase["passes"]]
    best = max(range(len(passes)), key=lambda k: len(passes[k]) / elapsed[k])
    gated = {
        "programs_per_s": len(passes[best]) / elapsed[best],
        "sim_cycles_per_s": sum(j["sim_cycles"] for j in passes[best])
        / elapsed[best],
        "job_ms_p50": min(stats.median([j["latency_s"] for j in p])
                          for p in passes) * 1e3,
    }
    jobs = [j for p in passes for j in p]
    latency_ms = [j["latency_s"] * 1e3 for j in jobs]
    extra = {
        "job_ms_p99": stats.percentile(latency_ms, 99),
        "fail_ratio": stats.ratio(
            sum(1 for j in jobs if not j["pass"] or j["errored"]), len(jobs)),
        "model_dev_max": max((j["deviation"] for j in jobs), default=0.0),
    }
    return gated, extra, len(jobs), sum(j["errored"] for j in jobs)


def best_sweeps(raw, phase):
    """The fastest sweep of each SoC of the set. The slots cycle through
    the set, so each SoC is swept several times with the same result; the
    fastest is the one the shared host slowed least."""
    best = {}
    for s in phase["socs"]:
        k = s["item"] % raw["soc_set"]
        if k not in best or s["latency_s"] < best[k]["latency_s"]:
            best[k] = s
    return [best[k] for k in sorted(best)]


def explore_end_to_end(raw, phase):
    socs = best_sweeps(raw, phase)
    # Throughput of the slots running side by side: the summed sweep
    # latency over the slot count.
    elapsed = sum(s["latency_s"] for s in socs) / raw["workers"]
    points = [p for s in socs for p in rows(s["points"], POINT_FIELDS)]
    sweep_s = [s["latency_s"] for s in socs]
    gated = {
        "programs_per_s": stats.ratio(len(points), elapsed),
        "sim_cycles_per_s": stats.ratio(sum(p["test_cycles"] for p in points),
                                        elapsed),
        "job_ms_p50": stats.median(sweep_s) * 1e3,
    }
    extra = {
        "sweep_s_p50": stats.median(sweep_s),
        "sweep_s_max": max(sweep_s, default=0.0),
        "bb_gap": stats.mean([p["gap"] for p in points
                              if p["strategy"] == "branch_bound"]),
    }
    attempted = sum(len(s["points"]) for s in phase["socs"])
    return gated, extra, attempted, 0


def end_to_end(raw, phase):
    fn = floor_end_to_end if raw["kind"] == "floor" else explore_end_to_end
    gated, extra, attempted, errored = fn(raw, phase)
    gated["test_cycles"] = raw["test_cycles"]
    gated["setup_s"] = stats.median(raw["setup_s"])
    gated["peak_rss_mb"] = raw["peak_rss_mb"]
    return gated, extra, attempted, errored


# --- per-layer metrics ----------------------------------------------------------

def self_times(trace_path):
    """Seconds of self time per layer (span duration minus the durations
    of its direct children), and the number of root spans (items)."""
    events = json.loads(Path(trace_path).read_text())["traceEvents"]
    child_us = defaultdict(float)
    for e in events:
        child_us[e["args"]["parent"]] += e["dur"]
    per_layer = defaultdict(float)
    roots = 0
    for e in events:
        own = e["dur"] - child_us.get(e["args"]["id"], 0.0)
        per_layer[e["name"].split(".")[0]] += own / 1e6
        roots += e["args"]["parent"] == 0
    return per_layer, roots


def floor_layers(raw, traced):
    jobs = floor_jobs(traced)
    n = len(jobs)
    simulated = [j for j in jobs if j["tier"] != TIER_VERDICT]
    kernel_s = [j["simulate_s"] - j["golden_s"] for j in jobs]
    m = {
        "floor.cache.hit_ratio": stats.ratio(
            sum(1 for j in jobs if j["tier"] != TIER_NONE), n),
        "floor.cache.program_hits": sum(1 for j in jobs
                                        if j["tier"] == TIER_PROGRAM),
        "floor.cache.verdict_hits": sum(1 for j in jobs
                                        if j["tier"] == TIER_VERDICT),
        "floor.queue_wait_ms_p50": stats.median(
            [(j["latency_s"] - j["wall_s"]) * 1e3 for j in jobs]),
        "floor.worker_busy_ratio": stats.ratio(
            sum(j["wall_s"] for j in jobs),
            raw["workers"] * sum(p["elapsed_s"] for p in traced["passes"])),
        "soc.build_s": stats.mean([j["build_s"] for j in jobs]),
        "soc.simulate_s": stats.mean([j["simulate_s"] for j in jobs]),
        "soc.kernel_s": stats.mean(kernel_s),
        "soc.kernel_cycles_per_s": stats.ratio(
            sum(j["sim_cycles"] for j in simulated),
            sum(j["simulate_s"] - j["golden_s"] for j in simulated)),
        "netlist.golden_s": stats.mean([j["golden_s"] for j in jobs]),
        "netlist.cell_evals": stats.mean([j["cell_evals"] for j in jobs]),
        "netlist.activity": stats.ratio(
            sum(j["cell_evals"] for j in jobs),
            sum(j["sweep_cell_evals"] for j in jobs)),
        "netlist.memo_hit_ratio": stats.ratio(
            sum(j["memo_hits"] for j in jobs),
            sum(j["memo_lookups"] for j in jobs)),
        "verify.lint_s": stats.mean([j["verify_s"] for j in jobs]),
        "sched.floor_schedule_s": stats.mean(
            [j["schedule_s"] + j["compile_s"] for j in jobs]),
    }
    for k, name in enumerate(SCENARIOS):
        m["soc.simulate_s." + name] = stats.mean(
            [j["simulate_s"] for j in jobs if j["scenario"] == k])
    return m


def explore_layers(trace_path, traced):
    events = json.loads(Path(trace_path).read_text())["traceEvents"]
    dur_ms = defaultdict(list)
    for e in events:
        dur_ms[e["name"]].append(e["dur"] / 1e3)
    bb = [dict(zip(BB_FIELDS, c)) for s in traced["socs"] for c in s["bb"]]
    nodes = sum(c["nodes"] for c in bb)
    prunes = sum(c["prunes"] for c in bb)
    return {
        "sched.greedy_ms": stats.mean(dur_ms["sched.greedy"]),
        "sched.phased_ms": stats.mean(dur_ms["sched.phased"]),
        "sched.lower_bound_ms": stats.mean(dur_ms["sched.lower_bound"]),
        "explore.bb_ms": stats.mean(dur_ms["explore.bb"]),
        "explore.bb_nodes_per_s": stats.ratio(
            nodes, sum(c["seconds"] for c in bb)),
        "explore.bb_prune_ratio": stats.ratio(prunes, prunes + nodes),
        "explore.bb_leaves_priced": stats.mean([c["leaves"] for c in bb]),
        "explore.area_ms": stats.mean(dur_ms["explore.area"]),
    }


def per_layer(raw, trace_path, names):
    untraced, traced = raw["phases"]
    gated, extra, _, _ = end_to_end(raw, untraced)
    traced_gated, _, _, _ = end_to_end(raw, traced)
    m = dict.fromkeys(names, 0.0)
    if raw["kind"] == "floor":
        m.update(floor_layers(raw, traced))
        m["floor.job_ms_p99"] = extra["job_ms_p99"] or 0.0
        m["floor.fail_ratio"] = extra["fail_ratio"]
        m["sched.model_dev_max"] = extra["model_dev_max"]
    else:
        m.update(explore_layers(trace_path, traced))
        m["explore.sweep_s_p50"] = extra["sweep_s_p50"]
        m["explore.sweep_s_max"] = extra["sweep_s_max"]
        m["explore.bb_gap"] = extra["bb_gap"]
    m["obs.trace_overhead"] = (traced_gated["programs_per_s"]
                               - gated["programs_per_s"])
    own, items = self_times(trace_path)
    for layer in LAYERS:
        m[layer + ".self_s"] = stats.ratio(own.get(layer, 0.0), items)
    unknown = set(m) - set(names)
    if unknown:
        raise KeyError("metrics missing from BENCHMARK.json: %s"
                       % sorted(unknown))
    return m, own, items


# --- report ------------------------------------------------------------------

def fmt(value):
    if value is None:
        return "n/a"
    return "%.6g" % value


def print_table(title, values, units):
    print(title)
    for name, value in values.items():
        print("  %-28s %14s %s" % (name, fmt(value), units.get(name, "")))


EXTRA_UNITS = {"job_ms_p99": "ms", "fail_ratio": "ratio",
               "model_dev_max": "ratio", "sweep_s_p50": "s",
               "sweep_s_max": "s", "bb_gap": "ratio"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    driver = build_driver(bdir)
    if driver is None:
        return 2

    trace_path = bdir / ("trace-%s-%d.json" % (args.workload, args.seed))
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(trace_path)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        return 3
    if done.returncode != 0:
        log("perfbench: driver exited with %d" % done.returncode)
        return 3
    raw = json.loads(done.stdout)

    correct, reasons = check(raw, bdir, args.workload, args.seed)
    gated, extra, attempted, errored = end_to_end(raw, raw["phases"][0])
    print("workload %s  seed %d  seconds %g  trace %d  workers %d"
          % (args.workload, args.seed, args.seconds, args.trace,
             raw["workers"]))
    print("correct: %s%s" % (correct, "" if correct else
                             " (" + "; ".join(reasons) + ")"))
    print_table("end-to-end (untraced, %d %s):" % (
        attempted, "jobs" if raw["kind"] == "floor" else "points"),
        {**gated, **extra}, {**units, **EXTRA_UNITS})
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics, own, items = per_layer(raw, trace_path, names)
        print("self time by layer (traced half, %d items):" % items)
        for layer in LAYERS:
            print("  %-10s %10.4f s" % (layer, own.get(layer, 0.0)))
        print_table("per-layer (trace %s):" % trace_path.name, metrics, units)
        chosen = metrics
    else:
        chosen = {m["name"]: gated[m["name"]] for m in spec["end_to_end"]}

    failed = errored if correct else attempted
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
