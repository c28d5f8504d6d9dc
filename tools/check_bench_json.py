#!/usr/bin/env python3
"""Validate BENCH_<name>.json artifacts written by bench::JsonReporter.

Usage:
    check_bench_json.py FILE [FILE ...]
    check_bench_json.py --glob DIR      # validate every BENCH_*.json in DIR
    check_bench_json.py --floor FILE    # + require the floor streaming/cache
                                        #   record schema in FILE
    check_bench_json.py --obs FILE      # + require the telemetry-overhead
                                        #   record schema in FILE
    check_bench_json.py --explore FILE  # + require the parallel-B&B
                                        #   record schema in FILE

Each file must parse as JSON and carry a non-empty "records" array whose
entries have the flat JsonReporter shape: name, params (str->str map),
metric, and a numeric (or null, for non-finite) value. --floor additionally
checks that the named file carries the streaming-session and
repeated-spec-cache records bench_floor is contracted to emit, including
the zipf point's cache_hit_rate (the CI floor gates read them, so their
absence must fail loudly rather than skip the gate). Exits non-zero and
prints one line per problem on failure.

Used by both the per-compiler "Bench artifact smoke" CI step and the
bench-trajectory job, so the two can never drift apart.
"""

import argparse
import json
import pathlib
import sys

REQUIRED_TOP_KEYS = ("bench", "schema_version", "records")
REQUIRED_RECORD_KEYS = ("name", "params", "metric", "value")


def check_file(path: pathlib.Path) -> list[str]:
    problems = []
    try:
        with path.open() as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: cannot parse: {exc}"]

    for key in REQUIRED_TOP_KEYS:
        if key not in doc:
            problems.append(f"{path}: missing top-level key '{key}'")
    records = doc.get("records")
    if not isinstance(records, list) or not records:
        problems.append(f"{path}: no records")
        return problems

    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            problems.append(f"{path}: record {i} is not an object")
            continue
        for key in REQUIRED_RECORD_KEYS:
            if key not in rec:
                problems.append(f"{path}: record {i} missing '{key}'")
        if "value" in rec and not isinstance(rec["value"], (int, float, type(None))):
            problems.append(f"{path}: record {i} value is not numeric/null")
        if "params" in rec and not isinstance(rec["params"], dict):
            problems.append(f"{path}: record {i} params is not an object")
    return problems


# (name, metric) pairs bench_floor must emit for the streaming session and
# the repeated-spec cache mix; the CI floor gates consume these.
FLOOR_REQUIRED_RECORDS = (
    ("streaming", "programs_per_sec"),
    ("streaming", "matches_batch"),
    ("cache", "programs_per_sec"),
    ("cache", "speedup_vs_cold"),
    ("cache", "cache_hit_rate"),
    ("stages", "seconds"),
)

FLOOR_REQUIRED_CACHE_CONFIGS = ("cold", "warm")

# (config, metric) cache records the hit-rate gate
# (check_perf_gates.py --floor) consumes.
FLOOR_REQUIRED_CACHE_METRICS = (("zipf", "cache_hit_rate"),)


def check_floor_schema(path: pathlib.Path) -> list[str]:
    """Checks the floor-specific streaming/cache/stage record contract."""
    try:
        with path.open() as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return []  # unparseable: check_file already reported it
    records = doc.get("records")
    if not isinstance(records, list):
        return []

    problems = []
    have = {(r.get("name"), r.get("metric")) for r in records
            if isinstance(r, dict)}
    for name, metric in FLOOR_REQUIRED_RECORDS:
        if (name, metric) not in have:
            problems.append(
                f"{path}: missing floor record name={name} metric={metric}")
    cache_configs = {r["params"].get("config") for r in records
                     if isinstance(r, dict) and r.get("name") == "cache"
                     and isinstance(r.get("params"), dict)}
    for config in FLOOR_REQUIRED_CACHE_CONFIGS:
        if config not in cache_configs:
            problems.append(
                f"{path}: missing cache sweep point config={config}")
    cache_metrics = {(r["params"].get("config"), r.get("metric"))
                     for r in records
                     if isinstance(r, dict) and r.get("name") == "cache"
                     and isinstance(r.get("params"), dict)}
    for config, metric in FLOOR_REQUIRED_CACHE_METRICS:
        if (config, metric) not in cache_metrics:
            problems.append(
                f"{path}: missing cache record config={config} "
                f"metric={metric}")
    return problems


# (name, metric) pairs bench_obs must emit; the telemetry-overhead CI gate
# (check_perf_gates.py --obs) consumes overhead_frac, so its absence must
# fail loudly rather than skip the gate.
OBS_REQUIRED_RECORDS = (
    ("registry", "ns_per_op"),
    ("floor_overhead", "off_seconds"),
    ("floor_overhead", "on_seconds"),
    ("floor_overhead", "overhead_frac"),
    ("sampler", "us_per_tick"),
    ("health", "us_per_eval"),
)

OBS_REQUIRED_REGISTRY_OPS = ("add", "observe", "disabled", "record")


def check_obs_schema(path: pathlib.Path) -> list[str]:
    """Checks the telemetry micro-cost/overhead record contract."""
    try:
        with path.open() as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return []  # unparseable: check_file already reported it
    records = doc.get("records")
    if not isinstance(records, list):
        return []

    problems = []
    have = {(r.get("name"), r.get("metric")) for r in records
            if isinstance(r, dict)}
    for name, metric in OBS_REQUIRED_RECORDS:
        if (name, metric) not in have:
            problems.append(
                f"{path}: missing obs record name={name} metric={metric}")
    ops = {r["params"].get("op") for r in records
           if isinstance(r, dict) and r.get("name") == "registry"
           and isinstance(r.get("params"), dict)}
    for op in OBS_REQUIRED_REGISTRY_OPS:
        if op not in ops:
            problems.append(f"{path}: missing registry micro-cost op={op}")
    return problems


# (name, metric) pairs bench_explore must emit for the parallel
# branch-and-bound section; the CI exploration gates
# (check_perf_gates.py --explore) consume bound_gap, speedup_vs_1_thread,
# deterministic_match and hw_threads, so their absence must fail loudly
# rather than skip the gate.
EXPLORE_REQUIRED_RECORDS = (
    ("parallel_bb", "bound_gap"),
    ("parallel_bb", "nodes_per_sec"),
    ("parallel_bb", "schedule_seconds"),
    ("parallel_bb_throughput", "nodes_per_sec"),
    ("parallel_bb_throughput", "speedup_vs_1_thread"),
    ("parallel_bb_throughput", "deterministic_match"),
    ("parallel_bb_throughput", "hw_threads"),
)

EXPLORE_REQUIRED_THREADS = ("1", "2", "4", "8")


def check_explore_schema(path: pathlib.Path) -> list[str]:
    """Checks the parallel branch-and-bound record contract."""
    try:
        with path.open() as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return []  # unparseable: check_file already reported it
    records = doc.get("records")
    if not isinstance(records, list):
        return []

    problems = []
    have = {(r.get("name"), r.get("metric")) for r in records
            if isinstance(r, dict)}
    for name, metric in EXPLORE_REQUIRED_RECORDS:
        if (name, metric) not in have:
            problems.append(
                f"{path}: missing explore record name={name} metric={metric}")
    for name in ("parallel_bb", "parallel_bb_throughput"):
        threads = {r["params"].get("sched_threads") for r in records
                   if isinstance(r, dict) and r.get("name") == name
                   and isinstance(r.get("params"), dict)}
        for t in EXPLORE_REQUIRED_THREADS:
            if t not in threads:
                problems.append(
                    f"{path}: missing {name} row sched_threads={t}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="*", type=pathlib.Path)
    parser.add_argument(
        "--glob",
        type=pathlib.Path,
        metavar="DIR",
        help="validate every BENCH_*.json found in DIR",
    )
    parser.add_argument(
        "--floor",
        type=pathlib.Path,
        metavar="FILE",
        help="also require the floor streaming/cache record schema in FILE",
    )
    parser.add_argument(
        "--obs",
        type=pathlib.Path,
        metavar="FILE",
        help="also require the telemetry-overhead record schema in FILE",
    )
    parser.add_argument(
        "--explore",
        type=pathlib.Path,
        metavar="FILE",
        help="also require the parallel-B&B record schema in FILE",
    )
    args = parser.parse_args()

    files = list(args.files)
    if args.glob is not None:
        files.extend(sorted(args.glob.glob("BENCH_*.json")))
    if args.floor is not None and args.floor not in files:
        files.append(args.floor)
    if args.obs is not None and args.obs not in files:
        files.append(args.obs)
    if args.explore is not None and args.explore not in files:
        files.append(args.explore)
    if not files:
        print("check_bench_json: no files to check", file=sys.stderr)
        return 2

    problems = []
    for path in files:
        problems.extend(check_file(path))
    if args.floor is not None:
        problems.extend(check_floor_schema(args.floor))
    if args.obs is not None:
        problems.extend(check_obs_schema(args.obs))
    if args.explore is not None:
        problems.extend(check_explore_schema(args.explore))
    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        names = ", ".join(p.name for p in files)
        print(f"check_bench_json: {len(files)} artifact(s) OK: {names}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
