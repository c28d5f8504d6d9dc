#!/usr/bin/env python3
"""Pretty-print (and diff) FloorStats snapshots from the telemetry layer.

Usage:
    floorstat.py SNAPSHOT.json            # pretty-print one snapshot
    floorstat.py --diff OLD.json NEW.json # counter deltas between two
    floor_service --stats-interval-ms 500 ... 2>&1 >/dev/null | floorstat.py -
                                          # tail a live stderr stats stream

A snapshot is the one-line JSON object FloorSession::stats_snapshot()
emits (written by `floor_service --stats-json FILE`, streamed by
`--stats-interval-ms N`). The stable key schema is documented in
docs/OBSERVABILITY.md; this tool is the human-facing reader for it, so it
only ever *reads* keys — unknown keys are ignored, missing ones print as
zero — keeping old floorstat binaries compatible with newer snapshots.

With `-` the tool reads line-delimited snapshots from stdin and reprints a
compact one-line digest per snapshot (for tailing a live floor).
"""

import argparse
import json
import pathlib
import sys


def fmt_rate(num, den):
    return f"{num / den:.1%}" if den else "n/a"


def fmt_secs(s):
    if s >= 1.0:
        return f"{s:.2f}s"
    if s >= 1e-3:
        return f"{s * 1e3:.1f}ms"
    return f"{s * 1e6:.0f}us"


def fmt_value(v):
    return f"{v:.4g}" if isinstance(v, float) else str(v)


def load(path):
    text = sys.stdin.read() if str(path) == "-" else pathlib.Path(path).read_text()
    return json.loads(text)


def print_snapshot(s):
    queue = s.get("queue", {})
    cache = s.get("cache", {})
    trace = s.get("trace", {})

    completed = s.get("completed", 0)
    # elapsed_seconds is the rate denominator the schema guarantees;
    # uptime_seconds is the pre-health-engine name of the same value.
    elapsed = s.get("elapsed_seconds", s.get("uptime_seconds", 0.0))
    jobs_per_sec = completed / elapsed if elapsed > 0 else 0.0
    print(f"floor: {completed}/{s.get('submitted', 0)} jobs over "
          f"{s.get('workers', 0)} worker(s) in {fmt_secs(elapsed)}"
          f" ({jobs_per_sec:.1f} jobs/s,"
          f" {s.get('in_flight', 0)} in flight, {s.get('errored', 0)} errored,"
          f" utilization {s.get('utilization', 0.0):.1%})")
    if not s.get("metrics_enabled", False):
        print("  metrics: disabled (run with --stats-json or FloorConfig::metrics)")
    capacity = queue.get("capacity", 0)
    print(f"  queue: depth={queue.get('depth', 0)}"
          + (f"/{capacity}" if capacity else "")
          + f" high_water={queue.get('high_water', 0)}"
          f" pushed={queue.get('pushed', 0)} popped={queue.get('popped', 0)}"
          f" backpressure={queue.get('backpressure_engages', 0)}")
    lookups = cache.get("lookups", 0)
    hits = cache.get("verdict_hits", 0)
    print(f"  cache: {hits}/{lookups} hits ({fmt_rate(hits, lookups)})"
          f" — verdict={hits}"
          f" insertions={cache.get('insertions', 0)}"
          f" evictions={cache.get('evictions', 0)}")
    # Engine sections print every key the snapshot carries, so a new
    # catalogue counter shows up without a tool change.
    for section in ("sim", "sched", "kernel"):
        values = s.get(section, {})
        if values:
            print(f"  {section}: " + " ".join(
                f"{key}={fmt_value(value)}" for key, value in values.items()))
    stages = s.get("stages", {})
    if any(d.get("count", 0) for d in stages.values()):
        print("  stages:")
        for name, d in stages.items():
            if not d.get("count", 0):
                continue
            print(f"    {name:<9} count={d['count']:<6}"
                  f" total={fmt_secs(d.get('total_seconds', 0.0)):<8}"
                  f" p50={d.get('p50_us', 0.0):.0f}us"
                  f" p90={d.get('p90_us', 0.0):.0f}us"
                  f" p99={d.get('p99_us', 0.0):.0f}us")
    busy = s.get("worker_busy_seconds", [])
    if busy:
        line = " ".join(f"w{i}={fmt_secs(b)}" for i, b in enumerate(busy))
        print(f"  workers: {line}")
    if trace.get("recorded", 0) or trace.get("dropped", 0):
        print(f"  trace: {trace.get('recorded', 0)} spans recorded,"
              f" {trace.get('dropped', 0)} dropped")


def flatten(obj, prefix=""):
    """Flattens nested dicts to dotted-key scalars (lists are skipped)."""
    out = {}
    for key, value in obj.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(flatten(value, dotted + "."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[dotted] = value
    return out


def print_diff(old, new):
    flat_old, flat_new = flatten(old), flatten(new)
    keys = sorted(set(flat_old) | set(flat_new))
    width = max((len(k) for k in keys), default=0)
    any_change = False
    for key in keys:
        a, b = flat_old.get(key, 0), flat_new.get(key, 0)
        if a == b:
            continue
        any_change = True
        delta = b - a
        sign = "+" if delta >= 0 else ""
        if isinstance(a, float) or isinstance(b, float):
            print(f"  {key:<{width}}  {a:.6g} -> {b:.6g}  ({sign}{delta:.6g})")
        else:
            print(f"  {key:<{width}}  {a} -> {b}  ({sign}{delta})")
    if not any_change:
        print("  (no change)")


def _hits(s):
    cache = s.get("cache", {})
    return cache.get("verdict_hits", 0)


def digest_line(s, prev=None):
    """One-line live digest of a snapshot. With a previous snapshot the
    counters become per-interval *rates* (jobs/s, hits/s over the elapsed
    delta) — a tail shows whether the floor is moving now, not how far it
    has come. Flushed per line so piping into another tool works."""
    queue = s.get("queue", {})
    t = s.get("elapsed_seconds", s.get("uptime_seconds", 0.0))
    rates = ""
    if prev is not None:
        dt = t - prev.get("elapsed_seconds", prev.get("uptime_seconds", 0.0))
        if dt > 0:
            jobs_rate = (s.get("completed", 0) - prev.get("completed", 0)) / dt
            hits_rate = (_hits(s) - _hits(prev)) / dt
            rates = f"jobs/s={jobs_rate:.1f} hits/s={hits_rate:.1f} "
    print(f"[{t:7.2f}s] "
          f"done={s.get('completed', 0)}/{s.get('submitted', 0)} "
          f"{rates}"
          f"inflight={s.get('in_flight', 0)} "
          f"depth={queue.get('depth', 0)} "
          f"util={s.get('utilization', 0.0):.0%}",
          flush=True)


def tail_stdin():
    """Digests line-delimited snapshots from stdin; a lone snapshot gets
    the full pretty-print instead."""
    snapshots = []
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            s = json.loads(line)
        except json.JSONDecodeError:
            continue  # interleaved non-JSON stderr noise
        snapshots.append(s)
        if len(snapshots) > 1:
            if len(snapshots) == 2:
                digest_line(snapshots[0])
            digest_line(s, snapshots[-2])
    if len(snapshots) == 1:
        print_snapshot(snapshots[0])
    return 0 if snapshots else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("snapshot", nargs="?",
                        help="snapshot file, or '-' to tail stdin")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                        help="print counter deltas between two snapshots")
    args = parser.parse_args()

    if args.diff:
        print_diff(load(args.diff[0]), load(args.diff[1]))
        return 0
    if args.snapshot is None:
        parser.error("need a snapshot file, '-', or --diff OLD NEW")
    if args.snapshot == "-":
        return tail_stdin()
    print_snapshot(load(args.snapshot))
    return 0


if __name__ == "__main__":
    sys.exit(main())
