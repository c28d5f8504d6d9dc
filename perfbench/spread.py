#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints, per end-to-end metric, the
median and the interquartile spread as a share of the median, next to a
third of the metric's bound (the steadiness target).

    python3 perfbench/spread.py --workloads floor_requalify,explore_1000 \
        --seeds 1-10 [--seconds S]
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seed_list(args.seeds):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            ok &= result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(workload, seed, json.dumps(
                {k: round(v[-1], 6) for k, v in values.items()}), flush=True)
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            s = stats.spread(v)
            target = m["bound"] / 3
            print("%-16s %-18s median %-14.6g spread %.4f  target %.4f %s"
                  % (workload, m["name"], stats.median(v), s, target,
                     "" if s < target or m["name"] == "setup_s" else "WIDE"),
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
