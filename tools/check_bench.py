#!/usr/bin/env python3
"""Check BENCH_<name>.json artifacts against the bench gate table.

Usage:
    check_bench.py DIR  [--gates tools/bench_gates.json]
    check_bench.py FILE [--gates tools/bench_gates.json]

Given a directory, validates the schema of every BENCH_*.json in it,
requires at least the table's "min_artifacts" of them, and applies every
entry of the table's "gates". Given one artifact, validates it and applies
the entries that name it. Prints one line per entry; exits 1 if the schema
or any entry fails.

Schema: each artifact parses to an object with "bench", "schema_version"
and a non-empty "records" list; each record is an object with "name",
"params" (an object), "metric" and "value" (a number, or null for a
non-finite measurement).

A gate entry selects the records of its "artifact" whose "name" equals its
name, whose "metric" equals its metric (any metric when omitted), and whose
params contain its "params". It carries at most one bound:

    min / max    every selected value >= / <= the bound
    gt / lt      every selected value >  / <  the bound
    eq           every selected value == the bound
    finite       a selected record has a finite value
    (none)       a selected record exists, whatever its value

A bound is a number, or a record reference {"name", "metric", "params"}
whose value (the first finite match) is the bound. For a bound, records
without a finite value count as missing, and an entry with nothing left,
or whose reference is missing, fails. Modifiers:

    over: REF          bound value / REF's value instead of the value
    top: KEY           bound only the record with the largest int(params[KEY])
    hw_threads: [a, b] apply only when the artifact's hardware-thread count
                       (the table's "hw_threads" source record for that
                       artifact) lies in [a, b]; b null means no upper end.
                       Without that count the entry is skipped.

"why" is the reason for the bound; it is printed when the entry fails.
"""

import argparse
import json
import math
import operator
import pathlib
import sys

BOUNDS = {
    "min": (operator.ge, ">="),
    "max": (operator.le, "<="),
    "gt": (operator.gt, ">"),
    "lt": (operator.lt, "<"),
    "eq": (operator.eq, "=="),
}


def load(path):
    """Returns (schema problems, well-formed records) of one artifact."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"{path.name}: cannot parse: {exc}"], []
    if not isinstance(doc, dict):
        return [f"{path.name}: not a JSON object"], []
    problems = [f"{path.name}: missing top-level key '{key}'"
                for key in ("bench", "schema_version", "records")
                if key not in doc]
    records = doc.get("records")
    if not isinstance(records, list) or not records:
        return problems + [f"{path.name}: no records"], []
    good = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            problems.append(f"{path.name}: record {i} is not an object")
            continue
        bad = [f"missing '{key}'" for key in ("name", "params", "metric",
                                              "value") if key not in rec]
        if not isinstance(rec.get("value"), (int, float, type(None))):
            bad.append("value is not numeric/null")
        if not isinstance(rec.get("params", {}), dict):
            bad.append("params is not an object")
        problems += [f"{path.name}: record {i} {b}" for b in bad]
        if not bad:
            good.append(rec)
    return problems, good


def selects(sel, rec):
    return (rec["name"] == sel["name"]
            and sel.get("metric", rec["metric"]) == rec["metric"]
            and sel.get("params", {}).items() <= rec["params"].items())


def finite(rec):
    value = rec["value"]
    return isinstance(value, (int, float)) and math.isfinite(value)


def first_value(records, ref):
    """Value of the first finite record that ref selects, or None."""
    return next((r["value"] for r in records if selects(ref, r) and
                 finite(r)), None)


def describe(sel):
    params = ",".join(f"{k}={v}" for k, v in sel.get("params", {}).items())
    if "top" in sel:
        params = ",".join(filter(None, [params, f"top {sel['top']}"]))
    text = sel["name"] + (f"{{{params}}}" if params else "")
    return text + (f" {sel['metric']}" if "metric" in sel else "")


def fmt(value):
    return f"{value:.0f}" if abs(value) >= 100 else f"{value:.4g}"


def entry_label(entry):
    text = f"{entry['artifact']} {describe(entry)}"
    return text + (f" / {describe(entry['over'])}" if "over" in entry else "")


def check_entry(entry, records, hw):
    """Returns (status, message lines) for one gate entry."""
    label = entry_label(entry)
    if "hw_threads" in entry:
        lo, hi = entry["hw_threads"]
        if hw is None or hw < lo or (hi is not None and hw > hi):
            span = f"{lo}-{hi}" if hi is not None else f">= {lo}"
            return "skip", [f"{label}: applies on {span} hardware threads, "
                            f"artifact reports {hw}"]
    found = [r for r in records if selects(entry, r)]
    kind = next((k for k in BOUNDS if k in entry), None)
    if kind is None and not entry.get("finite"):
        return ("ok", [f"{label}: present"]) if found else (
            "FAIL", [f"{label}: missing"])
    found = [r for r in found if finite(r)]
    if "top" in entry:
        key = entry["top"]
        ranked = [r for r in found if key in r["params"]]
        found = [max(ranked, key=lambda r: int(r["params"][key]))] \
            if ranked else []
    if not found:
        return "FAIL", [f"{label}: missing (no record with a finite value)"]
    if kind is None:
        return "ok", [f"{label} = {fmt(r['value'])}" for r in found]

    bound = entry[kind]
    needs = f"{BOUNDS[kind][1]} "
    if isinstance(bound, dict):
        needs += f"{describe(bound)} = "
        bound = first_value(records, entry[kind])
        if bound is None:
            return "FAIL", [f"{label}: {describe(entry[kind])} missing"]
    needs += fmt(bound)
    denominator = 1.0
    if "over" in entry:
        denominator = first_value(records, entry["over"])
        if denominator is None:
            return "FAIL", [f"{label}: {describe(entry['over'])} missing"]
    if "hw_threads" in entry:
        needs += f" on {hw:.0f} hardware threads"
    held, broken = [], []
    for rec in found:
        value = rec["value"] / denominator if denominator else math.inf
        where = "".join(f" {k}={v}" for k, v in rec["params"].items()
                        if k not in entry.get("params", {})) \
            if len(found) > 1 or "top" in entry else ""
        line = f"{label}{where} = {fmt(value)} (needs {needs})"
        (held if BOUNDS[kind][0](value, bound) else broken).append(line)
    if broken:
        why = f" — {entry['why']}" if "why" in entry else ""
        return "FAIL", [line + why for line in broken]
    return "ok", held


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("path", type=pathlib.Path,
                        help="artifact directory, or one BENCH_*.json")
    parser.add_argument(
        "--gates", type=pathlib.Path,
        default=pathlib.Path(__file__).with_name("bench_gates.json"),
        help="gate table (default: bench_gates.json beside this script)")
    args = parser.parse_args()
    table = json.loads(args.gates.read_text())

    whole_dir = args.path.is_dir()
    paths = sorted(args.path.glob("BENCH_*.json")) if whole_dir \
        else [args.path]
    failures, artifacts = [], {}
    for path in paths:
        problems, artifacts[path.name] = load(path)
        failures += problems
    if whole_dir and len(paths) < table["min_artifacts"]:
        failures.append(f"{args.path}: {len(paths)} BENCH_*.json "
                        f"artifact(s), need >= {table['min_artifacts']}")
    for problem in failures:
        print(f"FAIL {problem}", file=sys.stderr)

    counts = {"ok": 0, "skip": 0, "FAIL": 0}
    for entry in table["gates"]:
        if not whole_dir and entry["artifact"] != args.path.name:
            continue
        records = artifacts.get(entry["artifact"], [])
        hw_source = table["hw_threads"].get(entry["artifact"])
        hw = first_value(records, hw_source) if hw_source else None
        status, lines = check_entry(entry, records, hw)
        counts[status] += 1
        for line in lines:
            print(f"{status:4} {line}",
                  file=sys.stderr if status == "FAIL" else sys.stdout)

    print(f"check_bench: {len(paths)} artifact(s), {len(failures)} schema "
          f"problem(s); gates: {counts['ok']} ok, {counts['skip']} skipped, "
          f"{counts['FAIL']} failed")
    return 1 if failures or counts["FAIL"] else 0


if __name__ == "__main__":
    sys.exit(main())
