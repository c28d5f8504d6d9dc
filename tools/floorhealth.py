#!/usr/bin/env python3
"""Pretty-print HealthReport JSON and validate health-engine artifacts.

Usage:
    floorhealth.py REPORT.json           # pretty-print one health report
    floorhealth.py -                     # read the report from stdin
    floorhealth.py --bundle DIR          # validate an incident bundle

A report is the one-line JSON object HealthReport::to_json() emits
(written by `floor_service --health-json FILE`); docs/OBSERVABILITY.md
documents the schema and the HL001… rule catalogue. A bundle is the
directory the flight recorder writes on a critical transition
(`--incident-dir`): MANIFEST.json + stats.json + health.json and
optionally timeseries.json + trace.json. Like floorstat.py, this tool
only reads keys — unknown keys are ignored — so old copies keep working
against newer reports.

Exit status: 0 clean, 1 validation failure, 2 usage error. Pretty-print
mode exits 0 even for a critical report (reporting is not judging); use
--fail-on-warn / --fail-on-critical to gate scripts on the overall level.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

LEVELS = {"ok": 0, "warn": 1, "critical": 2}

BUNDLE_REQUIRED = ("MANIFEST.json", "stats.json", "health.json")


def load(path):
    text = sys.stdin.read() if str(path) == "-" else pathlib.Path(path).read_text()
    return json.loads(text)


def print_report(r):
    overall = r.get("overall", "ok")
    print(f"health: {overall.upper()} "
          f"(sample {r.get('samples', 0)}, t={r.get('t_seconds', 0.0):.3f}s, "
          f"incidents {r.get('incidents_written', 0)})")
    for rule in r.get("rules", []):
        state = "-" if not rule.get("enabled", True) else rule.get("level", "ok")
        marker = {"ok": " ", "warn": "!", "critical": "X", "-": " "}.get(state, "?")
        line = (f"  {marker} {rule.get('id', '?????'):<6}"
                f"{rule.get('name', '?'):<17} {state:<9}")
        if rule.get("message"):
            line += f" {rule['message']}"
        elif rule.get("enabled", True):
            line += (f" value={rule.get('value', 0.0):.4g}"
                     f" threshold={rule.get('threshold', 0.0):.4g}")
        else:
            line += " (disabled by config)"
        print(line)
    events = r.get("events", [])
    if events:
        print(f"  transitions ({len(events)}):")
        for ev in events:
            print(f"    sample {ev.get('sample', 0):>4}  "
                  f"t={ev.get('t_seconds', 0.0):8.3f}s  "
                  f"{ev.get('rule', '?????')}  "
                  f"{ev.get('from', '?')} -> {ev.get('to', '?')}"
                  + (f"  {ev['message']}" if ev.get("message") else ""))


def validate_bundle(bundle_dir):
    """Checks an incident bundle is complete and parseable. Returns a list
    of error strings (empty = valid)."""
    errors = []
    bundle = pathlib.Path(bundle_dir)
    if not bundle.is_dir():
        return [f"{bundle}: not a directory"]
    for name in BUNDLE_REQUIRED:
        if not (bundle / name).is_file():
            errors.append(f"missing {name}")
    if errors:
        return errors
    try:
        manifest = json.loads((bundle / "MANIFEST.json").read_text())
    except (json.JSONDecodeError, OSError) as exc:
        return [f"MANIFEST.json unreadable: {exc}"]
    for key in ("seq", "rule", "t_seconds", "files"):
        if key not in manifest:
            errors.append(f"MANIFEST.json missing key {key!r}")
    for name in manifest.get("files", []):
        path = bundle / name
        if not path.is_file():
            errors.append(f"MANIFEST lists {name} but it is absent")
            continue
        if name.endswith(".json"):
            try:
                json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                errors.append(f"{name}: invalid JSON: {exc}")
    rule = manifest.get("rule", "")
    if rule and f"_{rule}" not in bundle.name:
        errors.append(f"bundle dir {bundle.name!r} does not carry rule {rule!r}")
    # The firing rule must actually appear in the frozen health report.
    try:
        health = json.loads((bundle / "health.json").read_text())
        ids = {r.get("id") for r in health.get("rules", [])}
        if rule and rule not in ids:
            errors.append(f"health.json has no rule {rule!r}")
    except (json.JSONDecodeError, OSError):
        pass  # already reported above
    return errors


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("report", nargs="?",
                        help="health report file, or '-' for stdin")
    parser.add_argument("--bundle", metavar="DIR",
                        help="validate an incident bundle directory")
    parser.add_argument("--fail-on-warn", action="store_true",
                        help="exit 1 when the overall level is warn or worse")
    parser.add_argument("--fail-on-critical", action="store_true",
                        help="exit 1 when the overall level is critical")
    args = parser.parse_args()

    if args.bundle:
        errors = validate_bundle(args.bundle)
        for err in errors:
            print(f"{args.bundle}: {err}")
        if not errors:
            print(f"{args.bundle}: OK")
        return 1 if errors else 0

    if args.report is None:
        parser.error("need a report file, '-', or --bundle DIR")
    report = load(args.report)
    print_report(report)
    level = LEVELS.get(report.get("overall", "ok"), 0)
    if args.fail_on_critical and level >= LEVELS["critical"]:
        return 1
    if args.fail_on_warn and level >= LEVELS["warn"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
