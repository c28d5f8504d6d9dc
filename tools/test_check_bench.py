"""Self-test of check_bench.py over artifacts built from bench_gates.json.

Run: python3 tools/test_check_bench.py

Builds one artifact set that meets every gate entry, then, per entry, a
copy with that entry's record deleted, nulled, or moved just across its
bound, which must fail with that entry's message.
"""

import contextlib
import copy
import io
import json
import pathlib
import sys
import tempfile
import unittest

TOOLS = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))

import check_bench  # noqa: E402

TABLE = json.loads((TOOLS / "bench_gates.json").read_text())
GATES = TABLE["gates"]


def bound_kind(entry):
    return next((k for k in check_bench.BOUNDS if k in entry), None)


def selected(artifacts, entry):
    return [r for r in artifacts.get(entry["artifact"], [])
            if check_bench.selects(entry, r)]


def top_record(artifacts, entry):
    """The record a bound entry applies to: the top row or the first."""
    found = selected(artifacts, entry)
    if "top" in entry:
        found = [r for r in found if entry["top"] in r["params"]]
        return max(found, key=lambda r: int(r["params"][entry["top"]]))
    return found[0]


def ensure(artifacts, artifact, sel):
    if not selected(artifacts, dict(sel, artifact=artifact)):
        artifacts.setdefault(artifact, []).append({
            "name": sel["name"], "params": dict(sel.get("params", {})),
            "metric": sel.get("metric", "value"), "value": 1.0})


def pick(lo, hi):
    """A value strictly inside (lo, hi); either end may be open (None)."""
    if lo is not None and hi is not None:
        return (lo + hi) / 2
    if lo is not None:
        return 2 * lo if lo > 0 else lo + 1
    if hi is not None:
        return hi / 2 if hi > 0 else hi - 1
    return 1.0


def applies(entry, hw):
    lo, hi = entry.get("hw_threads", [0, None])
    return lo <= hw and (hi is None or hw <= hi)


def hw_sources(artifacts, hw):
    for artifact, sel in TABLE["hw_threads"].items():
        for rec in selected(artifacts, dict(sel, artifact=artifact)):
            rec["value"] = hw


def passing_set():
    """One record per selector of the table, valued to meet every entry
    whatever the hardware-thread count; hardware threads read 8."""
    artifacts = {}
    for entry in sorted(GATES, key=lambda e: "top" in e):
        sel = copy.deepcopy(entry)
        if "top" in sel:
            sel.setdefault("params", {})[sel["top"]] = "1"
        ensure(artifacts, entry["artifact"], sel)
        for ref in (entry.get("over"), entry.get(bound_kind(entry))):
            if isinstance(ref, dict):
                ensure(artifacts, entry["artifact"], ref)
    for artifact, sel in TABLE["hw_threads"].items():
        ensure(artifacts, artifact, sel)

    # Numeric bounds. A ratio bound is applied to its numerator as is,
    # which holds while the denominator reads 1.0 (test_passing_set fails
    # otherwise).
    for rec in (r for recs in artifacts.values() for r in recs):
        lo = hi = eq = None
        for entry in GATES:
            kind = bound_kind(entry)
            if kind is None or isinstance(entry[kind], dict) or \
                    not selected({entry["artifact"]: [rec]}, entry):
                continue
            b = entry[kind]
            if kind == "eq":
                eq = b
            elif kind in ("min", "gt"):
                lo = b if lo is None else max(lo, b)
            else:
                hi = b if hi is None else min(hi, b)
        rec["value"] = eq if eq is not None else pick(lo, hi)
    # Record-reference bounds: lift or drop the reference past the value.
    for entry in GATES:
        kind = bound_kind(entry)
        if kind in ("lt", "gt") and isinstance(entry[kind], dict):
            ref = selected(artifacts, dict(entry[kind],
                                           artifact=entry["artifact"]))[0]
            value = top_record(artifacts, entry)["value"]
            ref["value"] = value + (1 if kind == "lt" else -1) * (
                abs(value) + 1)
    hw_sources(artifacts, 8)
    return artifacts


def move(artifacts, entry, across):
    """Moves the record the entry bounds onto that bound, or just
    across it."""
    kind = bound_kind(entry)
    bound = entry[kind]
    if isinstance(bound, dict):
        bound = check_bench.first_value(artifacts[entry["artifact"]], bound)
    if "over" in entry:
        bound *= check_bench.first_value(artifacts[entry["artifact"]],
                                         entry["over"])
    nudge = (abs(bound) * 1e-6 or 1e-9) if across else 0
    top_record(artifacts, entry)["value"] = {
        "min": bound - nudge, "max": bound + nudge, "gt": bound, "lt": bound,
        "eq": bound + (1 if across else 0)}[kind]


def across(artifacts, entry):
    move(artifacts, entry, across=True)


def break_entry(artifacts, entry):
    """Deletes, nulls, or moves the records the entry checks."""
    kind = bound_kind(entry)
    if kind is not None:
        across(artifacts, entry)
    elif entry.get("finite"):
        for rec in selected(artifacts, entry):
            rec["value"] = None
    else:
        artifacts[entry["artifact"]] = [
            r for r in artifacts[entry["artifact"]]
            if not check_bench.selects(entry, r)]


def run_checker(artifacts, extra_files=True, target=None):
    """Writes the set (padded to min_artifacts) and runs check_bench.main;
    returns (exit code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        docs = {name: {"bench": name[6:-5], "schema_version": 1,
                       "records": recs} for name, recs in artifacts.items()}
        for i in range(TABLE["min_artifacts"] - len(docs)
                       if extra_files else 0):
            docs[f"BENCH_pad{i}.json"] = {
                "bench": f"pad{i}", "schema_version": 1,
                "records": [{"name": "pad", "params": {}, "metric": "x",
                             "value": i}]}
        for name, doc in docs.items():
            (root / name).write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        argv = ["check_bench.py", str(root / target if target else root)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            old_argv, sys.argv = sys.argv, argv
            try:
                code = check_bench.main()
            finally:
                sys.argv = old_argv
        return code, out.getvalue(), err.getvalue()


class CheckBenchTest(unittest.TestCase):
    def test_passing_set_passes_every_entry(self):
        code, out, err = run_checker(passing_set())
        self.assertEqual(code, 0, err)
        skipped = sum(not applies(e, 8) for e in GATES)
        self.assertIn(f"{len(GATES) - skipped} ok, {skipped} skipped, "
                      "0 failed", out)

    def test_each_entry_fails_just_across_its_bound(self):
        for i, entry in enumerate(GATES):
            with self.subTest(entry=i, label=check_bench.entry_label(entry)):
                artifacts = passing_set()
                if "hw_threads" in entry:
                    hw_sources(artifacts, entry["hw_threads"][0])
                    code, _, err = run_checker(artifacts)
                    self.assertEqual(code, 0, err)
                break_entry(artifacts, entry)
                code, _, err = run_checker(artifacts)
                self.assertEqual(code, 1)
                lines = [line for line in err.splitlines() if line.startswith(
                    f"FAIL {check_bench.entry_label(entry)}")]
                self.assertTrue(lines, err)
                if bound_kind(entry) and "why" in entry:
                    self.assertTrue(any(entry["why"] in line
                                        for line in lines), err)

    def test_inclusive_bounds_hold_on_the_bound(self):
        for i, entry in enumerate(GATES):
            if bound_kind(entry) not in ("min", "max", "eq"):
                continue
            with self.subTest(entry=i, label=check_bench.entry_label(entry)):
                artifacts = passing_set()
                if "hw_threads" in entry:
                    hw_sources(artifacts, entry["hw_threads"][0])
                move(artifacts, entry, across=False)
                code, _, err = run_checker(artifacts)
                self.assertEqual(code, 0, err)

    def test_fewer_than_4_hardware_threads_skips_scaling_entries(self):
        artifacts = passing_set()
        hw_sources(artifacts, 3)
        scaling = [e for e in GATES if "hw_threads" in e]
        self.assertTrue(scaling)
        for entry in scaling:
            across(artifacts, entry)
        code, out, err = run_checker(artifacts)
        self.assertEqual(code, 0, err)
        self.assertIn(f"{len(scaling)} skipped, 0 failed", out)

    def test_schema_and_artifact_count(self):
        artifacts = passing_set()
        code, _, err = run_checker(artifacts, extra_files=False)
        self.assertEqual(code, 1)
        self.assertIn("BENCH_*.json artifact(s), need >= "
                      f"{TABLE['min_artifacts']}", err)
        bad = copy.deepcopy(artifacts)
        next(iter(bad.values()))[0]["value"] = "fast"
        code, _, err = run_checker(bad)
        self.assertEqual(code, 1)
        self.assertIn("value is not numeric/null", err)
        bad = copy.deepcopy(artifacts)
        next(iter(bad.values()))[0]["params"] = []
        code, _, err = run_checker(bad)
        self.assertEqual(code, 1)
        self.assertIn("params is not an object", err)

    def test_one_artifact_gets_its_schema_and_own_entries(self):
        artifacts = passing_set()
        name = next(iter(artifacts))
        code, out, err = run_checker(artifacts, target=name)
        self.assertEqual(code, 0, err)
        *lines, summary = out.splitlines()
        self.assertTrue(all(line.split()[1] == name for line in lines))
        own = [e for e in GATES if e["artifact"] == name]
        skipped = sum(not applies(e, 8) for e in own)
        self.assertIn(f"check_bench: 1 artifact(s), 0 schema problem(s); "
                      f"gates: {len(own) - skipped} ok, {skipped} skipped",
                      summary)


if __name__ == "__main__":
    unittest.main()
