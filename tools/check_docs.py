#!/usr/bin/env python3
"""Documentation lint: internal links, benchmark-artifact coverage, and
the floor metric table.

Usage:
    check_docs.py [--repo DIR]

Three checks, all source-only (no build needed), run by the CI docs job
and by the `check_docs` CTest:

1. Internal links. Every relative markdown link or image in README.md and
   docs/*.md must resolve to an existing file or directory (anchors are
   stripped; http/https/mailto links are skipped). A doc that names a
   moved or deleted file fails the job — stale architecture docs are
   worse than none.

2. Benchmark coverage. Every bench binary constructs a
   bench::JsonReporter("<name>") and leaves a BENCH_<name>.json artifact;
   docs/BENCHMARKS.md is contracted to document every artifact. This
   check greps the JsonReporter constructions out of bench/ and
   examples/ and requires each "BENCH_<name>.json" to appear verbatim in
   docs/BENCHMARKS.md — adding a bench without documenting its artifact
   fails the job.

3. Metric catalogue. Every "floor.*" name the floor registers — the rows
   of kFloorCounters, the session's gauges, and the stage histograms
   (a "floor.stage." literal completed at runtime) — must have a row in
   the metric table of docs/OBSERVABILITY.md, and every "floor.*" row
   of that table must name something registered. A templated row such
   as `floor.stage.<stage>.us` covers a registered prefix.

Exits non-zero with one line per problem.
"""

import argparse
import pathlib
import re
import sys

# [text](target) and ![alt](target); target up to the first ')' without
# nesting. Reference-style links are rare here and not checked.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
REPORTER_RE = re.compile(r'JsonReporter\s+\w+\s*\(\s*"([a-z0-9_]+)"\s*\)')
# Quoted metric-name literals in the sources that register floor metrics;
# a literal ending in '.' is a prefix completed at runtime.
FLOOR_NAME_RE = re.compile(r'"(floor\.[a-z0-9_.]+)"')
FLOOR_SOURCES = ("src/floor/telemetry.hpp", "src/floor/telemetry.cpp",
                 "src/floor/session.cpp")
DOC_ROW_RE = re.compile(r"^\| `(floor\.[^`]+)`", re.MULTILINE)


def doc_files(repo):
    docs = [repo / "README.md"]
    docs += sorted((repo / "docs").glob("*.md"))
    return [d for d in docs if d.exists()]


def check_links(repo, problems):
    for doc in doc_files(repo):
        for match in LINK_RE.finditer(doc.read_text()):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                problems.append(
                    f"{doc.relative_to(repo)}: broken link -> {target}")
        print(f"links ok: {doc.relative_to(repo)}")


def check_bench_coverage(repo, problems):
    names = set()
    for source_dir in ("bench", "examples"):
        for source in sorted((repo / source_dir).glob("*.cpp")):
            names |= set(REPORTER_RE.findall(source.read_text()))
    if not names:
        problems.append("found no JsonReporter constructions under bench/")
        return
    benchmarks_md = repo / "docs" / "BENCHMARKS.md"
    if not benchmarks_md.exists():
        problems.append("docs/BENCHMARKS.md is missing")
        return
    text = benchmarks_md.read_text()
    for name in sorted(names):
        artifact = f"BENCH_{name}.json"
        if artifact in text:
            print(f"documented: {artifact}")
        else:
            problems.append(
                f"docs/BENCHMARKS.md does not document {artifact}")


def check_metric_catalogue(repo, problems):
    registered = set()
    for source in FLOOR_SOURCES:
        registered |= set(FLOOR_NAME_RE.findall((repo / source).read_text()))
    names = {n for n in registered if not n.endswith(".")}
    prefixes = {n for n in registered if n.endswith(".")}
    if not names:
        problems.append("found no floor.* metric names under src/floor/")
        return
    doc = (repo / "docs" / "OBSERVABILITY.md").read_text()
    table = doc.split("## Metric catalogue", 1)[-1].split("\n## ", 1)[0]
    rows = set(DOC_ROW_RE.findall(table))
    templated = {r for r in rows if "<" in r}
    for name in sorted(names - rows):
        problems.append(
            f"docs/OBSERVABILITY.md metric table lacks registered {name}")
    for prefix in sorted(prefixes):
        if not any(r.startswith(prefix) for r in templated):
            problems.append(
                f"docs/OBSERVABILITY.md metric table lacks a {prefix}<...> row")
    for row in sorted(rows - names):
        if not (row in templated and
                any(row.startswith(p) for p in prefixes)):
            problems.append(
                f"docs/OBSERVABILITY.md documents unregistered {row}")
    print(f"metric table ok: {len(names)} names, {len(prefixes)} prefix(es)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo", default=".", help="repository root")
    args = parser.parse_args()
    repo = pathlib.Path(args.repo).resolve()

    problems = []
    check_links(repo, problems)
    check_bench_coverage(repo, problems)
    check_metric_catalogue(repo, problems)
    for problem in problems:
        print(f"DOCS CHECK FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
