#!/usr/bin/env python3
"""Flame-style profile report over EXPLAIN ANALYZE output.

Merges the per-operator metrics from `explain_<q>.json` (written by
tools/explain_nexmark or any caller of Engine::ExplainAnalyze) with the
Chrome-trace spans from `trace.json` into one report per query: an indented
plan tree where each operator carries a time bar (its share of the query's
sampled wall time), row counts, and the kernel vectorized/scalar split —
followed by a span-aggregate table from the trace.

Usage:
  profile_report.py <dir>                 report over every explain_*.json
  profile_report.py <explain.json> [...]  report over the named files
  profile_report.py --check <dir>         validation mode for CI: every
                                          explain_*.json must parse and carry
                                          an annotated plan; metrics.json and
                                          trace.json must parse if present.
                                          Exits non-zero on any violation.

Stdlib only, offline.
"""

import glob
import json
import os
import sys

BAR_WIDTH = 24


def fail(msg):
    print("profile_report: " + msg, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def flatten_plan(node, depth=0, out=None):
    if out is None:
        out = []
    out.append((depth, node))
    for child in node.get("inputs", []):
        flatten_plan(child, depth + 1, out)
    return out


def wall_sum(node):
    profile = node.get("profile") or {}
    return (profile.get("wall_us") or {}).get("sum", 0)


def hist_str(h):
    if not h or not h.get("count"):
        return "n=0"
    return "n=%d p50=%d p95=%d" % (h["count"], h.get("p50", 0), h.get("p95", 0))


def render_explain(doc):
    lines = []
    lines.append(
        "%s  shards=%s  profiling=%s"
        % (doc.get("query", "?"), doc.get("shards", "?"),
           "on" if doc.get("profiling") else "off")
    )
    sql = doc.get("sql", "").strip()
    if sql:
        lines.append("SQL: " + " ".join(sql.split()))
    ops = flatten_plan(doc["plan"])
    total_wall = sum(wall_sum(node) for _, node in ops) or 1
    for depth, node in ops:
        share = wall_sum(node) / total_wall
        bar = "#" * max(1 if wall_sum(node) else 0, round(share * BAR_WIDTH))
        head = "  " * depth + node.get("op", "?")
        lines.append(
            "%-28s %-*s %5.1f%%  rows %d->%d"
            % (head, BAR_WIDTH, bar, share * 100.0,
               node.get("rows_in", 0), node.get("rows_out", 0))
        )
        profile = node.get("profile")
        if profile:
            kernel = profile.get("kernel", {})
            detail = "  " * depth + "  wall_us %s | batch_size %s" % (
                hist_str(profile.get("wall_us")),
                hist_str(profile.get("batch_size")),
            )
            vec = kernel.get("vectorized_rows", 0)
            scalar = kernel.get("scalar_rows", 0)
            if vec or scalar:
                detail += " | kernel vec=%d scalar=%d" % (vec, scalar)
                falls = {
                    k: v
                    for k, v in (kernel.get("fallbacks") or {}).items()
                    if v
                }
                if falls:
                    detail += " (" + ", ".join(
                        "%s=%d" % kv for kv in sorted(falls.items())) + ")"
            lines.append(detail)
    sink = doc.get("sink")
    if sink:
        lines.append(
            "sink: emissions=%d (+%d/-%d) late_drops=%d"
            % (sink.get("emissions", 0), sink.get("inserts", 0),
               sink.get("retractions", 0), sink.get("late_drops", 0))
        )
    engine = doc.get("engine")
    if engine:
        lines.append(
            "engine: feed_wal_stall_us %s | feed_dispatch_us %s"
            % (hist_str(engine.get("feed_wal_stall_us")),
               hist_str(engine.get("feed_dispatch_us")))
        )
    return "\n".join(lines)


def render_trace(path):
    events = load_json(path)
    if not isinstance(events, list):
        fail("%s: trace is not an array" % path)
    agg = {}  # name -> [count, total_dur]
    dropped = recorded = None
    for ev in events:
        if not isinstance(ev, dict):
            continue
        if ev.get("name") == "trace_stats":
            args = ev.get("args", {})
            recorded = args.get("recorded")
            dropped = args.get("dropped")
            continue
        if ev.get("ph") != "X":
            continue
        entry = agg.setdefault(ev.get("name", "?"), [0, 0])
        entry[0] += 1
        entry[1] += ev.get("dur", 0)
    lines = ["trace spans (aggregated by name):"]
    total = sum(v[1] for v in agg.values()) or 1
    for name, (count, dur) in sorted(
            agg.items(), key=lambda kv: -kv[1][1]):
        bar = "#" * round(dur / total * BAR_WIDTH)
        lines.append(
            "  %-20s %-*s %5.1f%%  n=%-7d total=%dus avg=%.1fus"
            % (name, BAR_WIDTH, bar, dur / total * 100.0, count, dur,
               dur / count if count else 0.0)
        )
    if recorded is not None:
        line = "  (recorded=%d dropped=%d" % (recorded, dropped or 0)
        if dropped:
            line += " — ring wrapped, profile is truncated"
        lines.append(line + ")")
    return "\n".join(lines)


def check_explain(path):
    try:
        doc = load_json(path)
    except (OSError, json.JSONDecodeError) as e:
        fail("%s: %s" % (path, e))
    for key in ("query", "shards", "plan", "sink"):
        if key not in doc:
            fail("%s: missing key %r" % (path, key))
    ops = flatten_plan(doc["plan"])
    if not ops:
        fail("%s: empty plan" % path)
    for _, node in ops:
        for key in ("op", "node", "rows_in", "rows_out"):
            if key not in node:
                fail("%s: plan node missing %r" % (path, key))
        if doc.get("profiling") and "profile" not in node:
            fail("%s: profiling on but node %r has no profile"
                 % (path, node.get("op")))
    return doc


def run_check(directory):
    explains = sorted(glob.glob(os.path.join(directory, "explain_*.json")))
    if not explains:
        fail("%s: no explain_*.json files" % directory)
    for path in explains:
        check_explain(path)
    for name in ("metrics.json", "trace.json"):
        path = os.path.join(directory, name)
        if os.path.exists(path):
            try:
                load_json(path)
            except json.JSONDecodeError as e:
                fail("%s: %s" % (path, e))
    print("profile_report: %d explain renderings valid" % len(explains))


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if argv[1] == "--check":
        if len(argv) != 3:
            fail("--check takes exactly one directory")
        run_check(argv[2])
        return 0
    paths = []
    trace = None
    for arg in argv[1:]:
        if os.path.isdir(arg):
            paths.extend(sorted(glob.glob(os.path.join(arg,
                                                       "explain_*.json"))))
            candidate = os.path.join(arg, "trace.json")
            if trace is None and os.path.exists(candidate):
                trace = candidate
        elif os.path.basename(arg) == "trace.json":
            trace = arg
        else:
            paths.append(arg)
    if not paths:
        fail("no explain JSON inputs")
    for i, path in enumerate(paths):
        if i:
            print()
        print(render_explain(check_explain(path)))
    if trace:
        print()
        print(render_trace(trace))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
