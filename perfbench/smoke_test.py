#!/usr/bin/env python3
"""Smoke test of the pipeline benchmark itself, at a tiny size.

    python3 perfbench/smoke_test.py

Builds the benchmark like run.py, then runs every workload (those of
BENCHMARK.json and expand_ndjson) through run.measure, untraced and
traced, at --tiny size (still enough sessions per
service for ModelRegistry::fit):
  - every BENCHMARK.json metric of the mode is emitted once, with its unit,
    and the ones the workload's layers produce are non-zero;
  - the output checks pass and the run leaves no scratch files behind;
  - the traced span tree is well formed: every child lies within its
    parent and every self time is >= 0.
Finally a run with a corrupted reference digest must count the failure and
exit non-zero. Exits 0 when all of this holds.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
import run as bench  # noqa: E402  (the runner next to this file)

SECONDS = 1.0  # split over the workload's run.PROCESSES processes

# Metrics that must be non-zero on a workload (the layers it runs).
NONZERO = {
    "stream_sessions": {
        "end_to_end": ["setup_s", "sessions_per_s", "events_per_s",
                       "ingest_s", "analyze_s", "pipeline_s",
                       "store_bytes_per_event", "peak_rss_mb"],
        "per_layer": ["dataset.generate.busy_s",
                      "dataset.generate.sessions_per_s",
                      "engine.consumer.outside_sink_s",
                      "engine.one_worker.sessions_per_s",
                      "engine.events.minute", "engine.events.session",
                      "events.sink.digest.busy_s",
                      "events.sink.digest.ns_per_event", "trace_overhead",
                      # the traced expand_ndjson repetition
                      "engine.events.segment", "engine.events.packet",
                      "events.sink.ndjson.ns_per_event",
                      "events.bytes_per_event.binary",
                      "mobility.segments_per_session",
                      "packet.packets_per_session"],
    },
    "expand_ndjson": {
        "end_to_end": ["setup_s", "sessions_per_s", "events_per_s",
                       "ingest_s", "analyze_s", "pipeline_s",
                       "store_bytes_per_event", "peak_rss_mb"],
        "per_layer": ["engine.consumer.outside_sink_s",
                      "engine.events.segment", "engine.events.packet",
                      "events.sink.fanout.busy_s",
                      "events.sink.csv.busy_s", "events.sink.binary.busy_s",
                      "events.sink.ndjson.busy_s",
                      "events.sink.ndjson.ns_per_event",
                      "events.bytes_per_event.csv",
                      "events.bytes_per_event.binary",
                      "events.bytes_per_event.ndjson",
                      "mobility.segments_per_session",
                      "packet.packets_per_session", "trace_overhead"],
    },
    "persist_analyze": {
        "end_to_end": ["setup_s", "sessions_per_s", "events_per_s",
                       "ingest_s", "analyze_s", "pipeline_s",
                       "store_bytes_per_event", "peak_rss_mb"],
        "per_layer": ["events.sink.collector.busy_s",
                      "events.sink.store.busy_s", "store.ingest.busy_s",
                      "store.commit.busy_s", "store.commit.count",
                      "store.commit.p50_ms", "store.compact.busy_s",
                      "store.compact.pages_written", "store.dead_pages",
                      "store.pages_committed", "store.open_s",
                      "store.replay.busy_s", "store.replay.events_per_s",
                      "store.scan.busy_s", "store.scan.p50_us",
                      "store.scan.pages_read",
                      "store.scan.events_per_leaf_read",
                      "events.dataset_from_source.busy_s", "core.fit.busy_s",
                      "usecases.slicing.busy_s", "usecases.vran.busy_s",
                      "analysis.throughput.busy_s", "trace_overhead"],
    },
}

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL: {what}", flush=True)


def span_tree_errors(spans):
    """Children within their parent; busy <= duration; self time >= 0."""
    errors = []
    child_busy = {}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["busy_ns"] < 0 or s["busy_ns"] > s["end_ns"] - s["start_ns"]:
            errors.append(f"{s['name']}: busy outside its interval")
        if s["parent"] < 0:
            continue
        p = by_id.get(s["parent"])
        if p is None:
            errors.append(f"{s['name']}: unknown parent {s['parent']}")
            continue
        if s["start_ns"] < p["start_ns"] or s["end_ns"] > p["end_ns"]:
            errors.append(f"{s['name']} lies outside {p['name']}")
        child_busy[p["id"]] = child_busy.get(p["id"], 0) + s["busy_ns"]
    for sid, busy in child_busy.items():
        if by_id[sid]["busy_ns"] - busy < 0:
            errors.append(f"{by_id[sid]['name']}: negative self time")
    return errors


def scratch_entries():
    root = bench.ROOT / bench.SCRATCH
    return sorted(p.name for p in root.iterdir()) if root.exists() else []


def check_workload(workload, trace, trace_file):
    mode = "per_layer" if trace else "end_to_end"
    label = f"{workload} trace={trace}"
    extra = ["--tiny"] + (["--trace-file", trace_file] if trace else [])
    before = scratch_entries()
    code, info, result = bench.measure(workload, 5, SECONDS, trace, extra)
    expect(code == 0, f"{label}: exit code {code}")
    if result is None:
        expect(False, f"{label}: no result")
        return
    expect(result["correct"] and result["failed"] == 0,
           f"{label}: output checks failed")
    expect(len(info["output_digest"]) == 16, f"{label}: no output digest")
    for name in NONZERO[workload][mode]:
        expect(result["metrics"][name]["value"] > 0,
               f"{label}: {name} is zero")
    expect(scratch_entries() == before, f"{label}: scratch files left behind")
    if trace:
        spans = json.loads(Path(trace_file).read_text())
        errors = span_tree_errors(spans)
        expect(not errors, f"{label}: span tree: {errors[:3]}")
        names = {s["name"] for s in spans}
        expect("engine.run" in names, f"{label}: no engine.run span")


def main():
    if not bench.build():
        return 1
    with tempfile.TemporaryDirectory(dir=bench.ROOT) as tmp:
        for workload in NONZERO:
            for trace in (0, 1):
                check_workload(workload, trace,
                               str(Path(tmp) / f"{workload}.spans.json"))
    code, _, result = bench.measure(
        "stream_sessions", 5, SECONDS, 0, ["--tiny", "--corrupt-reference"],
        stderr=subprocess.DEVNULL)
    expect(code == 1, f"corrupted reference: exit code {code}, expected 1")
    expect(result is not None and not result["correct"] and
           result["failed"] > 0, "corrupted reference: failure not counted")
    print("smoke test " + ("passed" if not failures else
                           f"FAILED ({len(failures)} problems)"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
