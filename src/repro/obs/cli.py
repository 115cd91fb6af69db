"""Trace-file tooling: ``python -m repro.obs``.

The offline half of the observability layer — the paper's "chart tool
reads the log files" step, for our trace files::

    python -m repro.obs inspect out/t.jsonl          # what's in here?
    python -m repro.obs convert out/t.jsonl --to chrome
    python -m repro.obs summarize out/t.jsonl        # per-task metrics
    python -m repro.obs progress out/progress.jsonl  # sweep progress/ETA
    python -m repro.obs replay out/flight/*.json     # re-run anomaly bundles
    python -m repro.obs dashboard out/               # static HTML report

``convert`` writes ``<file>.chrome.json`` (or ``-o OUT``) loadable by
``chrome://tracing`` / https://ui.perfetto.dev.  ``summarize`` replays
the trace through the metrics observer and prints per-task counters
and response-time statistics.  ``progress`` renders the resume-aware
summary of a progress stream (valid even for a killed run).  ``replay``
rebuilds each flight bundle's system from the bundle alone, re-runs the
exact engine and checks the schedule fingerprint bit-for-bit (exit 1 on
divergence).  ``dashboard`` renders ``dashboard.html`` from the
manifests, telemetry and progress streams in an output directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter as TallyCounter
from pathlib import Path

from repro.obs.metrics import MetricsObserver
from repro.obs.progress import render_progress
from repro.obs.sinks import convert_jsonl_to_chrome, iter_jsonl
from repro.viz.tables import format_table

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Inspect, convert and summarize recorded trace files "
        "(JSONL, as written by --trace-out / JsonlSink).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inspect = sub.add_parser("inspect", help="event counts and a head of the trace")
    p_inspect.add_argument("file")
    p_inspect.add_argument("--limit", type=int, default=10, metavar="N",
                           help="events to print (default: 10)")

    p_convert = sub.add_parser("convert", help="convert a JSONL trace to another format")
    p_convert.add_argument("file")
    p_convert.add_argument("--to", choices=["chrome"], default="chrome",
                           help="target format (default: chrome)")
    p_convert.add_argument("-o", "--output", metavar="OUT",
                           help="output path (default: <file>.chrome.json)")

    p_summarize = sub.add_parser("summarize", help="per-task metrics from a trace file")
    p_summarize.add_argument("file")
    p_summarize.add_argument("--json", action="store_true",
                             help="emit the metrics registry as JSON instead of a table")

    p_progress = sub.add_parser("progress", help="summarize a progress stream")
    p_progress.add_argument("file")

    p_replay = sub.add_parser(
        "replay", help="re-run flight bundles and verify schedule fingerprints"
    )
    p_replay.add_argument("files", nargs="+", metavar="BUNDLE")

    p_dash = sub.add_parser(
        "dashboard", help="render a static HTML dashboard for an output directory"
    )
    p_dash.add_argument("out_dir")
    p_dash.add_argument("-o", "--output", metavar="HTML",
                        help="output path (default: <out_dir>/dashboard.html)")

    args = parser.parse_args(argv)
    if args.command == "replay":
        return _replay([Path(f) for f in args.files])
    if args.command == "dashboard":
        return _dashboard(Path(args.out_dir), args.output)
    src = Path(args.file)
    if not src.exists():
        print(f"error: no such trace file: {src}", file=sys.stderr)
        return 2
    if args.command == "inspect":
        return _inspect(src, args.limit)
    if args.command == "convert":
        out = Path(args.output) if args.output else src.with_suffix(".chrome.json")
        n = convert_jsonl_to_chrome(src, out)
        print(f"wrote {out} ({n} chrome events; open in chrome://tracing)")
        return 0
    if args.command == "progress":
        render_progress(src, sys.stdout)
        return 0
    return _summarize(src, as_json=args.json)


def _replay(paths: list[Path]) -> int:
    from repro.obs.flight import replay

    failures = 0
    for path in paths:
        if not path.exists():
            print(f"error: no such bundle: {path}", file=sys.stderr)
            return 2
        try:
            result = replay(path)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(result.describe())
        if not result.ok:
            failures += 1
    if len(paths) > 1:
        print(f"{len(paths) - failures}/{len(paths)} bundles reproduced")
    return 1 if failures else 0


def _dashboard(out_dir: Path, output: str | None) -> int:
    from repro.obs.dashboard import render_dashboard

    if not out_dir.is_dir():
        print(f"error: no such output directory: {out_dir}", file=sys.stderr)
        return 2
    path = render_dashboard(out_dir, Path(output) if output else None)
    print(f"wrote {path}")
    return 0


def _inspect(src: Path, limit: int) -> int:
    kinds: TallyCounter[str] = TallyCounter()
    tasks: set[str] = set()
    first: list[str] = []
    total = 0
    end = 0
    for event in iter_jsonl(src):
        total += 1
        kinds[event.kind.value] += 1
        if event.task:
            tasks.add(event.task)
        end = max(end, event.time)
        if len(first) < limit:
            first.append(str(event))
    print(f"{src}: {total} events, {len(tasks)} tasks, end time {end} ns")
    for kind, count in kinds.most_common():
        print(f"  {kind}: {count}")
    if first:
        print(f"first {len(first)} events:")
        for line in first:
            print(f"  {line}")
    return 0


def _summarize(src: Path, *, as_json: bool) -> int:
    registry = MetricsObserver().observe_events(iter_jsonl(src))
    doc = registry.as_dict()
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    tasks = sorted(
        {k.split("task=")[1].rstrip("}") for k in doc["counters"] if "task=" in k}
    )
    rows = []
    for task in tasks:
        def count(name: str) -> int:
            return doc["counters"].get(f"task_{name}_total{{task={task}}}", 0)

        hist = doc["histograms"].get(f"task_response_time_ns{{task={task}}}", {})
        rows.append(
            (
                task,
                count("releases"),
                count("completions"),
                count("stops"),
                count("deadline_misses"),
                count("detector_fires"),
                hist.get("max") if hist.get("max") is not None else "-",
            )
        )
    if not rows:
        print(f"{src}: no task events (spans only?)")
        return 0
    print(
        format_table(
            ["task", "releases", "completions", "stops", "misses", "det.fires", "max resp ns"],
            rows,
            title=f"Trace summary - {src}",
        )
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
