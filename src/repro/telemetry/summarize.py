"""Fold a telemetry JSONL trace into a per-layer time/throughput report.

Pure offline analysis: reads records written by
``repro.telemetry.spans`` (directly or relayed from workers), pairs
``span_begin``/``span_end`` by span id, accepts pre-aggregated
``span`` records, and produces

- a per-layer table (span count, total seconds, trials, trials/s),
- the unattributed remainder: the traced wall time (the root spans'
  seconds) that no layer's self time covers — root spans are scopes, as
  the experiment spans are in ``perfbench/tracing.py``, so this is the
  roots' own time minus their children's,
- event counts by name,
- the final metrics-registry snapshot,
- an indented span tree (parent links survive the cross-process
  relay, so worker shards hang under the cell that spawned them).

Torn trailing lines (a crashed run mid-write) are skipped, matching
the result store's JSONL tolerance.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Optional

__all__ = ["fold_trace", "load_trace", "render_summary", "summarize_trace"]


def load_trace(path: os.PathLike | str) -> List[Dict[str, Any]]:
    records: List[Dict[str, Any]] = []
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn line from an interrupted writer
            if isinstance(record, dict) and "type" in record:
                records.append(record)
    return records


def _span_trials(attrs: Dict[str, Any]) -> Optional[int]:
    trials = attrs.get("trials")
    return trials if isinstance(trials, int) else None


def fold_trace(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate raw records into the summary structure.

    Returns ``{"layers", "unattributed_seconds", "events", "spans",
    "roots", "metrics", "record_count"}`` where ``layers`` maps layer name
    → ``{"spans", "seconds", "trials"}`` (in first-seen order),
    ``spans`` maps span id → merged span info, and ``roots`` lists
    parentless span ids in trace order.  ``unattributed_seconds`` is the
    root spans' time not covered by their child spans (negative when the
    children ran in parallel worker processes).
    """

    spans: Dict[str, Dict[str, Any]] = {}
    roots: List[str] = []
    events: Dict[str, int] = {}
    metrics: Dict[str, Any] = {}
    count = 0

    for record in records:
        count += 1
        kind = record.get("type")
        if kind in ("span_begin", "span"):
            span_id = record["span"]
            info = spans.setdefault(
                span_id,
                {
                    "id": span_id,
                    "layer": record.get("layer", "?"),
                    "name": record.get("name", "?"),
                    "parent": record.get("parent"),
                    "attrs": dict(record.get("attrs") or {}),
                    "seconds": None,
                    "children": [],
                },
            )
            if kind == "span":
                info["seconds"] = record.get("seconds")
            if info["parent"] is None:
                roots.append(span_id)
        elif kind == "span_end":
            span_id = record["span"]
            info = spans.get(span_id)
            if info is None:
                # end without begin (trace truncated at the front):
                # synthesise a root entry so the time still counts.
                info = {
                    "id": span_id,
                    "layer": record.get("layer", "?"),
                    "name": record.get("name", "?"),
                    "parent": None,
                    "attrs": {},
                    "seconds": None,
                    "children": [],
                }
                spans[span_id] = info
                roots.append(span_id)
            info["seconds"] = record.get("seconds")
            info["attrs"].update(record.get("attrs") or {})
        elif kind == "event":
            name = record.get("name", "?")
            events[name] = events.get(name, 0) + 1
        elif kind == "metrics":
            metrics = record.get("metrics") or {}

    for info in spans.values():
        parent = spans.get(info["parent"]) if info["parent"] else None
        if parent is not None:
            parent["children"].append(info["id"])

    layers: Dict[str, Dict[str, Any]] = {}
    for info in spans.values():
        layer = layers.setdefault(
            info["layer"], {"spans": 0, "seconds": 0.0, "trials": 0}
        )
        layer["spans"] += 1
        if info["seconds"] is not None:
            layer["seconds"] += info["seconds"]
        trials = _span_trials(info["attrs"])
        if trials is not None:
            layer["trials"] += trials

    unattributed = 0.0
    for root in roots:
        info = spans[root]
        if info["seconds"] is None:
            continue
        unattributed += info["seconds"] - sum(
            spans[child]["seconds"] or 0.0 for child in info["children"]
        )

    return {
        "layers": layers,
        "unattributed_seconds": unattributed,
        "events": events,
        "spans": spans,
        "roots": roots,
        "metrics": metrics,
        "record_count": count,
    }


def summarize_trace(path: os.PathLike | str) -> Dict[str, Any]:
    return fold_trace(load_trace(path))


def _format_seconds(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    if seconds >= 1:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.1f}ms"


def _render_tree(
    summary: Dict[str, Any], span_id: str, depth: int, lines: List[str]
) -> None:
    info = summary["spans"][span_id]
    attrs = info["attrs"]
    extras = []
    trials = _span_trials(attrs)
    if trials is not None:
        extras.append(f"trials={trials}")
    for key in ("shard", "error"):
        if key in attrs:
            extras.append(f"{key}={attrs[key]}")
    suffix = f"  [{', '.join(extras)}]" if extras else ""
    lines.append(
        f"{'  ' * depth}{info['layer']}:{info['name']} "
        f"{_format_seconds(info['seconds'])}{suffix}"
    )
    for child in info["children"]:
        _render_tree(summary, child, depth + 1, lines)


def render_summary(summary: Dict[str, Any], *, tree: bool = True) -> str:
    """Render the folded summary as the ``telemetry summarize`` report."""

    lines: List[str] = []
    layers = summary["layers"]
    lines.append("per-layer totals:")
    if layers:
        width = max(len(name) for name in [*layers, "unattributed"])
        for name, layer in layers.items():
            seconds = layer["seconds"]
            rate = ""
            if layer["trials"] and seconds > 0:
                rate = f"  ({layer['trials'] / seconds:,.0f} trials/s)"
            trials = f"  trials={layer['trials']}" if layer["trials"] else ""
            lines.append(
                f"  {name:<{width}}  spans={layer['spans']:<5d} "
                f"time={_format_seconds(seconds):>9}{trials}{rate}"
            )
        lines.append(
            f"  {'unattributed':<{width}}  "
            f"{'':<11} time={_format_seconds(summary['unattributed_seconds']):>9}"
        )
    else:
        lines.append("  (no spans)")

    if summary["events"]:
        lines.append("events:")
        for name in sorted(summary["events"]):
            lines.append(f"  {name}: {summary['events'][name]}")

    counters = (summary.get("metrics") or {}).get("counters") or {}
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            value = counters[name]
            shown = int(value) if float(value).is_integer() else value
            lines.append(f"  {name}: {shown}")

    gauges = (summary.get("metrics") or {}).get("gauges") or {}
    if gauges:
        lines.append("gauges:")
        for name in sorted(gauges):
            lines.append(f"  {name}: {gauges[name]:g}")

    if tree and summary["roots"]:
        lines.append("span tree:")
        for root in summary["roots"]:
            _render_tree(summary, root, 1, lines)

    lines.append(f"records: {summary['record_count']}")
    return "\n".join(lines)
