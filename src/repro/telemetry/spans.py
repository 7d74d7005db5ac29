"""Structured telemetry core: hierarchical spans, events, and sinks.

This module is the zero-dependency spine of ``repro.telemetry``.  It
deliberately imports nothing from the rest of ``repro`` (and nothing
beyond the stdlib) so that any layer, the radio engine included, can
emit telemetry without creating an import cycle.

Design constraints, in order:

1. **Near-zero cost when disabled.**  Telemetry is off by default.  The
   global pipeline is a single module-level reference; every public
   entry point starts with ``if _PIPELINE is None: return`` (or returns
   a shared no-op span singleton), so a disabled call is one global
   load, one comparison, and a return.  Hot loops additionally hoist
   ``enabled()`` into a local before iterating.
2. **Append-only JSONL.**  Records are flat JSON objects written one
   per line; a trace file can be tailed, grepped, or folded by
   ``repro.telemetry.summarize`` without loading it whole.
3. **Monotonic timing.**  All ``t`` fields are seconds relative to the
   pipeline's start on ``time.perf_counter()``; ``seconds`` fields are
   perf-counter deltas.  Wall-clock appears only once, in the
   ``config`` record, so traces are immune to clock steps.
4. **Cross-process relay.**  Process-pool workers cannot write to the
   parent's sink.  ``capture()`` installs a memory pipeline inside the
   worker, and the resulting payload travels back through the existing
   per-completion result channel; ``ingest()`` re-parents the records
   under the parent's current span and merges metric counters.  Record
   order within a worker is preserved; ``seq`` is reassigned on ingest
   so a single trace file has one total order (never compare ``t``
   across processes).

Record schema (one JSON object per line):

- ``{"type": "config", "t": 0.0, "seq": 0, "unix_time": ..., "pid": ...,
  "sinks": [...]}`` — first record of a pipeline.
- ``{"type": "span_begin", "span": id, "parent": id|null,
  "layer": ..., "name": ..., "t": ..., "seq": ..., "attrs": {...}}``
- ``{"type": "span_end", "span": id, "layer": ..., "name": ...,
  "t": ..., "seq": ..., "seconds": ..., "attrs": {...}}`` — ``attrs``
  holds annotations added during the span.
- ``{"type": "span", ...}`` — a pre-aggregated span (begin+end in one
  record, e.g. the engine's per-phase round totals), same fields as
  ``span_begin`` plus ``seconds``.
- ``{"type": "event", "name": ..., "parent": id|null, "t": ...,
  "seq": ..., "attrs": {...}}`` — one-shot occurrence.
- ``{"type": "metrics", "t": ..., "seq": ..., "metrics": {...}}`` —
  registry snapshot, emitted on shutdown.

The pipeline is process-global and intended for single-threaded use
(the simulation stack is single-threaded per process; parallelism is
process-based and relayed through ``capture``/``ingest``).
"""

from __future__ import annotations

import json
import os
import time
from typing import IO, Any, Dict, Iterable, List, Optional

__all__ = [
    "FileSink",
    "MemorySink",
    "NullSink",
    "Span",
    "TelemetryPipeline",
    "aggregate_span",
    "capture",
    "configure_telemetry",
    "counter_inc",
    "current_registry",
    "enabled",
    "event",
    "gauge_set",
    "get_pipeline",
    "histogram_observe",
    "ingest",
    "span",
    "telemetry_provenance",
    "telemetry_shutdown",
]

from repro.telemetry.metrics import MetricsRegistry


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------


class NullSink:
    """Discards every record (useful for measuring pure pipeline cost)."""

    def emit(self, record: Dict[str, Any]) -> None:
        pass

    def close(self) -> None:
        pass

    def describe(self) -> str:
        return "null"


class MemorySink:
    """Keeps records in a list — the relay buffer and the test harness."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def emit(self, record: Dict[str, Any]) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass

    def describe(self) -> str:
        return "memory"


class FileSink:
    """Appends one JSON object per line to ``path``.

    The file is opened lazily on the first record and flushed per line,
    so a crashed run still leaves a readable (possibly torn-tailed)
    trace; the summarizer skips torn lines the same way the result
    store does.
    """

    def __init__(self, path: os.PathLike | str) -> None:
        self.path = os.fspath(path)
        self._fh: Optional[IO[str]] = None

    def emit(self, record: Dict[str, Any]) -> None:
        if self._fh is None:
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps(record, separators=(",", ":"), default=str))
        self._fh.write("\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def describe(self) -> str:
        return f"file:{self.path}"


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


class TelemetryPipeline:
    """Fan-out of telemetry records to sinks plus a metrics registry."""

    def __init__(self, sinks: Iterable[Any], *, id_prefix: str = "") -> None:
        self.sinks = list(sinks)
        self.registry = MetricsRegistry()
        self._id_prefix = id_prefix
        self._t0 = time.perf_counter()
        self._seq = 0
        self._ids = 0
        self._stack: List[str] = []
        self.emit(
            {
                "type": "config",
                "t": 0.0,
                "unix_time": time.time(),
                "pid": os.getpid(),
                "sinks": [s.describe() for s in self.sinks],
            }
        )

    def now(self) -> float:
        return time.perf_counter() - self._t0

    def next_id(self) -> str:
        self._ids += 1
        return f"{self._id_prefix}s{self._ids}"

    def current_span(self) -> Optional[str]:
        return self._stack[-1] if self._stack else None

    def emit(self, record: Dict[str, Any]) -> None:
        record["seq"] = self._seq
        self._seq += 1
        for sink in self.sinks:
            sink.emit(record)

    def close(self) -> None:
        self.emit(
            {
                "type": "metrics",
                "t": self.now(),
                "metrics": self.registry.snapshot(),
            }
        )
        for sink in self.sinks:
            sink.close()


_PIPELINE: Optional[TelemetryPipeline] = None


def enabled() -> bool:
    """True when a telemetry pipeline is installed.

    Hot loops should hoist this into a local once per run rather than
    calling per iteration.
    """

    return _PIPELINE is not None


def get_pipeline() -> Optional[TelemetryPipeline]:
    return _PIPELINE


def configure_telemetry(
    *,
    sink: Any = None,
    sinks: Iterable[Any] = (),
    enabled: bool = True,
) -> Optional[TelemetryPipeline]:
    """Install (or remove, with ``enabled=False``) the global pipeline.

    Replaces any previously installed pipeline after closing it.  With
    no sinks and ``enabled=True`` a :class:`MemorySink` is installed so
    ``configure_telemetry()`` alone gives an inspectable pipeline.
    """

    global _PIPELINE
    if _PIPELINE is not None:
        _PIPELINE.close()
        _PIPELINE = None
    if not enabled:
        return None
    all_sinks = ([sink] if sink is not None else []) + list(sinks)
    if not all_sinks:
        all_sinks = [MemorySink()]
    _PIPELINE = TelemetryPipeline(all_sinks)
    return _PIPELINE


def telemetry_shutdown() -> None:
    """Close and uninstall the global pipeline (no-op when disabled)."""

    global _PIPELINE
    if _PIPELINE is not None:
        _PIPELINE.close()
        _PIPELINE = None


def telemetry_provenance() -> Dict[str, Any]:
    """Provenance stamp for reports: active config, never digested."""

    if _PIPELINE is None:
        return {"enabled": False}
    return {
        "enabled": True,
        "sinks": [s.describe() for s in _PIPELINE.sinks],
    }


# ---------------------------------------------------------------------------
# Spans and events
# ---------------------------------------------------------------------------


class _NoopSpan:
    """Shared do-nothing span returned whenever telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def annotate(self, **attrs: Any) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class Span:
    """A live span; use as a context manager.

    Emits ``span_begin`` on enter and ``span_end`` (with ``seconds``)
    on exit; nested spans parent to the innermost open span of the
    same pipeline.  ``annotate()`` adds attributes that appear on the
    ``span_end`` record (e.g. results known only at completion).
    """

    __slots__ = ("_pipeline", "_start", "id", "layer", "name", "end_attrs")

    def __init__(
        self,
        pipeline: TelemetryPipeline,
        layer: str,
        name: str,
        attrs: Dict[str, Any],
    ) -> None:
        self._pipeline = pipeline
        self.layer = layer
        self.name = name
        self.end_attrs: Dict[str, Any] = {}
        self.id = pipeline.next_id()
        self._start = pipeline.now()
        pipeline.emit(
            {
                "type": "span_begin",
                "span": self.id,
                "parent": pipeline.current_span(),
                "layer": layer,
                "name": name,
                "t": self._start,
                "attrs": attrs,
            }
        )
        pipeline._stack.append(self.id)

    def __enter__(self) -> "Span":
        return self

    def annotate(self, **attrs: Any) -> None:
        self.end_attrs.update(attrs)

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        pipeline = self._pipeline
        if pipeline._stack and pipeline._stack[-1] == self.id:
            pipeline._stack.pop()
        elif self.id in pipeline._stack:
            # Mis-nested exit (exception unwound through several spans):
            # drop everything above this span too.
            while pipeline._stack and pipeline._stack.pop() != self.id:
                pass
        end = pipeline.now()
        if exc_type is not None:
            self.end_attrs["error"] = exc_type.__name__
        pipeline.emit(
            {
                "type": "span_end",
                "span": self.id,
                "layer": self.layer,
                "name": self.name,
                "t": end,
                "seconds": end - self._start,
                "attrs": self.end_attrs,
            }
        )
        return False


def span(layer: str, name: str, **attrs: Any):
    """Open a span (context manager); no-op singleton when disabled."""

    pipeline = _PIPELINE
    if pipeline is None:
        return _NOOP_SPAN
    return Span(pipeline, layer, name, attrs)


def event(name: str, **attrs: Any) -> None:
    """Emit a one-shot event parented to the innermost open span."""

    pipeline = _PIPELINE
    if pipeline is None:
        return
    pipeline.emit(
        {
            "type": "event",
            "name": name,
            "parent": pipeline.current_span(),
            "t": pipeline.now(),
            "attrs": attrs,
        }
    )


def aggregate_span(layer: str, name: str, seconds: float, **attrs: Any) -> None:
    """Emit a pre-aggregated span (begin+end collapsed into one record).

    Used where per-occurrence spans would be too hot — e.g. the engine
    emits one ``round-phase`` span per phase per run, carrying the
    summed seconds across all rounds.
    """

    pipeline = _PIPELINE
    if pipeline is None:
        return
    pipeline.emit(
        {
            "type": "span",
            "span": pipeline.next_id(),
            "parent": pipeline.current_span(),
            "layer": layer,
            "name": name,
            "t": pipeline.now(),
            "seconds": seconds,
            "attrs": attrs,
        }
    )


# ---------------------------------------------------------------------------
# Metrics registry pass-throughs (gated on the global pipeline)
# ---------------------------------------------------------------------------


def current_registry() -> Optional[MetricsRegistry]:
    return _PIPELINE.registry if _PIPELINE is not None else None


def counter_inc(name: str, value: float = 1) -> None:
    pipeline = _PIPELINE
    if pipeline is not None:
        pipeline.registry.counter_inc(name, value)


def gauge_set(name: str, value: float) -> None:
    pipeline = _PIPELINE
    if pipeline is not None:
        pipeline.registry.gauge_set(name, value)


def histogram_observe(name: str, value: float) -> None:
    pipeline = _PIPELINE
    if pipeline is not None:
        pipeline.registry.histogram_observe(name, value)


# ---------------------------------------------------------------------------
# Cross-process relay
# ---------------------------------------------------------------------------


class capture:
    """Context manager that buffers telemetry for relay to a parent.

    Installs a fresh memory pipeline for the duration of the block —
    regardless of what the process inherited at fork/spawn time — so a
    worker's spans, events, and counters accumulate in one picklable
    payload.  ``payload()`` (valid after exit) returns
    ``{"label", "records", "metrics"}``; ship it through the normal
    result channel and feed it to :func:`ingest` in the parent.

    Span ids inside the buffer are prefixed with ``label`` so ids from
    different workers never collide in the merged trace.
    """

    def __init__(self, label: str) -> None:
        self.label = label
        self._sink = MemorySink()
        self._saved: Optional[TelemetryPipeline] = None
        self._pipeline: Optional[TelemetryPipeline] = None

    def __enter__(self) -> "capture":
        global _PIPELINE
        self._saved = _PIPELINE
        self._pipeline = TelemetryPipeline(
            [self._sink], id_prefix=f"{self.label}/"
        )
        _PIPELINE = self._pipeline
        return self

    def __exit__(self, *exc: Any) -> bool:
        global _PIPELINE
        _PIPELINE = self._saved
        self._saved = None
        return False

    def payload(self) -> Dict[str, Any]:
        assert self._pipeline is not None
        return {
            "label": self.label,
            "records": [
                r for r in self._sink.records if r["type"] != "config"
            ],
            "metrics": self._pipeline.registry.snapshot(),
        }


def ingest(payload: Optional[Dict[str, Any]], **tags: Any) -> None:
    """Merge a :func:`capture` payload into the live pipeline.

    Buffer-root records (``parent`` is null) are re-parented under the
    pipeline's current span; every record gains ``tags`` in its attrs
    (e.g. ``shard=<cell digest label>`` so events stay attributed to
    the right cell however shards interleave); metric counters merge
    additively.  Worker-relative ``t`` values are preserved under
    ``worker_t`` and replaced with the parent pipeline's ingest time so
    ``t`` stays monotonic within the trace file.
    """

    pipeline = _PIPELINE
    if pipeline is None or not payload:
        return
    parent = pipeline.current_span()
    now = pipeline.now()
    for record in payload.get("records", ()):
        record = dict(record)
        if record.get("parent") is None and record["type"] != "metrics":
            record["parent"] = parent
        if tags:
            attrs = dict(record.get("attrs") or {})
            attrs.update(tags)
            record["attrs"] = attrs
        if "t" in record:
            record["worker_t"] = record["t"]
            record["t"] = now
        pipeline.emit(record)
    metrics = payload.get("metrics")
    if metrics:
        pipeline.registry.merge(metrics)
