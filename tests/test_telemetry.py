"""The telemetry spine: spans, metrics, relay, progress, and digest safety.

Contracts pinned here:

1. **Disabled is free and inert.**  With no pipeline installed every entry
   point returns immediately (``span`` hands back one shared no-op
   singleton) and nothing is recorded anywhere.
2. **Hierarchy survives execution.**  A grid run produces the
   ``sweep → cell → shard → round-phase`` tree with exact trial counts at
   every layer — in process and across a real worker pool, however the
   shards interleave (the cross-process relay re-parents worker records
   under the right cell and tags them with their shard label).
3. **Queue liveness events.**  A killed worker emits one
   ``queue.worker_death`` followed by a ``queue.retry`` per affected task
   (label, attempt, backoff), in that order.
4. **Telemetry never touches a digest.**  Store keys are bit-identical
   with telemetry on or off, pinned against the same hard-coded digest
   ``TestDigestStability`` pins.
"""

import io
import json
import os

import pytest

from repro import telemetry
from repro.baselines.decay import DecayBroadcast
from repro.experiments.common import execution_provenance
from repro.experiments.protocols import ProtocolSpec
from repro.experiments.runner import build_repetition_plan
from repro.graphs.builders import GraphSpec
from repro.graphs.random_digraph import random_digraph
from repro.jobs.queue import JobQueue, ProcessPoolBackend
from repro.radio.batch import BatchEngine, PendingTrial
from repro.scenarios import SweepCell, SweepGrid, run_grid
from repro.scenarios.runtime import (
    DEFAULT_SHARD_TRIALS,
    MAX_SHARD_TRIALS,
    _shard_trials_for,
)
from repro.telemetry import (
    FileSink,
    MemorySink,
    MetricsRegistry,
    ProgressReporter,
    configure_telemetry,
    fold_trace,
    render_summary,
    summarize_trace,
    telemetry_shutdown,
)
from repro.telemetry.spans import _NOOP_SPAN


@pytest.fixture(autouse=True)
def _clean_pipeline():
    """Every test starts and ends with telemetry disabled (process-global)."""
    telemetry_shutdown()
    yield
    telemetry_shutdown()


def _memory_pipeline():
    sink = MemorySink()
    configure_telemetry(sink=sink)
    return sink


def _decay_cell(n=32, repetitions=4, p=0.2):
    return SweepCell(
        coords={"n": n},
        graph=GraphSpec("gnp", {"n": n, "p": p}),
        protocol=ProtocolSpec("decay", {}),
        repetitions=repetitions,
        metrics=("success",),
    )


# --------------------------------------------------------------------------- #
# Disabled fast path
# --------------------------------------------------------------------------- #
class TestDisabled:
    def test_disabled_by_default(self):
        assert not telemetry.enabled()
        assert telemetry.get_pipeline() is None

    def test_span_returns_shared_noop_singleton(self):
        assert telemetry.span("cell", "a") is _NOOP_SPAN
        assert telemetry.span("shard", "b") is _NOOP_SPAN
        with telemetry.span("sweep", "c") as s:
            s.annotate(anything=1)  # must not raise

    def test_events_and_metrics_are_inert(self):
        telemetry.event("nothing", x=1)
        telemetry.counter_inc("nothing")
        telemetry.gauge_set("nothing", 1.0)
        telemetry.histogram_observe("nothing", 1.0)
        telemetry.aggregate_span("round-phase", "transmit", 0.1)
        telemetry.ingest({"records": [], "metrics": {}})
        assert telemetry.current_registry() is None

    def test_provenance_reports_disabled(self):
        assert telemetry.telemetry_provenance() == {"enabled": False}
        assert execution_provenance()["telemetry"] == {"enabled": False}


# --------------------------------------------------------------------------- #
# Core pipeline
# --------------------------------------------------------------------------- #
class TestPipeline:
    def test_span_nesting_and_record_order(self):
        sink = _memory_pipeline()
        with telemetry.span("sweep", "outer", cells=1) as outer:
            with telemetry.span("cell", "inner", trials=3):
                telemetry.event("tick", k=1)
            outer.annotate(done=True)
        kinds = [r["type"] for r in sink.records]
        assert kinds == [
            "config", "span_begin", "span_begin", "event",
            "span_end", "span_end",
        ]
        begin_outer, begin_inner = sink.records[1], sink.records[2]
        assert begin_outer["parent"] is None
        assert begin_inner["parent"] == begin_outer["span"]
        assert sink.records[3]["parent"] == begin_inner["span"]
        # seq is a single total order; end attrs carry annotations.
        assert [r["seq"] for r in sink.records] == list(range(6))
        assert sink.records[5]["attrs"] == {"done": True}
        assert sink.records[5]["seconds"] >= 0

    def test_exception_annotates_and_unwinds(self):
        sink = _memory_pipeline()
        with pytest.raises(ValueError):
            with telemetry.span("cell", "boom"):
                raise ValueError("no")
        end = [r for r in sink.records if r["type"] == "span_end"][0]
        assert end["attrs"]["error"] == "ValueError"
        assert telemetry.get_pipeline().current_span() is None

    def test_metrics_snapshot_emitted_on_shutdown(self):
        sink = _memory_pipeline()
        telemetry.counter_inc("a", 2)
        telemetry.counter_inc("a")
        telemetry.gauge_set("g", 7.5)
        telemetry.histogram_observe("h", 1.0)
        telemetry.histogram_observe("h", 3.0)
        telemetry_shutdown()
        metrics = [r for r in sink.records if r["type"] == "metrics"][0]["metrics"]
        assert metrics["counters"]["a"] == 3
        assert metrics["gauges"]["g"] == 7.5
        assert metrics["histograms"]["h"]["count"] == 2
        assert metrics["histograms"]["h"]["mean"] == 2.0

    def test_configure_replaces_and_closes_previous(self):
        first = _memory_pipeline()
        second = MemorySink()
        configure_telemetry(sink=second)
        # The first pipeline was closed: its metrics record is in place and
        # new emissions land only on the second sink.
        assert first.records[-1]["type"] == "metrics"
        telemetry.event("later")
        assert not any(r["type"] == "event" for r in first.records)
        assert any(r["type"] == "event" for r in second.records)

    def test_provenance_reports_sinks(self):
        _memory_pipeline()
        stamp = execution_provenance()["telemetry"]
        assert stamp == {"enabled": True, "sinks": ["memory"]}


class TestRegistry:
    def test_merge_combines_counters_and_histograms(self):
        a = MetricsRegistry()
        a.counter_inc("c", 2)
        a.histogram_observe("h", 1.0)
        b = MetricsRegistry()
        b.counter_inc("c", 3)
        b.gauge_set("g", 1.0)
        b.histogram_observe("h", 5.0)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 1.0
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["max"] == 5.0


class TestRelay:
    def test_capture_ingest_reparents_and_tags(self):
        sink = _memory_pipeline()
        with telemetry.span("cell", "parent-cell") as cell_span:
            with telemetry.capture("w1") as captured:
                with telemetry.span("shard", "inner"):
                    telemetry.counter_inc("engine.trials", 5)
            telemetry.ingest(captured.payload(), shard="w1")
        begins = [r for r in sink.records if r["type"] == "span_begin"]
        shard_begin = [r for r in begins if r["layer"] == "shard"][0]
        assert shard_begin["parent"] == cell_span.id
        assert shard_begin["span"].startswith("w1/")
        assert shard_begin["attrs"]["shard"] == "w1"
        assert "worker_t" in shard_begin
        assert telemetry.current_registry().counter("engine.trials") == 5

    def test_capture_restores_parent_pipeline(self):
        _memory_pipeline()
        parent = telemetry.get_pipeline()
        with telemetry.capture("w"):
            assert telemetry.get_pipeline() is not parent
        assert telemetry.get_pipeline() is parent


# --------------------------------------------------------------------------- #
# Execution layers
# --------------------------------------------------------------------------- #
class TestGridSpans:
    def _fold(self, sink):
        return fold_trace(sink.records)

    def test_in_process_grid_produces_full_tree(self):
        sink = _memory_pipeline()
        grid = SweepGrid(cells=(_decay_cell(n=24), _decay_cell(n=32)))
        run_grid(grid, seed=3, store=False)
        summary = self._fold(sink)
        layers = summary["layers"]
        assert layers["sweep"]["spans"] == 1
        assert layers["cell"]["spans"] == 2
        assert layers["sweep"]["trials"] == 8
        assert layers["cell"]["trials"] == 8
        assert layers["shard"]["trials"] == 8
        assert layers["round-phase"]["spans"] >= 3
        # One root (the sweep), cells under it, shards under cells.
        assert len(summary["roots"]) == 1
        sweep_info = summary["spans"][summary["roots"][0]]
        assert sweep_info["layer"] == "sweep"
        cell_ids = sweep_info["children"]
        assert {summary["spans"][c]["layer"] for c in cell_ids} == {"cell"}
        for cell_id in cell_ids:
            for shard_id in summary["spans"][cell_id]["children"]:
                assert summary["spans"][shard_id]["layer"] == "shard"
        counters = telemetry.current_registry().snapshot()["counters"]
        assert counters["engine.trials"] == 8
        assert not any(name.startswith("kernels.") for name in counters)
        assert not any(name.startswith("nodesets.") for name in counters)

    def test_process_pool_shards_attribute_to_their_cell(self):
        sink = _memory_pipeline()
        grid = SweepGrid(
            cells=(_decay_cell(n=24, repetitions=8),
                   _decay_cell(n=32, repetitions=8))
        )
        run_grid(grid, seed=3, store=False, processes=2, shards=2)
        summary = self._fold(sink)
        assert summary["layers"]["shard"]["spans"] == 4
        assert summary["layers"]["shard"]["trials"] == 16
        # However the pool interleaved completions, every shard span hangs
        # under the cell that spawned it and is tagged with its own label.
        for cell_id in summary["spans"][summary["roots"][0]]["children"]:
            cell_info = summary["spans"][cell_id]
            assert len(cell_info["children"]) == 2
            assert sum(
                summary["spans"][s]["attrs"]["trials"]
                for s in cell_info["children"]
            ) == 8
            for shard_id in cell_info["children"]:
                shard_info = summary["spans"][shard_id]
                tag = shard_info["attrs"]["shard"]
                assert shard_info["name"] == tag
                # Relayed ids carry the worker prefix -> no collisions.
                assert shard_id.startswith(f"{tag}/")
        # Worker registries merged additively into the parent's.
        counters = telemetry.current_registry().snapshot()["counters"]
        assert counters["engine.trials"] == 16

    def test_cell_span_annotated_with_counts(self):
        sink = _memory_pipeline()
        run_grid(SweepGrid(cells=(_decay_cell(),)), seed=1, store=False)
        cell_end = [
            r for r in sink.records
            if r["type"] == "span_end" and r["layer"] == "cell"
        ][0]
        assert cell_end["attrs"]["executed"] == 4


class TestEngineRunEvent:
    """One ``engine.run`` event per engine call, whichever entry point."""

    TRIALS = 7

    @pytest.mark.parametrize("entry", ["run", "run_continuous"])
    def test_one_event_per_call_with_trial_rounds(self, entry):
        net = random_digraph(48, 0.15, rng=5)
        engine = BatchEngine()
        sink = _memory_pipeline()
        if entry == "run":
            traces = engine.run(
                net, DecayBroadcast(), trials=self.TRIALS, rng=3
            )
        else:
            traces = engine.run_continuous(
                (PendingTrial(net, rng=100 + t) for t in range(self.TRIALS)),
                DecayBroadcast,
                capacity=3,
                watermark=1.0,
            )
        names = [r["name"] for r in sink.records if r["type"] == "event"]
        assert names.count("engine.run") == 1
        assert "engine.continuous" not in names
        (event,) = [
            r["attrs"] for r in sink.records
            if r["type"] == "event" and r["name"] == "engine.run"
        ]
        assert event["trials"] == self.TRIALS
        assert event["trial_rounds"] == sum(t.rounds_executed for t in traces)
        assert event["rounds"] >= max(t.rounds_executed for t in traces)
        assert "kernel" not in event
        assert "state_backend" not in event
        # Cohort bookkeeping appears only when rows moved.
        if entry == "run":
            assert "compactions" not in event
        else:
            assert event["capacity"] == 3
            assert event["refills"] >= 1


class TestProbeCellTelemetry:
    def test_probe_cells_emit_engine_runs(self):
        # Probe cells run on the batch engine, so they are traced like job
        # cells: engine.run events hang under each cell span.
        from repro.experiments.registry import get_experiment, run_experiment

        sink = _memory_pipeline()
        run_experiment("E7", scale="quick", seed=0)
        cells = {
            r["span"]: r["attrs"]["trials"]
            for r in sink.records
            if r["type"] == "span_begin" and r["layer"] == "cell"
        }
        expected = get_experiment("E7").scenario("quick", 0).grid
        assert len(cells) == len(expected)
        traced = {span: 0 for span in cells}
        for r in sink.records:
            if r["type"] == "event" and r["name"] == "engine.run":
                traced[r["parent"]] += r["attrs"]["trials"]
        assert traced == cells
        assert sorted(cells.values()) == sorted(
            cell.repetitions for cell in expected
        )


class TestShardSizeEvents:
    def test_floor_clamp_emits_selection_event(self):
        sink = _memory_pipeline()
        assert _shard_trials_for(8192) == DEFAULT_SHARD_TRIALS
        events = [r for r in sink.records if r["type"] == "event"]
        assert len(events) == 1
        attrs = events[0]["attrs"]
        assert events[0]["name"] == "scenario.shard_size"
        assert attrs["reason"] == "floor"
        assert attrs["chosen"] == DEFAULT_SHARD_TRIALS
        assert attrs["budget_trials"] == 8

    def test_ceiling_clamp_emits_selection_event(self):
        sink = _memory_pipeline()
        assert _shard_trials_for(4) == MAX_SHARD_TRIALS
        attrs = [r for r in sink.records if r["type"] == "event"][0]["attrs"]
        assert attrs["reason"] == "ceiling"
        assert attrs["chosen"] == MAX_SHARD_TRIALS

    def test_unclamped_size_is_silent(self):
        sink = _memory_pipeline()
        assert _shard_trials_for(64) == 1024  # budget == chosen
        assert not any(r["type"] == "event" for r in sink.records)


# --------------------------------------------------------------------------- #
# Queue events
# --------------------------------------------------------------------------- #
def _die_unless_marker(task):
    marker, value = task
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("seen")
        os._exit(13)
    return value


def _die_outside_parent(task):
    parent_pid, value = task
    if os.getpid() != parent_pid:
        os._exit(13)
    return value


class TestQueueEvents:
    def test_worker_death_then_per_task_retry_events(self, tmp_path):
        sink = _memory_pipeline()
        backend = ProcessPoolBackend(2, max_retries=2, retry_backoff=0.01)
        tasks = [(str(tmp_path / f"marker-{i}"), i) for i in range(3)]
        labels = [f"cell-{i:04x}" for i in range(3)]
        results = JobQueue(backend).run(
            _die_unless_marker, tasks, task_labels=labels
        )
        assert results == [0, 1, 2]
        events = [r for r in sink.records if r["type"] == "event"]
        deaths = [e for e in events if e["name"] == "queue.worker_death"]
        retries = [e for e in events if e["name"] == "queue.retry"]
        assert deaths and retries
        # Ordering: the death event precedes its retry fan-out.
        assert events.index(deaths[0]) < events.index(retries[0])
        first = retries[0]["attrs"]
        assert first["task"] in labels
        assert first["attempt"] == 1
        assert first["backoff_seconds"] == pytest.approx(0.01)
        assert first["on_pool"] is True
        registry = telemetry.current_registry().snapshot()["counters"]
        assert registry["queue.worker_deaths"] == len(deaths)
        assert registry["queue.retried_tasks"] == len(retries)

    def test_exhausted_retries_emit_fallback_event(self):
        sink = _memory_pipeline()
        backend = ProcessPoolBackend(2, max_retries=0, retry_backoff=0.0)
        tasks = [(os.getpid(), i) for i in range(2)]
        results = JobQueue(backend).run(
            _die_outside_parent, tasks, task_labels=["cell-a", "cell-b"]
        )
        assert results == [0, 1]
        events = [r for r in sink.records if r["type"] == "event"]
        fallback = [e for e in events if e["name"] == "queue.fallback"][0]
        assert fallback["attrs"]["tasks"] == ["cell-a", "cell-b"]
        counters = telemetry.current_registry().snapshot()["counters"]
        assert counters["queue.in_process_fallbacks"] == 2


# --------------------------------------------------------------------------- #
# Digest safety
# --------------------------------------------------------------------------- #
class TestDigestSafety:
    GRAPH = GraphSpec("gnp", {"n": 32, "p": 0.25})
    PROTOCOL = ProtocolSpec("decay", {})
    PINNED = (
        "d884c5e90af1ae70ab5bd025b7378e68"
        "02af16b2369e53a14be3fc7fee3817b8"
    )

    def _keys(self):
        return build_repetition_plan(
            self.GRAPH, self.PROTOCOL, repetitions=2, seed=5,
            batch_mode="exact",
        ).job_keys()

    def test_digests_identical_with_telemetry_on_or_off(self):
        off = self._keys()
        _memory_pipeline()
        on = self._keys()
        assert on == off
        # Same hard pin TestDigestStability holds: telemetry must never move it.
        assert on[0] == self.PINNED

    def test_cache_context_has_no_telemetry_key(self):
        _memory_pipeline()
        plan = build_repetition_plan(
            self.GRAPH, self.PROTOCOL, repetitions=2, seed=5
        )
        assert "telemetry" not in plan.cache_context()


# --------------------------------------------------------------------------- #
# Summarize + progress + CLI
# --------------------------------------------------------------------------- #
class TestSummarize:
    def test_file_trace_roundtrip_with_torn_tail(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        configure_telemetry(sink=FileSink(trace))
        with telemetry.span("sweep", "s", trials=2):
            with telemetry.span("cell", "c", trials=2):
                telemetry.event("progress", completed=2, total=2)
        telemetry_shutdown()
        with open(trace, "a") as fh:
            fh.write('{"type": "event", "name": "torn')  # no newline, no close
        summary = summarize_trace(trace)
        assert summary["layers"]["sweep"]["trials"] == 2
        assert summary["events"] == {"progress": 1}
        rendered = render_summary(summary)
        assert "sweep" in rendered and "span tree:" in rendered

    def test_end_without_begin_counts_as_root(self):
        summary = fold_trace([
            {"type": "span_end", "span": "x", "layer": "cell",
             "name": "late", "seconds": 1.5, "attrs": {}},
        ])
        assert summary["roots"] == ["x"]
        assert summary["layers"]["cell"]["seconds"] == 1.5

    def test_unattributed_is_root_time_not_covered_by_children(self):
        # Two root scopes: sweep "a" (2.0 s) with cells of 0.5 s and 1.0 s
        # (a shard inside one cell does not change the cells' cover), and
        # sweep "b" (0.25 s) with no children.  Uncovered: 0.5 + 0.25 s.
        def begin(span, layer, parent=None):
            return {"type": "span_begin", "span": span, "layer": layer,
                    "name": span, "parent": parent, "attrs": {}}

        def end(span, layer, seconds):
            return {"type": "span_end", "span": span, "layer": layer,
                    "name": span, "seconds": seconds, "attrs": {}}

        summary = fold_trace([
            begin("a", "sweep"),
            begin("a1", "cell", "a"),
            begin("a1s", "shard", "a1"),
            end("a1s", "shard", 0.4),
            end("a1", "cell", 0.5),
            begin("a2", "cell", "a"),
            end("a2", "cell", 1.0),
            end("a", "sweep", 2.0),
            begin("b", "sweep"),
            end("b", "sweep", 0.25),
        ])
        assert summary["unattributed_seconds"] == pytest.approx(0.75)
        rendered = render_summary(summary, tree=False)
        row = [line for line in rendered.splitlines() if "unattributed" in line]
        assert row == ["  unattributed              time=  750.0ms"]

    def test_render_includes_gauges_section(self):
        summary = fold_trace([
            {"type": "metrics",
             "metrics": {"counters": {"engine.compactions": 2},
                         "gauges": {"engine.occupancy": 0.75}}},
        ])
        rendered = render_summary(summary)
        assert "gauges:" in rendered
        assert "engine.occupancy: 0.75" in rendered
        assert "engine.compactions: 2" in rendered


class TestProgressReporter:
    def _records(self):
        return [
            {"type": "span_begin", "span": "s1", "layer": "sweep",
             "name": "demo", "attrs": {"cells": 1, "trials": 10}},
            {"type": "span_begin", "span": "s2", "layer": "cell",
             "name": "[n=8]", "attrs": {"trials": 10}},
            {"type": "event", "name": "progress",
             "attrs": {"completed": 5, "total": 10, "cache_hit_ratio": 0.4,
                       "metric": "success", "mean": 1.0, "ci_width": 0.2}},
            {"type": "span_end", "span": "s2", "layer": "cell",
             "name": "[n=8]", "seconds": 0.5,
             "attrs": {"executed": 6, "served": 4}},
            {"type": "span_end", "span": "s1", "layer": "sweep",
             "name": "demo", "seconds": 0.5, "attrs": {}},
        ]

    def test_plain_stream_gets_per_cell_lines(self):
        out = io.StringIO()
        reporter = ProgressReporter(out, live=False)
        for record in self._records():
            reporter.emit(record)
        reporter.close()
        text = out.getvalue()
        assert "5/10 trials" in text
        assert "cache 40%" in text
        assert "success=1" in text
        assert "cell [n=8] done" in text and "executed=6, cached=4" in text
        assert "sweep done: 1 cell(s)" in text

    def test_live_stream_rewrites_one_line(self):
        out = io.StringIO()
        reporter = ProgressReporter(out, live=True)
        for record in self._records():
            reporter.emit(record)
        reporter.close()
        assert "\r\x1b[2K" in out.getvalue()

    def test_sweep_emits_progress_events(self):
        """The runtime's progress cadence, exercised end to end by shrinking
        the interval (real sweeps emit every few hundred trials)."""
        from repro.scenarios import runtime

        sink = _memory_pipeline()
        old = runtime._PROGRESS_EVERY
        runtime._PROGRESS_EVERY = 2
        try:
            run_grid(SweepGrid(cells=(_decay_cell(),)), seed=1, store=False)
        finally:
            runtime._PROGRESS_EVERY = old
        progress = [
            r for r in sink.records
            if r["type"] == "event" and r["name"] == "progress"
        ]
        assert progress
        attrs = progress[-1]["attrs"]
        assert attrs["total"] == 4
        assert 0 < attrs["completed"] <= 4


class TestCli:
    def test_sweep_trace_and_summarize_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        from repro.scenarios import ScenarioSpec

        spec = ScenarioSpec(
            scenario_id="cli-smoke",
            grid=SweepGrid(cells=(_decay_cell(n=24, repetitions=2),)),
            metrics=("success",),
            seed=1,
        )
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(spec.as_dict()))
        trace = tmp_path / "trace.jsonl"
        code = main([
            "sweep", "--grid", str(grid_file),
            "--cache-dir", str(tmp_path / "cache"),
            "--telemetry", str(trace), "--no-progress",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[cache]" in out and "2 missed, 2 stored" in out
        assert f"[telemetry] trace written to {trace}" in out
        assert not telemetry.enabled()  # CLI shut its pipeline down

        code = main(["telemetry", "summarize", str(trace)])
        assert code == 0
        report = capsys.readouterr().out
        assert "sweep" in report and "cell" in report and "shard" in report
        assert "trials=2" in report
        assert "store.puts: 2" in report

    def test_summarize_json_and_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        assert main(
            ["telemetry", "summarize", str(tmp_path / "absent.jsonl")]
        ) == 1
        capsys.readouterr()

        trace = tmp_path / "t.jsonl"
        configure_telemetry(sink=FileSink(trace))
        telemetry.event("x")
        telemetry_shutdown()
        assert main(["telemetry", "summarize", str(trace), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events"] == {"x": 1}
