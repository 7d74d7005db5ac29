"""Streaming aggregation: accumulators, sketches, and equivalence with the
materialised reduction across every registry protocol.

The contract under test (the seam the scenario layer rides):

* moments (count/mean/variance/min/max) reduced *streamingly* — trial by
  trial, in any order, across checkpoint/restore boundaries — are **exactly
  equal** to the same reduction over the materialised trace list;
* the quantile sketch is exact while the sample fits its capacity and
  within tolerance beyond it;
* a resumed sweep continues its checkpointed aggregation without re-reading
  stored traces, and lands on the same numbers as an uninterrupted run.
"""

import json
import random

import numpy as np
import pytest

from repro.analysis.streaming import AccumulatorSet, MetricAccumulator, QuantileSketch
from repro.experiments.protocols import PROTOCOL_FACTORIES, ProtocolSpec
from repro.experiments.runner import build_repetition_plan, repeat_job
from repro.graphs.builders import GraphSpec
from repro.scenarios import SweepCell, run_cell
from repro.store import ResultStore


class TestMetricAccumulator:
    def test_moments_match_numpy(self):
        rng = np.random.default_rng(3)
        values = rng.normal(5.0, 2.0, size=300).tolist()
        acc = MetricAccumulator()
        acc.add_many(values)
        summary = acc.summary()
        assert summary.count == 300
        assert summary.mean == pytest.approx(np.mean(values), rel=1e-13)
        assert summary.std == pytest.approx(np.std(values, ddof=1), rel=1e-10)
        assert summary.minimum == min(values)
        assert summary.maximum == max(values)

    def test_moments_are_order_independent_bitwise(self):
        rng = np.random.default_rng(11)
        values = (rng.uniform(-1000, 1000, size=500) * rng.normal(size=500)).tolist()
        shuffled = values[:]
        random.Random(5).shuffle(shuffled)
        a, b = MetricAccumulator(), MetricAccumulator()
        a.add_many(values)
        b.add_many(shuffled)
        assert a.mean == b.mean
        assert a.variance() == b.variance()
        assert a.minimum == b.minimum and a.maximum == b.maximum

    def test_state_roundtrip_through_json_is_exact(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=100).tolist()
        acc = MetricAccumulator()
        acc.add_many(values[:60])
        restored = MetricAccumulator.from_state(
            json.loads(json.dumps(acc.state_dict()))
        )
        restored.add_many(values[60:])
        oneshot = MetricAccumulator()
        oneshot.add_many(values)
        assert restored.mean == oneshot.mean
        assert restored.variance() == oneshot.variance()
        assert restored.sketch.median() == oneshot.sketch.median()

    def test_merge_is_exact_for_moments(self):
        rng = np.random.default_rng(13)
        values = rng.normal(size=200).tolist()
        left, right, whole = (
            MetricAccumulator(),
            MetricAccumulator(),
            MetricAccumulator(),
        )
        left.add_many(values[:90])
        right.add_many(values[90:])
        whole.add_many(values)
        left.merge(right)
        assert left.count == whole.count
        assert left.mean == whole.mean
        assert left.variance() == whole.variance()

    def test_rejects_non_finite(self):
        acc = MetricAccumulator()
        with pytest.raises(ValueError):
            acc.add(float("nan"))
        with pytest.raises(ValueError):
            acc.add(float("inf"))

    def test_empty_summary(self):
        acc = MetricAccumulator()
        with pytest.raises(ValueError):
            acc.summary()
        assert acc.summary_or_none() is None


class TestQuantileSketch:
    def test_exact_below_capacity(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=50).tolist()
        sketch = QuantileSketch(capacity=64)
        for v in values:
            sketch.add(v)
        assert sketch.is_exact
        assert sketch.median() == float(np.median(values))
        for q in (0.0, 0.1, 0.25, 0.9, 1.0):
            assert sketch.quantile(q) == float(np.quantile(values, q))

    def test_bounded_memory_and_tolerance_above_capacity(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=20_000)
        sketch = QuantileSketch(capacity=256)
        for v in values:
            sketch.add(float(v))
        assert len(sketch) <= 256
        assert not sketch.is_exact
        for q in (0.1, 0.5, 0.9):
            assert sketch.quantile(q) == pytest.approx(
                float(np.quantile(values, q)), abs=0.08
            )

    def test_state_roundtrip(self):
        sketch = QuantileSketch(capacity=8)
        for v in range(30):
            sketch.add(float(v))
        back = QuantileSketch.from_state(json.loads(json.dumps(sketch.state_dict())))
        assert back.quantile(0.5) == sketch.quantile(0.5)
        assert len(back) == len(sketch)


class TestAccumulatorSet:
    def test_observe_skips_none_and_expands_lists(self):
        acc = AccumulatorSet(["a", "b"])
        acc.observe({"a": 1.0, "b": None})
        acc.observe({"a": [2.0, 3.0], "b": 4.0})
        assert acc.trials == 2
        assert acc["a"].count == 3
        assert acc["b"].count == 1
        assert acc.mean("b") == 4.0
        assert acc.mean("missing") is None


class TestVectorisedIngest:
    """Chunked ingest (``add_many`` / ``extend`` / ``observe_many``) must be
    bit-identical to the per-value path — the contract that lets the scenario
    runtime buffer samples without changing a single reduced digit."""

    def test_add_many_bitwise_equals_sequential_add(self):
        rng = np.random.default_rng(21)
        values = (rng.uniform(-1e6, 1e6, size=2000) * rng.normal(size=2000)).tolist()
        chunked, sequential = MetricAccumulator(), MetricAccumulator()
        chunked.add_many(values[:700])
        chunked.add_many(values[700:701])  # single-element chunk
        chunked.add_many([])  # empty chunk is a no-op
        chunked.add_many(values[701:])
        for v in values:
            sequential.add(v)
        assert chunked.state_dict() == sequential.state_dict()

    def test_add_many_accepts_generators_and_arrays(self):
        values = [1.5, -2.25, 3.125]
        a, b, c = MetricAccumulator(), MetricAccumulator(), MetricAccumulator()
        a.add_many(iter(values))
        b.add_many(np.array(values))
        for v in values:
            c.add(v)
        assert a.state_dict() == b.state_dict() == c.state_dict()

    def test_add_many_rejects_non_finite_atomically(self):
        acc = MetricAccumulator()
        acc.add_many([1.0, 2.0])
        before = acc.state_dict()
        with pytest.raises(ValueError):
            acc.add_many([3.0, float("nan"), 4.0])
        # All-or-nothing: the partial chunk must not have been folded in.
        assert acc.state_dict() == before

    def test_add_many_weighted_totals(self):
        acc = MetricAccumulator()
        acc.add_many([2.0, 4.0], weights=[3.0, 1.0])
        assert acc.count == 4.0
        assert acc.total == 10.0
        assert acc.mean == 2.5
        assert acc.minimum == 2.0 and acc.maximum == 4.0
        with pytest.raises(ValueError):
            acc.add_many([1.0], weights=[0.0])
        with pytest.raises(ValueError):
            acc.add_many([1.0, 2.0], weights=[1.0])

    def test_sketch_extend_bitwise_exact_below_capacity(self):
        rng = np.random.default_rng(31)
        # 10k draws over 200 distinct values: heavy duplication, lossless.
        values = rng.choice(np.linspace(-5, 5, 200), size=10_000)
        chunked, sequential = QuantileSketch(capacity=256), QuantileSketch(
            capacity=256
        )
        for start in range(0, values.size, 137):
            chunked.extend(values[start : start + 137])
        for v in values:
            sequential.add(float(v))
        assert chunked.state_dict() == sequential.state_dict()

    def test_sketch_extend_bitwise_in_lossy_regime(self):
        rng = np.random.default_rng(33)
        values = rng.normal(size=500)  # continuous: overflows capacity 64
        chunked, sequential = QuantileSketch(capacity=64), QuantileSketch(
            capacity=64
        )
        chunked.extend(values)
        for v in values:
            sequential.add(float(v))
        assert not chunked.is_exact
        assert chunked.state_dict() == sequential.state_dict()

    def test_observe_many_bitwise_equals_observe_loop(self):
        rng = np.random.default_rng(41)
        samples = []
        for t in range(300):
            samples.append(
                {
                    "a": float(rng.normal()),
                    "b": None if t % 7 == 0 else [float(rng.normal())] * 2,
                }
            )
        chunked, sequential = AccumulatorSet(["a", "b"]), AccumulatorSet(["a", "b"])
        chunked.observe_many(samples[:100])
        chunked.observe_many(samples[100:])
        for sample in samples:
            sequential.observe(sample)
        assert chunked.trials == sequential.trials == 300
        assert chunked.state_dict() == sequential.state_dict()


# --------------------------------------------------------------------------- #
# Streaming == materialised, across every registry protocol (exact mode).
# --------------------------------------------------------------------------- #
#: One workable (protocol params, graph params, job options) per registry
#: protocol.  A test pins this table's coverage to the registry, so a new
#: protocol cannot land without a streaming-equivalence case.
PROTOCOL_SWEEPS = {
    "algorithm1": ({"p": 0.15}, {"n": 64, "p": 0.15}, {"run_to_quiescence": True}),
    "algorithm2": ({"p": 0.2}, {"n": 40, "p": 0.2}, {}),
    "algorithm3": ({"diameter": 3}, {"n": 64, "p": 0.18}, {}),
    "tradeoff": ({"diameter": 3, "lam": 4.0}, {"n": 64, "p": 0.18}, {}),
    "time_invariant": (
        {"distribution": {"kind": "fixed", "q": 0.06}},
        {"n": 64, "p": 0.18},
        {},
    ),
    "decay": ({}, {"n": 64, "p": 0.18}, {}),
    "elsasser_gasieniec": ({"p": 0.18}, {"n": 64, "p": 0.18}, {}),
    "czumaj_rytter_known_d": ({"diameter": 3}, {"n": 64, "p": 0.18}, {}),
    "uniform_selection": ({"diameter": 3}, {"n": 64, "p": 0.18}, {}),
    "deterministic_flood": ({}, {"n": 48, "p": 0.2}, {}),
    "bernoulli_flood": ({"q": 0.2}, {"n": 48, "p": 0.2}, {}),
    "uniform_gossip": ({}, {"n": 24, "p": 0.3}, {}),
    "sequential_gossip": ({}, {"n": 20, "p": 0.3}, {}),
}

METRICS = (
    "success",
    "completion_round",
    "total_tx",
    "max_tx_per_node",
    "mean_tx_per_node",
)


def test_sweep_table_covers_every_registry_protocol():
    assert PROTOCOL_SWEEPS.keys() == PROTOCOL_FACTORIES.keys()


@pytest.mark.parametrize("name", sorted(PROTOCOL_SWEEPS))
def test_streaming_equals_materialised_exact_mode(name):
    """Exact-mode streaming reduction == materialised reduction, bit for bit
    on the moments, exactly on the (under-capacity) quantiles."""
    params, graph_params, options = PROTOCOL_SWEEPS[name]
    graph = GraphSpec("gnp", graph_params)
    protocol = ProtocolSpec(name, params)

    # Materialised path: hold every trace, reduce at the end.
    traces = repeat_job(
        graph,
        protocol,
        repetitions=5,
        seed=23,
        batch_mode="exact",
        store=False,
        **options,
    )
    materialised = AccumulatorSet(METRICS)
    for trace in traces:
        materialised.observe(
            {
                "success": float(trace.completed),
                "completion_round": (
                    float(trace.completion_round) if trace.completed else None
                ),
                "total_tx": float(trace.energy.total_transmissions),
                "max_tx_per_node": float(trace.energy.max_per_node),
                "mean_tx_per_node": float(trace.energy.mean_per_node),
            }
        )

    # Streaming path: the scenario cell, traces dropped as they are reduced.
    cell = SweepCell(
        coords={"protocol": name},
        graph=graph,
        protocol=protocol,
        repetitions=5,
        job_options=options,
    )
    streamed = run_cell(
        cell, seed=23, metrics=METRICS, batch_mode="exact", store=False
    )

    assert streamed.trials == materialised.trials
    for metric in METRICS:
        lhs = streamed.accumulators[metric]
        rhs = materialised[metric]
        assert lhs.count == rhs.count, metric
        if lhs.count == 0:
            continue
        assert lhs.mean == rhs.mean, metric
        assert lhs.variance() == rhs.variance(), metric
        assert lhs.minimum == rhs.minimum and lhs.maximum == rhs.maximum, metric
        assert lhs.sketch.median() == rhs.sketch.median(), metric


def test_streaming_consumes_every_trial_exactly_once(tmp_path):
    cell = SweepCell(
        coords={},
        graph=GraphSpec("gnp", {"n": 48, "p": 0.15}),
        protocol=ProtocolSpec("algorithm1", {"p": 0.15}),
        repetitions=7,
    )
    result = run_cell(
        cell, seed=5, metrics=("success",), batch_mode="exact", store=False
    )
    assert result.trials == 7
    assert result.counts == {"total": 7, "skipped": 0, "served": 0, "executed": 7}


class TestResumeContinuation:
    """Mid-sweep interruption: the checkpointed aggregation continues."""

    def _cell(self, repetitions):
        return SweepCell(
            coords={"n": 64},
            graph=GraphSpec("gnp", {"n": 64, "p": 0.12}),
            protocol=ProtocolSpec("algorithm1", {"p": 0.12}),
            repetitions=repetitions,
            job_options={"run_to_quiescence": True},
        )

    def test_resumed_aggregation_matches_uninterrupted(self, tmp_path):
        metrics = ("success", "completion_round", "total_tx")
        reference = run_cell(
            self._cell(6), seed=0, metrics=metrics, batch_mode="exact", store=False
        )

        store = ResultStore(tmp_path / "cache")
        # "Interrupted" run: the first 3 trials complete and checkpoint
        # (prefix-stable seed spawning makes them the same trials).
        run_cell(
            self._cell(3), seed=0, metrics=metrics, batch_mode="exact", store=store
        )
        resumed = run_cell(
            self._cell(6), seed=0, metrics=metrics, batch_mode="exact", store=store
        )
        assert resumed.counts["served"] == 3 and resumed.counts["executed"] == 3
        for metric in metrics:
            lhs = resumed.accumulators[metric]
            rhs = reference.accumulators[metric]
            assert lhs.count == rhs.count
            if lhs.count:
                assert lhs.mean == rhs.mean
                assert lhs.variance() == rhs.variance()

    def test_warm_rerun_skips_and_never_reads_traces(self, tmp_path):
        metrics = ("success", "total_tx")
        store = ResultStore(tmp_path / "cache")
        first = run_cell(
            self._cell(5), seed=1, metrics=metrics, batch_mode="exact", store=store
        )
        store.reset_counters()
        warm = run_cell(
            self._cell(5), seed=1, metrics=metrics, batch_mode="exact", store=store
        )
        assert warm.counts == {"total": 5, "skipped": 5, "served": 0, "executed": 0}
        # The whole point: continuation state makes trace re-reads unnecessary.
        assert store.hits == 0 and store.misses == 0
        assert warm.accumulators["total_tx"].mean == (
            first.accumulators["total_tx"].mean
        )

    def test_fast_mode_partial_checkpoint_is_discarded(self, tmp_path):
        metrics = ("success", "total_tx")
        store = ResultStore(tmp_path / "cache")
        # Fast-mode cohorts are keyed whole: a 3-trial run cannot seed a
        # 6-trial resume (different cohort), so the 6-trial run recomputes.
        run_cell(self._cell(3), seed=0, metrics=metrics, batch_mode="fast", store=store)
        full = run_cell(
            self._cell(6), seed=0, metrics=metrics, batch_mode="fast", store=store
        )
        assert full.counts["executed"] == 6
        reference = run_cell(
            self._cell(6), seed=0, metrics=metrics, batch_mode="fast", store=False
        )
        assert full.accumulators["total_tx"].mean == (
            reference.accumulators["total_tx"].mean
        )


class TestExecutionPlanStreaming:
    def test_fast_mode_partial_skip_rejected_even_without_store(self):
        plan = build_repetition_plan(
            GraphSpec("gnp", {"n": 48, "p": 0.15}),
            ProtocolSpec("algorithm1", {"p": 0.15}),
            repetitions=4,
            seed=1,
            batch_mode="fast",
            store=False,
        )
        with pytest.raises(ValueError, match="cohort-wide"):
            plan.execute_streaming(lambda i, t: None, skip_indices=[0])

    def test_resume_with_larger_sketch_capacity_recomputes(self, tmp_path):
        cell = SweepCell(
            coords={},
            graph=GraphSpec("gnp", {"n": 48, "p": 0.15}),
            protocol=ProtocolSpec("algorithm1", {"p": 0.15}),
            repetitions=4,
        )
        store = ResultStore(tmp_path)
        coarse = run_cell(
            cell, seed=3, metrics=("total_tx",), batch_mode="exact",
            store=store, sketch_capacity=4,
        )
        # A different sketch capacity is a different reduction fidelity:
        # the coarse checkpoint must not be resumed into the fine request.
        fine = run_cell(
            cell, seed=3, metrics=("total_tx",), batch_mode="exact",
            store=store, sketch_capacity=1024,
        )
        assert fine.aggregation_key != coarse.aggregation_key
        assert fine.counts["skipped"] == 0 and fine.counts["served"] == 4
        assert fine.accumulators["total_tx"].sketch.capacity == 1024

    def test_skip_indices_are_not_executed(self):
        plan = build_repetition_plan(
            GraphSpec("gnp", {"n": 48, "p": 0.15}),
            ProtocolSpec("algorithm1", {"p": 0.15}),
            repetitions=5,
            seed=9,
            batch_mode="exact",
            store=False,
        )
        seen = []
        counts = plan.execute_streaming(
            lambda index, trace: seen.append(index), skip_indices=[0, 3]
        )
        assert sorted(seen) == [1, 2, 4]
        assert counts == {"total": 5, "skipped": 2, "served": 0, "executed": 3}

    def test_streaming_traces_match_execute(self):
        plan = build_repetition_plan(
            GraphSpec("gnp", {"n": 48, "p": 0.15}),
            ProtocolSpec("algorithm1", {"p": 0.15}),
            repetitions=4,
            seed=2,
            batch_mode="exact",
            store=False,
        )
        streamed = {}
        plan.execute_streaming(lambda i, t: streamed.__setitem__(i, t))
        executed = plan.execute()
        assert sorted(streamed) == [0, 1, 2, 3]
        for index, trace in enumerate(executed):
            assert streamed[index].completion_round == trace.completion_round
            assert (
                streamed[index].energy.total_transmissions
                == trace.energy.total_transmissions
            )


# --------------------------------------------------------------------------- #
# Count-based smoke of the aggregation cell's memory shape
# (benchmarks/test_bench_aggregation.py measures the RSS)
# --------------------------------------------------------------------------- #
@pytest.fixture
def live_traces(monkeypatch):
    """Counts the :class:`RunResultTrace` objects alive at once: ``live``
    now and the ``peak`` since the test last reset it."""
    import weakref

    from repro.radio.trace import RunResultTrace

    counts = {"live": 0, "peak": 0}
    init = RunResultTrace.__init__

    def release() -> None:
        counts["live"] -= 1

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        counts["live"] += 1
        counts["peak"] = max(counts["peak"], counts["live"])
        weakref.finalize(self, release)

    monkeypatch.setattr(RunResultTrace, "__init__", counting_init)
    return counts


class TestTraceMemoryShape:
    """The streaming path holds at most one shard's traces; ``repeat_job``
    holds all R."""

    R = 96
    SHARDS = 4
    GRAPH = GraphSpec("gnp", {"n": 24, "p": 0.6})
    CELL = SweepCell(
        coords={}, graph=GRAPH, protocol=ProtocolSpec("decay", {}), repetitions=R
    )

    @pytest.mark.parametrize("batch_mode", ["fast", "exact"])
    def test_streaming_cell_holds_at_most_one_shard(self, live_traces, batch_mode):
        result = run_cell(
            self.CELL,
            metrics=("success", "total_tx"),
            shards=self.SHARDS,
            store=False,
            batch_mode=batch_mode,
        )
        assert result.trials == self.R
        assert live_traces["peak"] <= self.R // self.SHARDS
        assert live_traces["live"] == 0

    @pytest.mark.parametrize("batch_mode", ["fast", "exact"])
    def test_warm_cell_holds_one_served_trace_at_a_time(
        self, tmp_path, live_traces, batch_mode
    ):
        store = ResultStore(tmp_path)
        options = dict(shards=self.SHARDS, store=store, batch_mode=batch_mode)
        run_cell(self.CELL, metrics=("success",), **options)
        live_traces["peak"] = live_traces["live"]
        # Another metric set: every trial is read back from the store.
        run_cell(self.CELL, metrics=("success", "total_tx"), **options)
        assert store.hits == self.R
        assert live_traces["peak"] == 1

    @pytest.mark.parametrize("batch_mode", ["fast", "exact"])
    def test_repeat_job_holds_every_trace(self, live_traces, batch_mode):
        traces = repeat_job(
            self.GRAPH,
            ProtocolSpec("decay", {}),
            repetitions=self.R,
            shards=self.SHARDS,
            store=False,
            batch_mode=batch_mode,
        )
        assert live_traces["live"] == len(traces) == self.R
        assert live_traces["peak"] >= self.R
