"""Tests for the sweep orchestration service: result store + job queue.

Covers the three guarantees the subsystem makes:

* **content addressing** — canonical digests ignore dict ordering and numpy
  scalar types, change with :data:`~repro.store.ENGINE_VERSION`, and the
  store round-trips full-fidelity traces;
* **resumability** — a sweep killed mid-shard keeps its completed shards,
  and the resumed exact-mode sweep aggregates bit-identically to an
  uninterrupted run;
* **queue robustness** — worker death retries on a fresh pool and degrades
  to in-process execution instead of failing the sweep.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
import os
from collections import OrderedDict
from dataclasses import replace
from types import MappingProxyType
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.runner as runner_module
from repro.experiments.protocols import ProtocolSpec
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import (
    ExecutionPlan,
    Job,
    aggregate_runs,
    build_repetition_plan,
    configure_execution,
    job_store_key,
    repeat_job,
)
from repro.graphs.builders import GraphSpec
import repro.jobs.queue as queue_module
from repro.jobs import (
    InProcessBackend,
    JobQueue,
    ProcessPoolBackend,
    WorkerPoolError,
)
from repro.radio.energy import EnergyReport
from repro.radio.trace import RoundRecord, RunResultTrace
from repro.store import (
    SEED_SLOT,
    ResultStore,
    canonical_dumps,
    canonicalize,
    seeded_digests,
    trial_digest,
)
from repro.store import keys as keys_module

GRAPH = GraphSpec("gnp", {"n": 64, "p": 0.15})
PROTOCOL = ProtocolSpec("algorithm1", {"p": 0.15})
SWEEP = dict(repetitions=6, seed=0, run_to_quiescence=True, batch_mode="exact")


def _sweep(**overrides):
    kw = dict(SWEEP)
    kw.update(overrides)
    return repeat_job(GRAPH, PROTOCOL, **kw)


def assert_traces_equal(a: RunResultTrace, b: RunResultTrace) -> None:
    assert a.protocol_name == b.protocol_name
    assert a.network_name == b.network_name
    assert a.n == b.n
    assert a.completed == b.completed
    assert a.completion_round == b.completion_round
    assert a.rounds_executed == b.rounds_executed
    assert a.energy == b.energy
    assert a.informed_count == b.informed_count
    assert a.rounds == b.rounds
    assert a.metadata == b.metadata


def _aggregate_result(runs) -> ExperimentResult:
    agg = aggregate_runs(runs)
    return ExperimentResult(
        experiment_id="E0",
        title="resume check",
        claim="aggregates are path-independent",
        columns=["runs", "success_rate", "rounds_mean", "total_tx_mean"],
        rows=[
            [
                agg["runs"],
                agg["success_rate"],
                agg["completion_rounds"].mean,
                agg["total_transmissions"].mean,
            ]
        ],
    )


# --------------------------------------------------------------------------- #
# Canonical keys
# --------------------------------------------------------------------------- #
class TestKeys:
    def test_dict_order_is_canonicalised(self):
        a = {"graph": {"n": 64, "p": 0.5}, "seed": 3}
        b = {"seed": 3, "graph": {"p": 0.5, "n": 64}}
        assert trial_digest(a) == trial_digest(b)

    def test_numpy_scalars_digest_like_python_values(self):
        a = {"n": 64, "p": 0.25, "flag": True, "xs": [1, 2]}
        b = {
            "n": np.int64(64),
            "p": np.float64(0.25),
            "flag": np.bool_(True),
            "xs": np.array([1, 2]),
        }
        assert trial_digest(a) == trial_digest(b)
        assert canonical_dumps(a) == canonical_dumps(b)

    def test_tuples_digest_like_lists(self):
        assert trial_digest({"xs": (1, 2)}) == trial_digest({"xs": [1, 2]})

    def test_different_payloads_differ(self):
        assert trial_digest({"seed": 1}) != trial_digest({"seed": 2})

    def test_engine_version_bump_invalidates_keys(self, monkeypatch):
        payload = {"seed": 1}
        before = trial_digest(payload)
        monkeypatch.setattr(keys_module, "ENGINE_VERSION", "bumped")
        assert trial_digest(payload) != before

    def test_unserialisable_value_rejected(self):
        with pytest.raises(TypeError):
            trial_digest({"bad": object()})

    def test_label_excluded_from_job_key(self):
        job = Job(graph=GRAPH, protocol=PROTOCOL, seed=5, label="a")
        relabelled = Job(graph=GRAPH, protocol=PROTOCOL, seed=5, label="b")
        context = {"batch_mode": "exact", "state_backend": "auto"}
        assert job_store_key(job, context) == job_store_key(relabelled, context)

    def test_seeded_digests_match_trial_digest(self):
        template = {"job": {"seed": SEED_SLOT, "n": 3, "xs": [SEED_SLOT[1:]]}}
        seeds = [0, 7, -12, 2**64 + 1, np.int64(5), np.uint32(9)]
        expected = [
            trial_digest({"job": {"seed": int(s), "n": 3, "xs": ["seed\0"]}})
            for s in seeds
        ]
        assert seeded_digests(template, seeds) == expected

    @pytest.mark.parametrize(
        "template",
        [{"seed": 1}, {"seed": SEED_SLOT, "other": SEED_SLOT}],
        ids=["no-slot", "two-slots"],
    )
    def test_seeded_digests_need_exactly_one_slot(self, template):
        with pytest.raises(ValueError, match="exactly one seed slot"):
            seeded_digests(template, [1])


def _reference_canonicalize(value):
    """The recursive ``isinstance`` chain ``canonicalize`` must agree with."""
    if isinstance(value, Mapping):
        return {
            str(k): _reference_canonicalize(value[k])
            for k in sorted(value, key=str)
        }
    if isinstance(value, (list, tuple)):
        return [_reference_canonicalize(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_reference_canonicalize(v) for v in value.tolist()]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"value of type {type(value).__name__} cannot be part of a cache key"
    )


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 2


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    _FLOATS,
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.text(max_size=6),
    st.sampled_from(list(Colour)),
    st.booleans().map(np.bool_),
    st.integers(min_value=-(2**31), max_value=2**31 - 1).map(np.int32),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.floats(width=32, allow_nan=True, allow_infinity=True).map(np.float32),
    _FLOATS.map(np.float64),
    st.lists(st.integers(-5, 5), max_size=4).map(np.array),
    st.lists(_FLOATS, max_size=4).map(lambda xs: np.array(xs, dtype=float)),
    st.lists(st.booleans(), min_size=4, max_size=4).map(
        lambda xs: np.array(xs).reshape(2, 2)
    ),
)
_KEYS = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.sampled_from(list(Colour)))
_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
        st.dictionaries(_KEYS, children, max_size=4).map(OrderedDict),
        st.dictionaries(_KEYS, children, max_size=4).map(MappingProxyType),
    ),
    max_leaves=12,
)


class TestCanonicalizeEquivalence:
    """``canonicalize`` dispatches on exact built-in types before its
    ``isinstance`` chain; its output must not move."""

    @settings(max_examples=300, deadline=None)
    @given(_VALUES)
    def test_matches_reference(self, value):
        ours = canonicalize(value)
        reference = _reference_canonicalize(value)
        assert repr(ours) == repr(reference)
        assert json.dumps(ours, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    @pytest.mark.parametrize(
        "value", [{1, 2}, object(), {"nested": [frozenset()]}], ids=repr
    )
    def test_unsupported_types_raise(self, value):
        with pytest.raises(TypeError, match="cannot be part of a cache key"):
            canonicalize(value)
        with pytest.raises(TypeError):
            _reference_canonicalize(value)


# --------------------------------------------------------------------------- #
# Result store
# --------------------------------------------------------------------------- #
class TestResultStore:
    def _trace(self) -> RunResultTrace:
        return RunResultTrace(
            protocol_name="p",
            network_name="net",
            n=4,
            completed=True,
            completion_round=7,
            rounds_executed=7,
            energy=EnergyReport(5, 1, 1.25, 1.0, 2.0, 4, 4),
            informed_count=4,
            per_node_transmissions=np.array([1, 2, 1, 1], dtype=np.int64),
            informed_round=np.array([0, 1, 2, 3], dtype=np.int64),
            rounds=[RoundRecord(0, 1, 2, 2, 3)],
            metadata={"p": 0.5, "active_history": [1, 2, 3]},
        )

    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        payload = self._trace().to_payload()
        assert store.put("ab" + "0" * 62, payload)
        back = RunResultTrace.from_payload(store.get("ab" + "0" * 62))
        assert_traces_equal(back, self._trace())
        assert np.array_equal(
            back.per_node_transmissions, self._trace().per_node_transmissions
        )
        assert np.array_equal(back.informed_round, self._trace().informed_round)
        assert back.per_node_transmissions.dtype == np.int64

    def test_reput_is_dropped(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "cd" + "0" * 62
        assert store.put(key, {"x": 1})
        assert not store.put(key, {"x": 1})
        assert store.stats()["entries"] == 1

    def test_persists_across_instances(self, tmp_path):
        ResultStore(tmp_path).put("ef" + "0" * 62, {"x": 1})
        assert ResultStore(tmp_path).get("ef" + "0" * 62) == {"x": 1}

    def test_counters(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("ab" + "0" * 62, {"x": 1})
        store.get("ab" + "0" * 62)
        store.get("ff" + "0" * 62)
        assert (store.hits, store.misses) == (1, 1)
        store.reset_counters()
        assert (store.hits, store.misses) == (0, 0)

    def test_torn_final_line_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("ab" + "0" * 62, {"x": 1})
        store.put("ab" + "1" * 62, {"x": 2})
        shard = tmp_path / "results-ab.jsonl"
        with open(shard, "a", encoding="utf-8") as handle:
            handle.write('{"key": "ab222", "payload": {"x":')  # killed mid-write
        fresh = ResultStore(tmp_path)
        assert fresh.get("ab" + "0" * 62) == {"x": 1}
        assert fresh.get("ab" + "1" * 62) == {"x": 2}
        assert fresh.stats()["entries"] == 2

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("ab" + "0" * 62, {"x": 1})
        store.put("cd" + "0" * 62, {"x": 2})
        assert store.clear() == 2
        assert store.stats()["entries"] == 0
        assert store.get("ab" + "0" * 62) is None

    def test_prune_drops_stale_engine_versions(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("ab" + "0" * 62, {"x": 1})
        # Hand-write a record from an older engine (its key can never hit —
        # the version is part of the digest — so prune may drop it).
        stale = {"key": "ab" + "9" * 62, "engine_version": "0.1", "payload": {}}
        with open(tmp_path / "results-ab.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps(stale) + "\n")
        fresh = ResultStore(tmp_path)
        assert fresh.stats()["stale_entries"] == 1
        assert fresh.prune() == 1
        stats = fresh.stats()
        assert (stats["entries"], stats["stale_entries"]) == (1, 0)
        assert fresh.get("ab" + "0" * 62) == {"x": 1}


# --------------------------------------------------------------------------- #
# Job queue
# --------------------------------------------------------------------------- #
def _square(x):
    return x * x


def _die_unless_marker(task):
    """Kill the worker process hard on first sight of each marker path."""
    marker, value = task
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("seen")
        os._exit(13)
    return value


def _die_outside_parent(task):
    """Kill any process that is not the one that created the task."""
    parent_pid, value = task
    if os.getpid() != parent_pid:
        os._exit(13)
    return value


class TestJobQueue:
    def test_in_process_order_and_callback(self):
        queue = JobQueue(InProcessBackend())
        seen = []
        results = queue.run(
            _square, [1, 2, 3], on_result=lambda i, r: seen.append((i, r))
        )
        assert results == [1, 4, 9]
        assert seen == [(0, 1), (1, 4), (2, 9)]
        assert queue.stats.completed == 3

    def test_process_pool_runs(self):
        queue = JobQueue(ProcessPoolBackend(2))
        assert queue.run(_square, [1, 2, 3, 4]) == [1, 4, 9, 16]

    def test_worker_death_is_retried(self, tmp_path):
        backend = ProcessPoolBackend(2, max_retries=2)
        tasks = [(str(tmp_path / f"marker-{i}"), i) for i in range(3)]
        results = JobQueue(backend).run(_die_unless_marker, tasks)
        assert results == [0, 1, 2]
        assert backend.stats.worker_deaths >= 1
        assert backend.stats.retried_tasks >= 1

    def test_exhausted_retries_fall_back_in_process(self):
        backend = ProcessPoolBackend(2, max_retries=0)
        tasks = [(os.getpid(), i) for i in range(3)]
        results = JobQueue(backend).run(_die_outside_parent, tasks)
        assert results == [0, 1, 2]
        assert backend.stats.worker_deaths == 1
        assert backend.stats.in_process_fallbacks == 3

    def test_task_exceptions_propagate(self):
        queue = JobQueue(ProcessPoolBackend(2, max_retries=2))
        with pytest.raises(ZeroDivisionError):
            queue.run(_reciprocal, [1, 0])

    def test_exhausted_retries_name_poisoned_tasks(self):
        backend = ProcessPoolBackend(
            2, max_retries=1, retry_backoff=0.0, in_process_fallback=False
        )
        tasks = [(os.getpid(), i) for i in range(2)]
        with pytest.raises(WorkerPoolError) as excinfo:
            JobQueue(backend).run(
                _die_outside_parent, tasks, task_labels=["cell-aaaa", "cell-bbbb"]
            )
        message = str(excinfo.value)
        assert "max_retries=1" in message
        assert "cell-aaaa" in message and "cell-bbbb" in message

    def test_retry_backoff_is_exponential(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(queue_module.time, "sleep", sleeps.append)
        backend = ProcessPoolBackend(2, max_retries=3, retry_backoff=0.25)
        tasks = [(os.getpid(), i) for i in range(2)]
        results = JobQueue(backend).run(_die_outside_parent, tasks)
        assert results == [0, 1]
        assert sleeps == [0.25, 0.5, 1.0]

    def test_backend_parameter_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            ProcessPoolBackend(2, max_retries=-1)
        with pytest.raises(ValueError, match="retry_backoff"):
            ProcessPoolBackend(2, retry_backoff=-0.5)
        with pytest.raises(ValueError, match="task_labels"):
            JobQueue(InProcessBackend()).run(
                _square, [1, 2, 3], task_labels=["only-one"]
            )


def _reciprocal(x):
    return 1 / x


# --------------------------------------------------------------------------- #
# Resumable sweeps
# --------------------------------------------------------------------------- #
class TestResumableSweeps:
    def test_warm_rerun_executes_zero_engine_shards(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        cold = _sweep(store=store)
        store.reset_counters()

        def engine_must_not_run(shard):
            raise AssertionError("engine ran during a fully warm sweep")

        monkeypatch.setattr(
            runner_module, "_execute_batch_shard", engine_must_not_run
        )
        warm = _sweep(store=store)
        assert store.misses == 0 and store.hits == len(cold)
        for a, b in zip(cold, warm):
            assert_traces_equal(a, b)

    def test_interrupted_sweep_resumes_bit_identically(self, tmp_path, monkeypatch):
        # record_rounds keeps the in-process exact sweep on its per-shard
        # path (one wave per shard through _execute_batch_shard): the
        # per-round log is kept by row, so its rows never move.  The
        # continuous stream checkpoints per trial instead, which
        # tests/test_compaction.py covers.
        baseline = _sweep(record_rounds=True)  # uninterrupted, uncached
        store = ResultStore(tmp_path)

        real = runner_module._execute_batch_shard
        calls = {"n": 0}

        def dies_mid_sweep(shard, result_sink=None):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt("simulated worker death mid-shard")
            return real(shard, result_sink)

        monkeypatch.setattr(runner_module, "_execute_batch_shard", dies_mid_sweep)
        with pytest.raises(KeyboardInterrupt):
            _sweep(store=store, shards=3, record_rounds=True)
        monkeypatch.setattr(runner_module, "_execute_batch_shard", real)

        # The completed first shard (2 of 6 trials) survived the crash.
        assert store.stats()["entries"] == 2
        store.reset_counters()
        resumed = _sweep(store=store, shards=3, record_rounds=True)
        assert store.hits == 2 and store.misses == 4
        for a, b in zip(baseline, resumed):
            assert_traces_equal(a, b)
        # The aggregated ExperimentResult is byte-equal to the uninterrupted
        # run's.
        assert (
            _aggregate_result(resumed).to_json()
            == _aggregate_result(baseline).to_json()
        )

    def test_resume_is_bit_identical_across_sharding(self, tmp_path):
        baseline = _sweep(processes=None)
        store = ResultStore(tmp_path)
        partial = repeat_job(
            GRAPH, PROTOCOL, **{**SWEEP, "repetitions": 3}, store=store
        )
        resumed = _sweep(store=store, shards=4)
        for a, b in zip(baseline[:3], partial):
            assert_traces_equal(a, b)
        for a, b in zip(baseline, resumed):
            assert_traces_equal(a, b)

    def test_labels_reattach_on_cache_hits(self, tmp_path):
        store = ResultStore(tmp_path)
        _sweep(repetitions=2, label="first", store=store)
        store.reset_counters()
        cached = _sweep(repetitions=2, label="second", store=store)
        # Relabelled jobs still dedup: the label is not part of the key.
        assert (store.hits, store.misses) == (2, 0)
        assert [r.metadata["label"] for r in cached] == ["second", "second"]
        assert [r.metadata["job"]["label"] for r in cached] == [
            "second",
            "second",
        ]

    def test_fast_mode_cache_is_all_or_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        kw = dict(repetitions=4, seed=0, run_to_quiescence=True, store=store)
        first = repeat_job(GRAPH, PROTOCOL, **kw)
        warm = repeat_job(GRAPH, PROTOCOL, **kw)
        for a, b in zip(first, warm):
            assert_traces_equal(a, b)
        # A different cohort (more repetitions) must not bit-mix with the
        # cached four-trial sweep: its keys embed the cohort entropy.
        store.reset_counters()
        repeat_job(GRAPH, PROTOCOL, **{**kw, "repetitions": 6})
        assert store.hits == 0

    def test_interrupted_fast_sweep_discards_partial_hits(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path)
        kw = dict(
            repetitions=4, seed=0, run_to_quiescence=True, store=store, shards=2
        )
        real = runner_module._execute_batch_shard
        calls = {"n": 0}

        def dies_mid_sweep(shard, result_sink=None):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt("simulated death mid fast sweep")
            return real(shard, result_sink)

        monkeypatch.setattr(runner_module, "_execute_batch_shard", dies_mid_sweep)
        with pytest.raises(KeyboardInterrupt):
            repeat_job(GRAPH, PROTOCOL, **kw)
        monkeypatch.setattr(runner_module, "_execute_batch_shard", real)
        assert store.stats()["entries"] == 2  # first shard survived

        # The partial cohort cannot be extended bit-faithfully: the resumed
        # run recomputes everything, and the counters say so (the discarded
        # probe hits are reclassified as misses).
        store.reset_counters()
        uncached = repeat_job(
            GRAPH, PROTOCOL, repetitions=4, seed=0, run_to_quiescence=True,
            shards=2,
        )
        resumed = repeat_job(GRAPH, PROTOCOL, **kw)
        assert store.hits == 0 and store.misses == 4
        for a, b in zip(uncached, resumed):
            assert_traces_equal(a, b)

    def test_ambient_store_via_configure_execution(self, tmp_path):
        try:
            configure_execution(store=ResultStore(tmp_path))
            _sweep()
            store = runner_module._EXECUTION_DEFAULTS.store
            assert store.misses == 6
            store.reset_counters()
            _sweep()
            assert (store.hits, store.misses) == (6, 0)
        finally:
            configure_execution(store=None)
        # With the ambient store cleared, sweeps recompute.
        assert runner_module._EXECUTION_DEFAULTS.store is None

    def test_explicit_false_disables_ambient_store(self, tmp_path):
        try:
            store = ResultStore(tmp_path)
            configure_execution(store=store)
            _sweep(store=False)
            assert store.hits == 0 and store.misses == 0
        finally:
            configure_execution(store=None)

    def test_record_rounds_traces_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        kw = dict(SWEEP, repetitions=3, record_rounds=True)
        cold = repeat_job(GRAPH, PROTOCOL, **kw, store=store)
        warm = repeat_job(GRAPH, PROTOCOL, **kw, store=store)
        assert all(r.rounds for r in cold)
        for a, b in zip(cold, warm):
            assert_traces_equal(a, b)
            assert np.array_equal(a.informed_curve(), b.informed_curve())


# --------------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------------- #
class TestExecuteMatchesStreaming:
    """``ExecutionPlan.execute()`` and ``execute_streaming()`` serve the same
    traces bit for bit and move the store counters identically, with no
    store, a cold store, a partial hit and a full hit, in process and under
    process fan-out."""

    REPETITIONS = 6
    PARTIAL = (0, 2, 3)
    #: ``(hits, misses)`` per ``(batch_mode, store state)``.  A partial
    #: fast-mode hit set is recomputed whole and counted as misses.
    COUNTERS = {
        ("exact", "cold"): (0, 6),
        ("exact", "partial"): (3, 3),
        ("exact", "full"): (6, 0),
        ("fast", "cold"): (0, 6),
        ("fast", "partial"): (0, 6),
        ("fast", "full"): (6, 0),
    }

    def _store(self, root, state, keys, reference):
        if state == "none":
            return None
        store = ResultStore(root)
        stored = {
            "cold": (),
            "partial": self.PARTIAL,
            "full": range(self.REPETITIONS),
        }[state]
        for index in stored:
            store.put(
                keys[index], runner_module._trace_store_payload(reference[index])
            )
        store.reset_counters()
        return store

    @pytest.mark.parametrize(
        "processes", [None, 2], ids=["in-process", "processes2"]
    )
    @pytest.mark.parametrize("state", ["none", "cold", "partial", "full"])
    @pytest.mark.parametrize("batch_mode", ["fast", "exact"])
    def test_same_traces_and_store_counters(
        self, tmp_path, batch_mode, state, processes
    ):
        def plan(store):
            return build_repetition_plan(
                GRAPH,
                PROTOCOL,
                repetitions=self.REPETITIONS,
                seed=0,
                run_to_quiescence=True,
                batch_mode=batch_mode,
                processes=processes,
                store=False if store is None else store,
            )

        reference = plan(None).execute()
        keys = plan(None).job_keys()
        store_a = self._store(tmp_path / "a", state, keys, reference)
        store_b = self._store(tmp_path / "b", state, keys, reference)

        collected = plan(store_a).execute()
        streamed = {}
        counts = plan(store_b).execute_streaming(streamed.__setitem__)
        assert sorted(streamed) == list(range(self.REPETITIONS))

        def bits(traces):
            return [canonical_dumps(trace.to_payload()) for trace in traces]

        expected = bits(reference)
        assert bits(collected) == expected
        assert bits(streamed[i] for i in range(self.REPETITIONS)) == expected
        if store_a is None:
            assert counts["executed"] == self.REPETITIONS
            return
        hits, misses = self.COUNTERS[(batch_mode, state)]
        assert (store_a.hits, store_a.misses) == (hits, misses)
        assert (store_b.hits, store_b.misses) == (hits, misses)
        assert store_a.puts == store_b.puts
        assert counts["served"] == hits
        assert counts["executed"] == self.REPETITIONS - hits

    @pytest.mark.parametrize(
        "processes", [None, 2], ids=["in-process", "processes2"]
    )
    def test_sharded_fast_plan_reruns_identically(self, processes):
        # Running one plan twice must draw the cohorts its store keys name,
        # so the per-shard fast seeds cannot depend on how often they were
        # derived before.
        plan = build_repetition_plan(
            GRAPH,
            PROTOCOL,
            repetitions=self.REPETITIONS,
            seed=0,
            run_to_quiescence=True,
            processes=processes,
            shards=3,
            store=False,
        )
        first = [canonical_dumps(t.to_payload()) for t in plan.execute()]
        second = [canonical_dumps(t.to_payload()) for t in plan.execute()]
        assert first == second


def _sha256_of_files(paths) -> str:
    """One digest over the names and bytes of ``paths``, in name order."""
    digest = hashlib.sha256()
    for path in sorted(paths, key=lambda p: p.name):
        digest.update(path.name.encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


IID_LOSS = {"name": "iid_loss", "params": {"tx_loss": 0.1, "rx_loss": 0.15}}

#: ``(graph, protocol)`` per topology family of the key pins.
KEY_PIN_SWEEPS = {
    "gnp": (GRAPH, PROTOCOL),
    "grid": (GraphSpec("grid", {"rows": 4, "cols": 5}), ProtocolSpec("decay", {})),
    "path_of_cliques": (
        GraphSpec("path_of_cliques", {"num_cliques": 3, "clique_size": 4}),
        ProtocolSpec("deterministic_flood", {}),
    ),
}


class TestStoreBytePins:
    """Store keys and on-disk bytes are pinned: a key-encoding or checkpoint
    change that moves any of them orphans every stored result.  A moved
    value here needs an ENGINE_VERSION bump, not a new pin."""

    #: sha256 over the newline-joined ``job_keys()`` of each key-pin plan.
    KEY_PINS = {
        ("gnp", "exact", 1): (
            "a9277d8cc10ce60d65d14b321f391737"
            "ed38008d28cafb93d6abecc08669b7c2"
        ),
        ("gnp", "exact", 3): (
            "a9277d8cc10ce60d65d14b321f391737"
            "ed38008d28cafb93d6abecc08669b7c2"
        ),
        ("gnp", "fast", 1): (
            "d799eee36d981abf33a11b36115097b3"
            "13abffd512f88b75bf6d972cc316896f"
        ),
        ("gnp", "fast", 3): (
            "a5ac647c981092cf61bce72f5d1d0482"
            "8e62c936ebec177c14d8f9c1723522fd"
        ),
        ("grid", "exact", 1): (
            "42742a7866e475672974f8184adc3b42"
            "0ce8f5a36072490b132356dc829368e2"
        ),
        ("grid", "exact", 3): (
            "42742a7866e475672974f8184adc3b42"
            "0ce8f5a36072490b132356dc829368e2"
        ),
        ("grid", "fast", 1): (
            "8b38830df0335388e9387ed391758541"
            "54e9d0cc4f73e1930bb506b3dafa04c9"
        ),
        ("grid", "fast", 3): (
            "536919d5021643acd43a299ceabf56d8"
            "bd5acb760e24142d245d7b57a4d18144"
        ),
        ("path_of_cliques", "exact", 1): (
            "ae68ffe225f53c1c9b1510535a618023"
            "1ed9270e2fbd368c6906b8d6cd63cd92"
        ),
        ("path_of_cliques", "exact", 3): (
            "ae68ffe225f53c1c9b1510535a618023"
            "1ed9270e2fbd368c6906b8d6cd63cd92"
        ),
        ("path_of_cliques", "fast", 1): (
            "3ca8661d576195ed4c08d46509b109e9"
            "d8b07ac813049f491c12444a2d4d8518"
        ),
        ("path_of_cliques", "fast", 3): (
            "4c35ef5ccfd9fb94d4e00ba2da4da015"
            "f2f9057f8f317079fc4e10ae4d0d9ff0"
        ),
        ("environment", "exact", 1): (
            "ed6090278f0d407d1cdbc525554b6efe"
            "6b2807da2ab55ba6d97e006686be0ffc"
        ),
        ("labelled", "exact", 1): (
            "a9277d8cc10ce60d65d14b321f391737"
            "ed38008d28cafb93d6abecc08669b7c2"
        ),
        ("np_int64_seed", "exact", 1): (
            "a9277d8cc10ce60d65d14b321f391737"
            "ed38008d28cafb93d6abecc08669b7c2"
        ),
    }
    RESULTS_PIN = (
        "c37713ffa42c9247bad4e6e7ab098267"
        "cdd9e1a91f61ea0b3b958ee0995a51aa"
    )
    INTERRUPTED_AGGREGATES_PIN = (
        "3e1ebaed896815b4a935855634307b82"
        "b87f49c98dd4ee490e5f4f524298673c"
    )
    RESUMED_AGGREGATES_PIN = (
        "742e0dbbf33b0a86263291821fb86fa8"
        "6b875f86b2787c54a513a8ce70d4bff6"
    )

    @staticmethod
    def _plan(case, batch_mode, shards):
        graph, protocol = KEY_PIN_SWEEPS.get(case, (GRAPH, PROTOCOL))
        options = {"environment": IID_LOSS} if case == "environment" else {}
        plan = build_repetition_plan(
            graph,
            protocol,
            repetitions=5,
            seed=11,
            batch_mode=batch_mode,
            shards=shards,
            store=False,
            run_to_quiescence=True,
            **options,
        )
        if case == "labelled":
            jobs = tuple(
                replace(job, label=f"trial-{i}") for i, job in enumerate(plan.jobs)
            )
            plan = replace(plan, jobs=jobs)
        elif case == "np_int64_seed":
            jobs = tuple(replace(job, seed=np.int64(job.seed)) for job in plan.jobs)
            plan = replace(plan, jobs=jobs)
        return plan

    @pytest.mark.parametrize("case,batch_mode,shards", sorted(KEY_PINS))
    def test_job_keys_pinned(self, case, batch_mode, shards):
        plan = self._plan(case, batch_mode, shards)
        context = plan.cache_context()
        reference = []
        for job in plan.jobs:
            body = job.as_dict()
            body.pop("label")
            reference.append(trial_digest({"job": body, "context": context}))
        keys = plan.job_keys()
        assert keys == reference
        assert [job_store_key(job, context) for job in plan.jobs] == reference
        pinned = hashlib.sha256("\n".join(keys).encode("utf-8")).hexdigest()
        assert pinned == self.KEY_PINS[(case, batch_mode, shards)]

    def test_results_files_pinned(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        repeat_job(
            GraphSpec("gnp", {"n": 24, "p": 0.25}),
            ProtocolSpec("algorithm1", {"p": 0.25}),
            repetitions=4,
            seed=3,
            batch_mode="exact",
            keep_arrays=True,
            record_rounds=True,
            environment=IID_LOSS,
            store=store,
        )
        files = list((tmp_path / "cache").glob("results-*.jsonl"))
        assert store.puts == 4 and files
        assert _sha256_of_files(files) == self.RESULTS_PIN

    def test_resumed_aggregation_checkpoints_pinned(self, tmp_path, monkeypatch):
        import repro.scenarios.runtime as runtime_module
        from repro.scenarios import SweepCell, run_cell

        cell = SweepCell(
            coords={"cell": "pin"},
            graph=GraphSpec("path_of_cliques", {"num_cliques": 3, "clique_size": 4}),
            protocol=ProtocolSpec("decay", {}),
            repetitions=150,
        )
        options = dict(
            seed=7,
            metrics=("success", "completion_round", "total_tx"),
            batch_mode="exact",
            store=ResultStore(tmp_path / "cache"),
        )
        real_extract = runtime_module.extract_sample
        calls = []

        class Interrupted(Exception):
            pass

        def interrupting_extract(*args):
            calls.append(None)
            if len(calls) > 100:
                raise Interrupted
            return real_extract(*args)

        monkeypatch.setattr(runtime_module, "extract_sample", interrupting_extract)
        with pytest.raises(Interrupted):
            run_cell(cell, **options)
        monkeypatch.setattr(runtime_module, "extract_sample", real_extract)
        aggregates = tmp_path / "cache" / "aggregates"
        interrupted = _sha256_of_files(aggregates.glob("*.json"))
        resumed = run_cell(cell, **options)
        # The checkpoint at 64 trials survives; trial 101 was stored just
        # before its reduction raised.
        assert resumed.counts == {
            "total": 150,
            "skipped": 64,
            "served": 37,
            "executed": 49,
        }
        assert resumed.trials == 150
        assert interrupted == self.INTERRUPTED_AGGREGATES_PIN
        assert _sha256_of_files(aggregates.glob("*.json")) == (
            self.RESUMED_AGGREGATES_PIN
        )


class TestPlanHomogeneity:
    """A plan runs every job with job 0's protocol and engine options but
    stores each result under its own job's key, so jobs that differ in
    anything but seed and label are refused."""

    @pytest.mark.parametrize(
        "field,value",
        [
            ("graph", GraphSpec("gnp", {"n": 32, "p": 0.15})),
            ("protocol", ProtocolSpec("decay", {})),
            ("max_rounds", 50),
            ("environment", IID_LOSS),
        ],
    )
    def test_mixed_plan_rejected(self, field, value):
        jobs = [Job(graph=GRAPH, protocol=PROTOCOL, seed=s) for s in range(3)]
        jobs[2] = replace(jobs[2], **{field: value})
        with pytest.raises(ValueError, match=f"job 2 differs from job 0 in {field}"):
            ExecutionPlan(jobs=tuple(jobs))

    def test_equal_specs_with_other_seeds_and_labels_accepted(self):
        jobs = tuple(
            Job(
                graph=GraphSpec("gnp", {"n": 64, "p": 0.15}),
                protocol=ProtocolSpec("algorithm1", {"p": 0.15}),
                seed=s,
                environment=dict(IID_LOSS),
                label=f"t{s}",
            )
            for s in range(3)
        )
        assert len(ExecutionPlan(jobs=jobs).job_keys()) == 3


class TestStoreWorkCounters:
    """Per-trial store bookkeeping is O(1): one canonical encoding per plan,
    and a checkpoint mask maintained as trials are consumed."""

    def test_job_keys_canonicalise_once_per_plan(self, monkeypatch):
        plan = build_repetition_plan(
            GRAPH, PROTOCOL, repetitions=10_000, seed=2, batch_mode="exact", store=False
        )
        calls = []
        real_dumps = keys_module.canonical_dumps

        def counting_dumps(payload):
            calls.append(None)
            return real_dumps(payload)

        monkeypatch.setattr(keys_module, "canonical_dumps", counting_dumps)
        keys = plan.job_keys()
        assert len(calls) == 1
        assert len(set(keys)) == 10_000
        context = plan.cache_context()
        for index in (0, 4_999, 9_999):
            assert keys[index] == job_store_key(plan.jobs[index], context)

    def test_checkpoint_masks_match_done_indices(self, tmp_path, monkeypatch):
        from repro.scenarios import SweepCell, run_cell
        from repro.store import AggregateStore

        consumed = []
        saved = []
        real_streaming = ExecutionPlan.execute_streaming
        real_save = AggregateStore.save

        def recording_streaming(plan, consume, **kwargs):
            def record(index, trace):
                consumed.append(index)
                consume(index, trace)

            return real_streaming(plan, record, **kwargs)

        def recording_save(aggregates, key, state):
            mask = 0
            for index in consumed:
                mask |= 1 << index
            saved.append((state["done_mask"], format(mask, "x")))
            return real_save(aggregates, key, state)

        monkeypatch.setattr(ExecutionPlan, "execute_streaming", recording_streaming)
        monkeypatch.setattr(AggregateStore, "save", recording_save)
        cell = SweepCell(
            coords={"cell": "mask"},
            graph=GraphSpec("gnp", {"n": 24, "p": 0.25}),
            protocol=ProtocolSpec("algorithm1", {"p": 0.25}),
            repetitions=1_000,
        )
        result = run_cell(
            cell,
            seed=1,
            metrics=("success", "total_tx"),
            batch_mode="exact",
            store=ResultStore(tmp_path / "cache"),
        )
        assert result.trials == 1_000
        # Trials retire out of order, so the masks are not prefixes.
        assert consumed != sorted(consumed)
        # One checkpoint per 64 fresh trials, plus the final one.
        assert len(saved) == 1_000 // 64 + 1
        for written, reference in saved:
            assert written == reference
        assert saved[-1][0] == format((1 << 1_000) - 1, "x")

class TestCli:
    def test_sweep_defaults_to_exact_and_cache(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["sweep", "E1"])
        assert args.batch_mode == "exact"
        assert args.command == "sweep"

    def test_run_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "E1", "--resume", "--cache-dir", "/tmp/x", "--no-cache"]
        )
        assert args.resume and args.no_cache
        assert str(args.cache_dir) == "/tmp/x"

    def test_no_cache_wins(self, tmp_path):
        from repro.cli import _store_from_args, build_parser

        args = build_parser().parse_args(
            ["sweep", "E1", "--no-cache", "--cache-dir", str(tmp_path)]
        )
        assert _store_from_args(args) is None

    def test_run_is_uncached_by_default(self):
        from repro.cli import _store_from_args, build_parser

        args = build_parser().parse_args(["run", "E1"])
        assert _store_from_args(args) is None

    def test_resume_enables_store(self, tmp_path, monkeypatch):
        from repro.cli import _store_from_args, build_parser

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        args = build_parser().parse_args(["run", "E1", "--resume"])
        store = _store_from_args(args)
        assert store is not None
        assert store.root == tmp_path / "envcache"

    def test_cache_subcommand_stats_and_clear(self, tmp_path, capsys):
        from repro.cli import main

        store = ResultStore(tmp_path)
        store.put("ab" + "0" * 62, {"x": 1})
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries:        1" in out
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert ResultStore(tmp_path).stats()["entries"] == 0

    def test_sweep_command_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        # The sweep command rewrites every process-wide execution default
        # (batch_mode="exact", compaction, ...), not just the store —
        # restore the whole snapshot so later tests see pristine defaults.
        defaults = runner_module._EXECUTION_DEFAULTS
        try:
            argv = [
                "sweep",
                "E9",
                "--scale",
                "quick",
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
            assert main(argv) == 0
            assert "[cache]" in capsys.readouterr().out
        finally:
            runner_module._EXECUTION_DEFAULTS = defaults
