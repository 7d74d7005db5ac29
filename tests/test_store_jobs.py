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

import json
import os

import numpy as np
import pytest

import repro.experiments.runner as runner_module
from repro.experiments.protocols import ProtocolSpec
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import (
    Job,
    aggregate_runs,
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
from repro.store import ResultStore, canonical_dumps, trial_digest
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

        def dies_mid_sweep(shard):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt("simulated worker death mid-shard")
            return real(shard)

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

        def dies_mid_sweep(shard):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt("simulated death mid fast sweep")
            return real(shard)

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
