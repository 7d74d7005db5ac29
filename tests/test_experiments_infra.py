"""Tests for the experiment infrastructure (results, protocols, runner, figures)."""

import json

import numpy as np
import pytest

from repro.experiments.figures import ascii_chart, series_to_csv
from repro.experiments.protocols import PROTOCOL_FACTORIES, ProtocolSpec, build_protocol
from repro.experiments.results import ExperimentResult, Series
from repro.cli import build_parser
from repro.experiments.runner import (
    ExecutionPlan,
    Job,
    aggregate_runs,
    build_repetition_plan,
    configure_execution,
    execute_job,
    repeat_job,
)
from repro.graphs.builders import GraphSpec, spec_is_deterministic
from repro.graphs.random_digraph import random_digraph
from repro.radio.batch import NetworkBatch
from repro.store import trial_digest

from test_batch_engine import _assert_traces_identical


class TestExperimentResult:
    def _result(self):
        return ExperimentResult(
            experiment_id="E0",
            title="test",
            claim="a claim",
            columns=["a", "b"],
            rows=[[1, 2.5], ["x", None]],
            series=[Series("s", [1, 2], [3.0, 4.0], x_label="n", y_label="t")],
            notes=["note one"],
            parameters={"scale": "quick"},
        )

    def test_render_contains_table_and_notes(self):
        text = self._result().render()
        assert "E0: test" in text
        assert "a claim" in text
        assert "note one" in text
        assert "2.5" in text

    def test_json_roundtrip(self):
        result = self._result()
        back = ExperimentResult.from_json(result.to_json())
        assert back.experiment_id == "E0"
        assert back.rows == [[1, 2.5], ["x", None]]
        assert back.series[0].x == [1, 2]
        assert back.parameters["scale"] == "quick"

    def test_json_handles_numpy_types(self):
        result = self._result()
        result.rows.append([np.int64(3), np.float64(1.5)])
        payload = json.loads(result.to_json())
        assert payload["rows"][-1] == [3, 1.5]

    def test_csv(self):
        csv_text = self._result().to_csv()
        assert csv_text.splitlines()[0] == "a,b"
        assert "2.5" in csv_text

    def test_save_load(self, tmp_path):
        path = self._result().save(tmp_path / "r.json")
        assert path.exists()
        loaded = ExperimentResult.load(path)
        assert loaded.title == "test"


class TestProtocolSpecs:
    @pytest.mark.parametrize(
        "spec",
        [
            ProtocolSpec("algorithm1", {"p": 0.1}),
            ProtocolSpec("algorithm2", {"p": 0.1}),
            ProtocolSpec("algorithm3", {"diameter": 5}),
            ProtocolSpec("tradeoff", {"diameter": 5, "lam": 3.0}),
            ProtocolSpec("decay", {}),
            ProtocolSpec("elsasser_gasieniec", {"p": 0.1}),
            ProtocolSpec("czumaj_rytter_known_d", {"diameter": 5}),
            ProtocolSpec("uniform_selection", {"diameter": 5}),
            ProtocolSpec("deterministic_flood", {}),
            ProtocolSpec("bernoulli_flood", {"q": 0.2}),
            ProtocolSpec("uniform_gossip", {}),
            ProtocolSpec("time_invariant", {"distribution": 0.25}),
        ],
    )
    def test_every_registered_protocol_builds(self, spec):
        protocol = build_protocol(spec)
        assert protocol is not None

    def test_time_invariant_distribution_dicts(self):
        for dist in (
            {"kind": "alpha", "n": 256, "diameter": 8},
            {"kind": "alpha_prime", "n": 256, "diameter": 8},
            {"kind": "uniform", "n": 256},
            {"kind": "fixed", "q": 0.3},
        ):
            protocol = build_protocol(
                ProtocolSpec("time_invariant", {"distribution": dist})
            )
            assert protocol.distribution is not None

    def test_unknown_protocol(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            build_protocol(ProtocolSpec("nope", {}))

    def test_unknown_distribution_kind(self):
        with pytest.raises(ValueError):
            build_protocol(
                ProtocolSpec("time_invariant", {"distribution": {"kind": "bad"}})
            )

    def test_spec_roundtrip(self):
        spec = ProtocolSpec("decay", {"max_phases_active": 3})
        assert ProtocolSpec.from_dict(spec.as_dict()) == spec

    def test_registry_names(self):
        assert {"algorithm1", "algorithm2", "algorithm3"} <= set(PROTOCOL_FACTORIES)


class TestRunner:
    def _job(self, seed=1, **kw):
        return Job(
            graph=GraphSpec("gnp", {"n": 128, "p": 0.08}),
            protocol=ProtocolSpec("algorithm1", {"p": 0.08}),
            seed=seed,
            **kw,
        )

    def test_execute_job(self):
        result = execute_job(self._job())
        assert result.n == 128
        assert result.energy.max_per_node <= 1
        assert "job" in result.metadata

    def test_execute_job_is_deterministic(self):
        a = execute_job(self._job(seed=5))
        b = execute_job(self._job(seed=5))
        assert a.completion_round == b.completion_round
        assert a.energy.total_transmissions == b.energy.total_transmissions

    def test_same_seed_same_topology_across_protocols(self):
        job_a = Job(
            graph=GraphSpec("gnp", {"n": 100, "p": 0.1}),
            protocol=ProtocolSpec("decay", {}),
            seed=3,
        )
        job_b = Job(
            graph=GraphSpec("gnp", {"n": 100, "p": 0.1}),
            protocol=ProtocolSpec("bernoulli_flood", {"q": 0.1}),
            seed=3,
        )
        # Both should see the same sampled network: compare via informed counts
        # being over the same node count and the graph rng being seed-derived.
        a = execute_job(job_a)
        b = execute_job(job_b)
        assert a.n == b.n == 100

    def test_label_and_collision_options(self):
        job = self._job(label="mylabel", collision_model="collision_detection")
        result = execute_job(job)
        assert result.metadata["label"] == "mylabel"

    def test_erasure_collision(self):
        result = execute_job(self._job(erasure_probability=0.2))
        assert result.n == 128

    def test_unknown_collision_model(self):
        with pytest.raises(ValueError):
            execute_job(self._job(collision_model="bogus"))

    def test_repeat_job(self):
        results = repeat_job(
            GraphSpec("gnp", {"n": 96, "p": 0.1}),
            ProtocolSpec("algorithm1", {"p": 0.1}),
            repetitions=3,
            seed=0,
        )
        assert len(results) == 3

    def test_configure_execution_accepts_benchmark_keywords(self):
        # The exact keyword set the end-to-end benchmark installs.
        configure_execution(
            batch=True,
            batch_mode="fast",
            state_backend="auto",
            kernel="auto",
            store=None,
            compaction="auto",
            watermark=0.75,
        )

    @pytest.mark.parametrize(
        "name,value",
        [
            ("batch", False),
            ("batch", "require"),
            ("state_backend", "dense"),
            ("kernel", "numpy"),
            ("watermark", 0.5),
        ],
        ids=[
            "False",
            "require",
            "state_backend-dense",
            "kernel-numpy",
            "watermark-0.5",
        ],
    )
    def test_configure_execution_rejects_non_batch(self, name, value):
        # Each keyword names a choice the code makes itself; only its
        # automatic value is accepted.
        with pytest.raises(ValueError, match=f"only {name}="):
            configure_execution(**{name: value})

    def test_repeat_job_invalid(self):
        with pytest.raises(ValueError):
            repeat_job(
                GraphSpec("path", {"n": 4}),
                ProtocolSpec("decay", {}),
                repetitions=0,
            )

    def test_aggregate_runs(self):
        runs = repeat_job(
            GraphSpec("gnp", {"n": 96, "p": 0.1}),
            ProtocolSpec("algorithm1", {"p": 0.1}),
            repetitions=4,
            seed=1,
        )
        agg = aggregate_runs(runs)
        assert agg["runs"] == 4
        assert 0.0 <= agg["success_rate"] <= 1.0
        assert agg["max_tx_per_node"].maximum <= 1

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([])

    def test_job_as_dict(self):
        payload = self._job().as_dict()
        assert payload["graph"]["family"] == "gnp"
        assert payload["protocol"]["name"] == "algorithm1"


class TestFigures:
    def test_ascii_chart_renders(self):
        series = Series("s", [1, 2, 3], [1.0, 4.0, 2.0], x_label="x", y_label="y")
        text = ascii_chart(series)
        assert "s" in text
        assert "*" in text

    def test_ascii_chart_empty(self):
        assert "empty" in ascii_chart(Series("s", [], []))

    def test_ascii_chart_constant_series(self):
        text = ascii_chart(Series("flat", [1, 2], [5.0, 5.0]))
        assert "*" in text

    def test_ascii_chart_validation(self):
        with pytest.raises(ValueError):
            ascii_chart(Series("s", [1], [1.0, 2.0]))
        with pytest.raises(ValueError):
            ascii_chart(Series("s", [1], [1.0]), width=2)

    def test_series_to_csv(self):
        csv_text = series_to_csv(
            [Series("a", [1], [2.0]), Series("b", [3], [4.0])]
        )
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("series,")
        assert len(lines) == 3

    def test_series_to_csv_mismatch(self):
        with pytest.raises(ValueError):
            series_to_csv([Series("a", [1, 2], [1.0])])


class TestExecutionPlumbing:
    @pytest.mark.parametrize(
        "job_options,match",
        [
            ({"collision_model": "bogus"}, "collision model"),
            ({"protocol": ProtocolSpec("bogus", {})}, "protocol"),
        ],
        ids=["collision_model", "protocol"],
    )
    def test_plan_rejects_unknown_option(self, job_options, match):
        job = Job(
            **{
                "graph": GraphSpec("gnp", {"n": 16, "p": 0.2}),
                "protocol": ProtocolSpec("algorithm1", {"p": 0.2}),
                "seed": 1,
                **job_options,
            }
        )
        with pytest.raises(ValueError, match=match):
            ExecutionPlan(jobs=(job,))

    @pytest.mark.parametrize("flag", ["--state-backend", "--kernel"])
    def test_cli_has_no_engine_choice_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", "E1", flag, "auto"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestTopologyCache:
    def test_deterministic_spec_detection(self):
        assert spec_is_deterministic(GraphSpec("path", {"n": 8}))
        assert spec_is_deterministic(GraphSpec("grid", {"rows": 3, "cols": 3}))
        assert not spec_is_deterministic(GraphSpec("gnp", {"n": 8, "p": 0.5}))
        assert not spec_is_deterministic(GraphSpec("nope", {}))

    def test_plan_builds_deterministic_topology_once(self, monkeypatch):
        import repro.experiments.runner as runner_module

        calls = []
        real_build = runner_module.build_network

        def counting_build(spec, *, rng=None):
            calls.append(spec.family)
            return real_build(spec, rng=rng)

        monkeypatch.setattr(runner_module, "build_network", counting_build)
        runs = repeat_job(
            GraphSpec("path", {"n": 24}),
            ProtocolSpec("decay", {}),
            repetitions=6,
            seed=5,
        )
        assert len(runs) == 6
        # One plan-level build; no per-job rebuilds.
        assert calls == ["path"]

    def test_random_specs_keep_per_trial_samples(self):
        job_template = GraphSpec("gnp", {"n": 32, "p": 0.2})
        plan = ExecutionPlan(
            jobs=tuple(
                Job(graph=job_template, protocol=ProtocolSpec("decay", {}), seed=s)
                for s in range(3)
            )
        )
        assert plan.shared_topology() is None

    def test_cached_topology_matches_serial_results(self):
        graph = GraphSpec("path", {"n": 32})
        protocol = ProtocolSpec("decay", {})
        plan = build_repetition_plan(graph, protocol, repetitions=4, seed=7)
        serial = [execute_job(j) for j in plan.jobs]
        batched = repeat_job(graph, protocol, repetitions=4, seed=7, batch_mode="exact")
        _assert_traces_identical(serial, batched)
        sharded = repeat_job(
            graph,
            protocol,
            repetitions=4,
            seed=7,
            batch_mode="exact",
            processes=2,
        )
        _assert_traces_identical(serial, sharded)


class TestDigestStability:
    """Store keys never name the collision kernel or the node-set backend,
    so a store built before either was chosen by the code keeps hitting."""

    GRAPH = GraphSpec("gnp", {"n": 32, "p": 0.25})
    PROTOCOL = ProtocolSpec("decay", {})

    def _keys(self, **plan_kwargs):
        return build_repetition_plan(
            self.GRAPH, self.PROTOCOL, repetitions=2, seed=5, **plan_kwargs
        ).job_keys()

    @pytest.mark.parametrize("batch_mode", ["fast", "exact"])
    def test_context_names_no_kernel_and_a_constant_backend(self, batch_mode):
        context = build_repetition_plan(
            self.GRAPH,
            self.PROTOCOL,
            repetitions=2,
            seed=5,
            batch_mode=batch_mode,
        ).cache_context()
        assert "kernel" not in context
        assert context["state_backend"] == "auto"

    def test_pinned_digest(self):
        # Hard regression pin: this digest was computed before the kernel
        # field existed.  If it moves, every result store in the wild is
        # silently invalidated — bump ENGINE_VERSION instead of accepting a
        # new value here.
        keys = self._keys(batch_mode="exact")
        assert keys[0] == (
            "d884c5e90af1ae70ab5bd025b7378e68"
            "02af16b2369e53a14be3fc7fee3817b8"
        )

    def test_pinned_fast_digest(self):
        # Fast-mode keys also pin the cohort (fast-seed entropy, shard
        # layout); the same rule applies: a moved digest needs a bump.
        keys = self._keys(batch_mode="fast")
        assert keys[0] == (
            "bd72c381a565acffd13bf1c023bbafaa"
            "6d4d37a913f8e461227616995194ac74"
        )

    #: Digest of ``{"context": cache_context(), "keys": job_keys()}`` for a
    #: six-trial sweep, per ``(batch_mode, shards)``.  Process fan-out never
    #: enters the context once the shard count is fixed.
    PLAN_DIGESTS = {
        ("fast", 1): (
            "4057c8a80184594a1401df24f5e36831"
            "baf6fcfefc9373e8b71668c28821158e"
        ),
        ("fast", 3): (
            "22473a9000b94f09dd0c4473abffbe03"
            "438a052c5c20dd45fb71c36cfde00fb6"
        ),
        ("exact", 1): (
            "55840cd5ac42c0ccf7df4a8e46af17f9"
            "9e75aee2f2dc1991f6e85f63f50d2010"
        ),
        ("exact", 3): (
            "55840cd5ac42c0ccf7df4a8e46af17f9"
            "9e75aee2f2dc1991f6e85f63f50d2010"
        ),
    }

    @pytest.mark.parametrize("processes", [None, 2])
    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("batch_mode", ["fast", "exact"])
    def test_pinned_plan_digests(self, batch_mode, shards, processes):
        plan = build_repetition_plan(
            self.GRAPH,
            self.PROTOCOL,
            repetitions=6,
            seed=5,
            batch_mode=batch_mode,
            shards=shards,
            processes=processes,
        )
        digest = trial_digest(
            {"context": plan.cache_context(), "keys": plan.job_keys()}
        )
        assert digest == self.PLAN_DIGESTS[(batch_mode, shards)]


class TestSharedBatchReuse:
    """Shard-level stacked-CSR reuse for shared-topology sweeps."""

    GRAPH = GraphSpec("path", {"n": 24})
    PROTOCOL = ProtocolSpec("decay", {})

    def test_in_process_shards_share_one_batch(self):
        plan = build_repetition_plan(
            self.GRAPH, self.PROTOCOL, repetitions=8, seed=2, shards=4
        )
        shards = plan.shards()
        assert len(shards) == 4
        batches = {id(shard.shared_batch) for shard in shards}
        assert None not in {shard.shared_batch for shard in shards}
        assert len(batches) == 1

    def test_fanout_shards_carry_no_batch(self):
        plan = build_repetition_plan(
            self.GRAPH, self.PROTOCOL, repetitions=8, seed=2, processes=2
        )
        assert all(shard.shared_batch is None for shard in plan.shards())
        assert all(shard.shared_network is not None for shard in plan.shards())

    def test_random_family_has_no_shared_batch(self):
        plan = build_repetition_plan(
            GraphSpec("gnp", {"n": 24, "p": 0.3}),
            self.PROTOCOL,
            repetitions=8,
            seed=2,
            shards=4,
        )
        assert all(shard.shared_batch is None for shard in plan.shards())

    def test_shared_batch_results_bit_identical(self):
        sharded = repeat_job(
            self.GRAPH,
            self.PROTOCOL,
            repetitions=8,
            seed=2,
            shards=4,
            batch_mode="exact",
        )
        plan = build_repetition_plan(self.GRAPH, self.PROTOCOL, repetitions=8, seed=2)
        one_by_one = [execute_job(j) for j in plan.jobs]
        _assert_traces_identical(one_by_one, sharded, check_arrays=True)

    def test_shared_tiling_matches_general_construction(self):
        net = random_digraph(40, 0.2, rng=3)
        tiled = NetworkBatch.shared(net, 6)
        looped = NetworkBatch([random_digraph(40, 0.2, rng=3) for _ in range(6)])
        assert np.array_equal(tiled.out_indptr, looped.out_indptr)
        assert np.array_equal(tiled.out_indices, looped.out_indices)
        assert np.array_equal(
            np.bincount(tiled.out_indices, minlength=tiled.total_nodes),
            np.bincount(looped.out_indices, minlength=looped.total_nodes),
        )


class TestStreamingBypass:
    """In-process execution streams traces one trial at a time."""

    def test_execute_streaming_matches_execute(self):
        plan = build_repetition_plan(
            GraphSpec("path", {"n": 24}),
            ProtocolSpec("decay", {}),
            repetitions=8,
            seed=2,
            shards=4,
            batch_mode="exact",
        )
        collected = plan.execute()
        seen = {}
        counts = plan.execute_streaming(
            lambda index, trace: seen.__setitem__(index, trace)
        )
        assert counts["executed"] == 8
        assert sorted(seen) == list(range(8))
        _assert_traces_identical(
            collected, [seen[i] for i in range(8)], check_arrays=True
        )
        for trace in seen.values():
            assert "job" in trace.metadata
