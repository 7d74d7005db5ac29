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
