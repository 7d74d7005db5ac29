"""Faulty-world environment layer: validation, null-cost identity, fault
effects and pipeline threading.

The environment seam wraps transmission masks before collision resolution
and deliveries after it, so every batched protocol inherits every fault
family untouched.  What this suite pins:

* parameter validation fails fast with named, actionable messages;
* a null environment is bit-identical to no environment for **every**
  registered batch protocol in exact mode;
* fault families fire, and gated transmissions are not energy-charged
  (every family's exact-mode traces are pinned by the golden corpus);
* the environment rides the execution pipeline as one more content-addressed
  sweep axis: job digests, scenario grids, streamed ``recovery_rounds``
  aggregation, and mid-sweep resume all work unchanged.
"""

import numpy as np
import pytest

import repro.experiments.runner as runner_module
from repro.experiments.protocols import (
    PROTOCOL_FACTORIES,
    ProtocolSpec,
)
from repro.experiments.runner import (
    Job,
    build_repetition_plan,
    execute_job,
    repeat_job,
)
from repro.graphs.builders import GraphSpec
from repro.graphs.random_digraph import random_digraph
from repro.radio.batch import BatchEngine, BatchRandomSource, NetworkBatch
from repro.radio.engine import SimulationEngine
from repro.radio.environment import (
    BurstLossEnvironment,
    ChurnEnvironment,
    IidLossEnvironment,
    JamEnvironment,
    WakeupEnvironment,
    build_environment,
    parse_environment_option,
    validate_environment_spec,
)
from repro.scenarios import ScenarioSpec, SweepCell, SweepGrid, run_scenario
from repro.store import ResultStore

#: Minimal valid parameters per registered protocol.
PROTOCOL_PARAMS = {
    "algorithm1": {"p": 0.1},
    "algorithm2": {"p": 0.1},
    "algorithm3": {"diameter": 3},
    "tradeoff": {"diameter": 3, "lam": 3.0},
    "time_invariant": {"distribution": 0.1},
    "decay": {},
    "elsasser_gasieniec": {"p": 0.1},
    "czumaj_rytter_known_d": {"diameter": 3},
    "uniform_selection": {"diameter": 3},
    "deterministic_flood": {},
    "bernoulli_flood": {"q": 0.1},
    "uniform_gossip": {},
    "sequential_gossip": {},
}

FAULT_SPECS = {
    "iid_loss": {"name": "iid_loss", "params": {"tx_loss": 0.1, "rx_loss": 0.15}},
    "burst_loss": {"name": "burst_loss", "params": {"p_bad": 0.15, "p_good": 0.4}},
    "churn": {
        "name": "churn",
        "params": {
            "events": [
                {"round": 3, "crash_fraction": 0.25},
                {"round": 12, "recover_all": True},
            ]
        },
    },
}


def _assert_traces_identical(expected, batched):
    assert len(expected) == len(batched)
    for s, b in zip(expected, batched):
        assert s.completed == b.completed
        assert s.completion_round == b.completion_round
        assert s.rounds_executed == b.rounds_executed
        assert s.energy == b.energy
        assert s.informed_count == b.informed_count
        assert s.metadata.get("environment") == b.metadata.get("environment")


@pytest.fixture(scope="module")
def net96():
    return random_digraph(96, 0.08, rng=11)


# --------------------------------------------------------------------------- #
# Parameter validation
# --------------------------------------------------------------------------- #
class TestValidation:
    def test_loss_probability_out_of_range(self):
        with pytest.raises(ValueError, match=r"rx_loss must lie in \[0, 1\]"):
            IidLossEnvironment(rx_loss=1.5)
        with pytest.raises(ValueError, match=r"tx_loss must lie in \[0, 1\]"):
            IidLossEnvironment(tx_loss=-0.1)
        with pytest.raises(ValueError, match=r"p_bad must lie in \[0, 1\]"):
            BurstLossEnvironment(p_bad=2.0)

    def test_churn_schedule_must_be_sorted(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            ChurnEnvironment(
                [
                    {"round": 10, "crash_fraction": 0.5},
                    {"round": 3, "recover_all": True},
                ]
            )

    def test_churn_event_needs_round_and_action(self):
        with pytest.raises(ValueError, match="needs a 'round'"):
            ChurnEnvironment([{"crash_fraction": 0.5}])
        with pytest.raises(ValueError, match="at least one action"):
            ChurnEnvironment([{"round": 3}])
        with pytest.raises(ValueError, match="unknown churn event key"):
            ChurnEnvironment([{"round": 3, "explode": True}])

    def test_jam_budget_exceeding_channels(self, net96):
        env = JamEnvironment(k=200)
        with pytest.raises(ValueError, match=r"jam budget k=200 exceeds"):
            env.bind(NetworkBatch([net96]), BatchRandomSource.exact([0]))
        batch_env = build_environment({"name": "jam", "params": {"k": 200}})
        engine = BatchEngine(environment=batch_env)
        proto = PROTOCOL_FACTORIES["deterministic_flood"]()
        with pytest.raises(ValueError, match="exceeds the number of channels"):
            engine.run(net96, proto, trials=2, rng=0, max_rounds=4)

    def test_jam_takes_k_or_targets_not_both(self):
        with pytest.raises(ValueError, match="not both"):
            JamEnvironment(k=2, targets=[1, 2])
        with pytest.raises(ValueError, match="stop must be > start"):
            JamEnvironment(k=2, start=5, stop=5)

    def test_wakeup_delay_list_must_match_n(self, net96):
        env = WakeupEnvironment(delays=[0, 1, 2])
        with pytest.raises(ValueError, match="one delay per node"):
            env.bind(NetworkBatch([net96]), BatchRandomSource.exact([0]))

    def test_unknown_family_and_params(self):
        with pytest.raises(ValueError, match="unknown environment family"):
            build_environment({"name": "meteor_strike", "params": {}})
        with pytest.raises(ValueError, match="unknown parameter"):
            build_environment({"name": "iid_loss", "params": {"loss": 0.1}})

    def test_cli_option_parsing(self):
        assert parse_environment_option(None) is None
        assert parse_environment_option("off") is None
        spec = parse_environment_option("loss=0.1,churn=0.2@5:40,jam=2")
        assert spec["name"] == "compose"
        names = [layer["name"] for layer in spec["params"]["layers"]]
        assert names == ["iid_loss", "churn", "jam"]
        single = parse_environment_option("wake=6")
        assert single == {"name": "wakeup", "params": {"max_delay": 6}}
        with pytest.raises(ValueError, match="unknown --env key"):
            parse_environment_option("loss=0.1,warp=9")
        with pytest.raises(ValueError, match="expected key=value"):
            parse_environment_option("chaos")

    def test_spec_normalisation_is_canonical(self):
        # Two spellings of the same environment normalise to one spec, so
        # they share one store digest.
        a = validate_environment_spec({"name": "iid_loss", "params": {"rx_loss": 0.1}})
        b = parse_environment_option("loss=0.1")
        assert a == b


# --------------------------------------------------------------------------- #
# Null environment == no environment (every protocol, exact mode)
# --------------------------------------------------------------------------- #
class TestNullEnvironment:
    NULL_SPECS = [
        {"name": "null", "params": {}},
        {"name": "iid_loss", "params": {"tx_loss": 0.0, "rx_loss": 0.0}},
        {"name": "churn", "params": {"events": []}},
        {"name": "jam", "params": {"k": 0}},
    ]

    @pytest.mark.parametrize("protocol_name", sorted(PROTOCOL_FACTORIES))
    def test_null_env_is_bit_identical_for_every_protocol(
        self, net96, protocol_name
    ):
        assert PROTOCOL_PARAMS.keys() == PROTOCOL_FACTORIES.keys()
        params = PROTOCOL_PARAMS[protocol_name]
        trials = 4
        rngs = lambda: [np.random.default_rng(500 + t) for t in range(trials)]
        bare = BatchEngine().run(
            net96,
            PROTOCOL_FACTORIES[protocol_name](**params),
            trials=trials,
            rngs=rngs(),
            max_rounds=300,
        )
        for spec in self.NULL_SPECS:
            env = build_environment(spec)
            assert env.is_null
            wrapped = BatchEngine(environment=env).run(
                net96,
                PROTOCOL_FACTORIES[protocol_name](**params),
                trials=trials,
                rngs=rngs(),
                max_rounds=300,
            )
            _assert_traces_identical(bare, wrapped)

    def test_empty_spec_builds_no_environment(self):
        assert build_environment(None) is None
        assert build_environment({}) is None
        assert validate_environment_spec(None) is None


# --------------------------------------------------------------------------- #
# Fault effects
# --------------------------------------------------------------------------- #
class TestFaultEffects:
    def test_faults_actually_fire(self, net96):
        # Guard against the suite passing vacuously: the lossy worlds must
        # record losses on this workload.
        for family in ("iid_loss", "burst_loss", "churn"):
            engine = SimulationEngine(
                environment=build_environment(FAULT_SPECS[family])
            )
            trace = engine.run(
                net96,
                PROTOCOL_FACTORIES["bernoulli_flood"](q=0.1),
                rng=np.random.default_rng(7),
                max_rounds=250,
            )
            report = trace.metadata["environment"]
            assert report["fault_events"] > 0, family
            assert report["last_fault_round"] > 0, family

    def test_crashed_transmissions_are_not_charged(self, net96):
        # Crash everyone but the source forever: after the crash round the
        # flood's transmissions are gated, so energy must stay below the
        # unfaulted run's.
        spec = {
            "name": "churn",
            "params": {"events": [{"round": 2, "crash_fraction": 0.9}]},
        }
        rng = lambda: np.random.default_rng(3)
        bare = SimulationEngine().run(
            net96, PROTOCOL_FACTORIES["deterministic_flood"](), rng=rng(),
            max_rounds=40,
        )
        faulted = SimulationEngine(environment=build_environment(spec)).run(
            net96, PROTOCOL_FACTORIES["deterministic_flood"](), rng=rng(),
            max_rounds=40,
        )
        report = faulted.metadata["environment"]
        assert report["suppressed_transmissions"] > 0
        assert (
            faulted.energy.total_transmissions
            < bare.energy.total_transmissions
        )


# --------------------------------------------------------------------------- #
# Pipeline threading: jobs, digests, sweeps, resume
# --------------------------------------------------------------------------- #
GRAPH = GraphSpec("gnp", {"n": 64, "p": 0.15})
PROTOCOL = ProtocolSpec("algorithm1", {"p": 0.15})
ENV = {"name": "iid_loss", "params": {"tx_loss": 0.0, "rx_loss": 0.2}}


class TestPipelineThreading:
    def test_job_digest_unchanged_without_environment(self):
        # Legacy digests must survive the new axis: a job without an
        # environment serialises exactly as before.
        job = Job(graph=GRAPH, protocol=PROTOCOL, seed=1)
        assert "environment" not in job.as_dict()
        assert "environment" in Job(
            graph=GRAPH, protocol=PROTOCOL, seed=1, environment=ENV
        ).as_dict()

    def test_repeat_job_matches_execute_job_exact(self):
        kwargs = dict(
            repetitions=4, seed=0, batch_mode="exact", environment=ENV,
            max_rounds=300,
        )
        plan = build_repetition_plan(GRAPH, PROTOCOL, **kwargs)
        one_by_one = [execute_job(j) for j in plan.jobs]
        batched = repeat_job(GRAPH, PROTOCOL, **kwargs)
        for s, b in zip(one_by_one, batched):
            assert s.completed == b.completed
            assert s.completion_round == b.completion_round
            assert s.energy == b.energy
            assert s.metadata["environment"] == b.metadata["environment"]
            assert s.metadata["environment"]["lost_deliveries"] > 0

    def test_environment_report_survives_the_store(self, tmp_path):
        store = ResultStore(tmp_path)
        kwargs = dict(
            repetitions=3, seed=0, batch_mode="exact", environment=ENV,
            max_rounds=300,
        )
        cold = repeat_job(GRAPH, PROTOCOL, store=store, **kwargs)
        warm = repeat_job(GRAPH, PROTOCOL, store=store, **kwargs)
        assert store.hits >= 3
        for a, b in zip(cold, warm):
            assert a.metadata["environment"] == b.metadata["environment"]

    def _grid_spec(self):
        cells = tuple(
            SweepCell(
                coords={"world": world},
                graph=GRAPH,
                protocol=PROTOCOL,
                repetitions=3,
                job_options=(
                    {"max_rounds": 300}
                    if env is None
                    else {"max_rounds": 300, "environment": env}
                ),
            )
            for world, env in [
                ("reliable", None),
                ("lossy", ENV),
                ("churny", {
                    "name": "churn",
                    "params": {"events": [
                        {"round": 2, "crash_fraction": 0.25},
                        {"round": 10, "recover_all": True},
                    ]},
                }),
                ("jammed", {"name": "jam", "params": {"k": 2}}),
            ]
        )
        return ScenarioSpec(
            scenario_id="env-axis",
            grid=SweepGrid(cells=cells),
            metrics=("success", "completion_round", "recovery_rounds",
                     "work_wasted"),
            seed=0,
        )

    def test_environment_is_a_sweep_axis_with_streamed_metrics(self, tmp_path):
        store = ResultStore(tmp_path)
        results = run_scenario(self._grid_spec(), store=store)
        by_world = {r.cell.coords["world"]: r for r in results}
        assert by_world["reliable"].mean("work_wasted") == 0.0
        # Three fault families ran end-to-end and streamed their metrics.
        for world in ("lossy", "churny", "jammed"):
            assert by_world[world].mean("work_wasted") > 0.0
            assert by_world[world].accumulators["recovery_rounds"] is not None
        # The per-cell aggregations were checkpointed by digest.
        assert store.stats()["aggregate_checkpoints"] == len(results)

    def test_resume_mid_sweep_with_environment_axis(self, tmp_path, monkeypatch):
        baseline = run_scenario(self._grid_spec(), store=False)

        store = ResultStore(tmp_path)
        real = runner_module._execute_batch_shard
        calls = {"n": 0}

        def dies_on_third_shard(shard, result_sink=None):
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt("simulated crash mid-sweep")
            return real(shard, result_sink)

        monkeypatch.setattr(
            runner_module, "_execute_batch_shard", dies_on_third_shard
        )
        with pytest.raises(KeyboardInterrupt):
            run_scenario(self._grid_spec(), store=store)
        crashed_after = calls["n"]

        # Some cells completed (checkpointed by digest) before the crash.
        assert 0 < store.stats()["entries"] < 4 * 3
        resume_calls = {"n": 0}

        def counting(shard, result_sink=None):
            resume_calls["n"] += 1
            return real(shard, result_sink)

        monkeypatch.setattr(runner_module, "_execute_batch_shard", counting)
        resumed = run_scenario(self._grid_spec(), store=store)
        # Completed cells resume straight from their aggregate checkpoints:
        # only the crashed cell (and beyond) re-executes shards.
        assert 0 < resume_calls["n"] <= 4 - (crashed_after - 1)
        for a, b in zip(baseline, resumed):
            assert a.cell.coords == b.cell.coords
            for metric in ("success", "completion_round", "recovery_rounds",
                           "work_wasted"):
                assert a.mean(metric) == b.mean(metric), metric
