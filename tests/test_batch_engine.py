"""Batched-vs-serial equivalence suite for the batch simulation subsystem.

The batch engine promises two things:

1. In the **exact** rng mode (one child generator per trial) a batched run is
   *bit-identical* to running the serial engine trial by trial with the same
   generators — asserted here field by field for broadcast, gossip, flooding
   and the erasure collision model.
2. In the **fast** rng mode (one shared generator, vectorised draws) the
   per-trial topologies and seeds are spawned identically to the serial
   path, so aggregates are statistically interchangeable — asserted within
   tolerance on completion-round and energy statistics.
"""

import numpy as np
import pytest

from repro.baselines.flooding import (
    BatchBernoulliFlood,
    BatchDeterministicFlood,
    BernoulliFlood,
    DeterministicFlood,
)
from repro.baselines.gossip_uniform import BatchUniformScaleGossip, UniformScaleGossip
from repro.core.broadcast_random import (
    BatchEnergyEfficientBroadcast,
    EnergyEfficientBroadcast,
)
import repro.experiments.runner as runner_module
from repro.experiments.protocols import (
    BATCH_PROTOCOL_FACTORIES,
    PROTOCOL_FACTORIES,
    ProtocolSpec,
    build_batch_protocol,
)
from repro.experiments.runner import (
    ExecutionPlan,
    Job,
    aggregate_runs,
    build_repetition_plan,
    execute_job,
    repeat_job,
)
from repro.graphs.builders import GraphSpec
from repro.graphs.random_digraph import (
    connectivity_threshold_probability,
    random_digraph,
)
from repro.radio.batch import (
    BatchEngine,
    NetworkBatch,
    PendingTrial,
    run_protocol_batch,
)
from repro.radio.collision import (
    BatchStandardCollisionModel,
    ErasureCollisionModel,
    StandardCollisionModel,
)
from repro.radio.engine import SimulationEngine


def _serial_sweep(graph, protocol, **options):
    """The serial oracle of a ``repeat_job`` sweep: one engine run per job."""
    return [execute_job(j) for j in build_repetition_plan(graph, protocol, **options).jobs]


def _engine_sweep(graph, protocol, *, kernel=None, **options):
    """An exact ``repeat_job`` sweep run straight on a :class:`BatchEngine`
    with, when given, the collision kernel forced: the same per-trial
    networks, protocol streams and engine options the sweep uses, so every
    kernel must give the same bits."""
    plan = build_repetition_plan(graph, protocol, batch_mode="exact", **options)
    job = plan.jobs[0]
    model = runner_module._batch_collision_model_for(job)
    if kernel is not None:
        model.kernel = kernel
    engine = BatchEngine(
        model,
        record_rounds=job.record_rounds,
        keep_arrays=job.keep_arrays,
        run_to_quiescence=job.run_to_quiescence,
        environment=job.environment,
    )
    networks, rngs = zip(
        *runner_module._trial_inputs(plan.jobs, plan.shared_topology())
    )
    return engine.run(
        list(networks),
        build_batch_protocol(protocol),
        rngs=list(rngs),
        max_rounds=job.max_rounds,
    )


def _serial_runs(networks, make_protocol, seeds, **engine_options):
    engine = SimulationEngine(engine_options.pop("collision_model", None), **engine_options)
    return [
        engine.run(net, make_protocol(), rng=np.random.default_rng(seed))
        for net, seed in zip(networks, seeds)
    ]


def _assert_traces_identical(serial, batched, *, check_arrays=False):
    assert len(serial) == len(batched)
    for s, b in zip(serial, batched):
        assert s.protocol_name == b.protocol_name
        assert s.n == b.n
        assert s.completed == b.completed
        assert s.completion_round == b.completion_round
        assert s.rounds_executed == b.rounds_executed
        assert s.energy == b.energy
        assert s.informed_count == b.informed_count
        if check_arrays:
            assert np.array_equal(s.per_node_transmissions, b.per_node_transmissions)
            if s.informed_round is not None:
                assert np.array_equal(s.informed_round, b.informed_round)


@pytest.fixture(scope="module")
def gnp_batch():
    """Eight distinct G(n, p) samples, as a repetition sweep would draw."""
    n = 192
    p = connectivity_threshold_probability(n, delta=4.0)
    return [random_digraph(n, p, rng=300 + t) for t in range(8)], p


class TestExactEquivalence:
    def test_algorithm1_bit_identical(self, gnp_batch):
        networks, p = gnp_batch
        seeds = list(range(50, 58))
        serial = _serial_runs(
            networks,
            lambda: EnergyEfficientBroadcast(p),
            seeds,
            run_to_quiescence=True,
            keep_arrays=True,
        )
        engine = BatchEngine(run_to_quiescence=True, keep_arrays=True)
        batched = engine.run(
            networks,
            BatchEnergyEfficientBroadcast(p),
            rngs=[np.random.default_rng(s) for s in seeds],
        )
        _assert_traces_identical(serial, batched, check_arrays=True)
        # Schedule metadata and the per-trial |U_t| history also agree.
        for s, b in zip(serial, batched):
            assert s.metadata["T"] == b.metadata["T"]
            assert s.metadata["active_history"] == b.metadata["active_history"]

    def test_gossip_bit_identical(self):
        n = 40
        p = 0.25
        networks = [random_digraph(n, p, rng=400 + t) for t in range(4)]
        seeds = [90, 91, 92, 93]
        serial = _serial_runs(networks, UniformScaleGossip, seeds)
        batched = BatchEngine().run(
            networks,
            BatchUniformScaleGossip(),
            rngs=[np.random.default_rng(s) for s in seeds],
        )
        _assert_traces_identical(serial, batched)

    def test_erasure_model_bit_identical(self, gnp_batch):
        networks, p = gnp_batch
        seeds = list(range(60, 68))
        serial = _serial_runs(
            networks,
            lambda: EnergyEfficientBroadcast(p),
            seeds,
            collision_model=ErasureCollisionModel(0.25),
            run_to_quiescence=True,
        )
        batched = BatchEngine(
            ErasureCollisionModel(0.25), run_to_quiescence=True
        ).run(
            networks,
            BatchEnergyEfficientBroadcast(p),
            rngs=[np.random.default_rng(s) for s in seeds],
        )
        _assert_traces_identical(serial, batched)

    def test_flooding_bit_identical(self, gnp_batch):
        networks, _ = gnp_batch
        seeds = list(range(70, 78))
        serial = _serial_runs(networks, lambda: BernoulliFlood(0.05), seeds)
        batched = BatchEngine().run(
            networks,
            BatchBernoulliFlood(0.05),
            rngs=[np.random.default_rng(s) for s in seeds],
        )
        _assert_traces_identical(serial, batched)

        serial = _serial_runs(
            networks, lambda: DeterministicFlood(max_transmissions_per_node=6), seeds
        )
        batched = BatchEngine().run(
            networks,
            BatchDeterministicFlood(max_transmissions_per_node=6),
            rngs=[np.random.default_rng(s) for s in seeds],
        )
        _assert_traces_identical(serial, batched)

    def test_record_rounds_bit_identical(self, gnp_batch):
        networks, p = gnp_batch
        seeds = list(range(80, 84))
        serial = _serial_runs(
            networks[:4],
            lambda: EnergyEfficientBroadcast(p),
            seeds,
            record_rounds=True,
        )
        batched = BatchEngine(record_rounds=True).run(
            networks[:4],
            BatchEnergyEfficientBroadcast(p),
            rngs=[np.random.default_rng(s) for s in seeds],
        )
        for s, b in zip(serial, batched):
            assert [r.as_dict() for r in s.rounds] == [r.as_dict() for r in b.rounds]

    def test_repeat_job_exact_mode_matches_serial(self):
        graph = GraphSpec("gnp", {"n": 128, "p": 0.08})
        protocol = ProtocolSpec("algorithm1", {"p": 0.08})
        serial = _serial_sweep(
            graph, protocol, repetitions=6, seed=11, run_to_quiescence=True
        )
        batched = repeat_job(
            graph,
            protocol,
            repetitions=6,
            seed=11,
            batch_mode="exact",
            run_to_quiescence=True,
        )
        _assert_traces_identical(serial, batched)
        # The topology samples are the same networks in both paths.
        assert [r.network_name for r in serial] == [r.network_name for r in batched]

    # Every registered protocol, exercised through the registry factories the
    # experiment layer uses.  Exact mode must be bit-identical to serial.
    _REGISTRY_CASES = [
        ("algorithm2", {"p": 0.2}, {"n": 48, "p": 0.2}, {}),
        ("algorithm3", {"diameter": 3}, {"n": 64, "p": 0.18}, {}),
        (
            "algorithm3",
            {"diameter": 3},
            {"n": 64, "p": 0.18},
            {"run_to_quiescence": True},
        ),
        ("tradeoff", {"diameter": 3, "lam": 4.0}, {"n": 64, "p": 0.18}, {}),
        ("decay", {}, {"n": 64, "p": 0.18}, {}),
        (
            "decay",
            {"max_phases_active": 3},
            {"n": 64, "p": 0.18},
            {"run_to_quiescence": True},
        ),
        (
            "time_invariant",
            {"distribution": {"kind": "fixed", "q": 0.06}},
            {"n": 64, "p": 0.18},
            {},
        ),
        (
            "time_invariant",
            {
                "distribution": {"kind": "alpha", "n": 64, "diameter": 3},
                "active_window": 60,
            },
            {"n": 64, "p": 0.18},
            {"run_to_quiescence": True},
        ),
        ("czumaj_rytter_known_d", {"diameter": 3}, {"n": 64, "p": 0.18}, {}),
        ("uniform_selection", {"diameter": 3}, {"n": 64, "p": 0.18}, {}),
        (
            "elsasser_gasieniec",
            {"p": 0.18},
            {"n": 64, "p": 0.18},
            {"run_to_quiescence": True},
        ),
        ("sequential_gossip", {}, {"n": 24, "p": 0.3}, {}),
    ]

    @pytest.mark.parametrize(
        "name,params,graph_params,options",
        _REGISTRY_CASES,
        ids=[
            f"{case[0]}{'-q' if case[3] else ''}{'-capped' if 'max_phases_active' in case[1] or 'active_window' in case[1] else ''}"
            for case in _REGISTRY_CASES
        ],
    )
    def test_registry_protocols_bit_identical(
        self, name, params, graph_params, options
    ):
        graph = GraphSpec("gnp", graph_params)
        protocol = ProtocolSpec(name, params)
        serial = _serial_sweep(graph, protocol, repetitions=4, seed=17, **options)
        batched = repeat_job(
            graph,
            protocol,
            repetitions=4,
            seed=17,
            batch_mode="exact",
            **options,
        )
        _assert_traces_identical(serial, batched)


class TestInvariants:
    def test_at_most_one_transmission_per_trial(self, gnp_batch):
        """Theorem 2.1's invariant holds in every trial of the batch path."""
        networks, p = gnp_batch
        results = run_protocol_batch(
            networks,
            BatchEnergyEfficientBroadcast(p),
            rng=5,
            run_to_quiescence=True,
            keep_arrays=True,
        )
        for result in results:
            assert result.energy.max_per_node <= 1
            assert result.per_node_transmissions.max() <= 1

    def test_stopped_trials_accrue_nothing(self, gnp_batch):
        """A trial that completes early neither transmits nor gains rounds."""
        networks, p = gnp_batch
        results = run_protocol_batch(
            networks, BatchEnergyEfficientBroadcast(p), rng=7
        )
        rounds = [r.rounds_executed for r in results]
        assert min(rounds) < max(rounds)  # trials genuinely stop at different times
        for result in results:
            if result.completed:
                assert result.rounds_executed == result.completion_round

    def test_shared_topology_batch(self, gnp_batch):
        networks, p = gnp_batch
        results = run_protocol_batch(
            networks[0], BatchEnergyEfficientBroadcast(p), trials=5, rng=3
        )
        assert len(results) == 5
        assert all(r.network_name == networks[0].name for r in results)

    @pytest.mark.parametrize("max_rounds", [0, -3])
    @pytest.mark.parametrize("entry", ["run", "run_continuous"])
    def test_non_positive_max_rounds_rejected(self, gnp_batch, entry, max_rounds):
        """Both entry points validate the horizon in their shared loop."""
        networks, p = gnp_batch
        engine = BatchEngine()
        with pytest.raises(ValueError, match="max_rounds must be >= 1"):
            if entry == "run":
                engine.run(
                    networks,
                    BatchEnergyEfficientBroadcast(p),
                    rng=1,
                    max_rounds=max_rounds,
                )
            else:
                engine.run_continuous(
                    [PendingTrial(net, rng=t) for t, net in enumerate(networks)],
                    lambda: BatchEnergyEfficientBroadcast(p),
                    capacity=2,
                    max_rounds=max_rounds,
                )

    def test_run_continuous_requires_exact_mode(self, gnp_batch):
        """Rows move between waves, which a shared fast stream cannot follow."""
        networks, p = gnp_batch
        engine = BatchEngine()
        with pytest.raises(ValueError, match="exact-mode"):
            engine.run_continuous(
                [PendingTrial(net) for net in networks],
                lambda: BatchEnergyEfficientBroadcast(p),
                capacity=2,
            )
        with pytest.raises(ValueError, match="exact-mode"):
            engine.run_continuous(
                [PendingTrial(net, rng=t) for t, net in enumerate(networks)],
                lambda: BatchEnergyEfficientBroadcast(p),
                capacity=2,
                rng=5,
            )


class TestBatchCollision:
    def test_batch_resolution_matches_per_trial_serial(self, gnp_batch):
        """One batched resolve == R serial resolves, trial by trial."""
        networks, _ = gnp_batch
        batch = NetworkBatch(networks)
        rng = np.random.default_rng(17)
        masks = rng.random((batch.trials, batch.n)) < 0.1
        outcome = BatchStandardCollisionModel().resolve(batch, masks)
        serial_model = StandardCollisionModel()
        for t, net in enumerate(networks):
            expected = serial_model.resolve(net, masks[t])
            assert np.array_equal(outcome.receivers_of(t), expected.receivers)
            assert np.array_equal(outcome.senders_of(t), expected.senders)
            assert np.array_equal(outcome.hear_counts[t], expected.hear_counts)
        assert int(outcome.receiver_counts.sum()) == outcome.receiver_flat.size

    def test_network_batch_rejects_mixed_sizes(self):
        a = random_digraph(16, 0.2, rng=1)
        b = random_digraph(17, 0.2, rng=1)
        with pytest.raises(ValueError):
            NetworkBatch([a, b])


class TestFastSeedingAggregates:
    def test_completion_aggregates_match_within_tolerance(self):
        """Fast-mode batching is statistically interchangeable with serial."""
        graph = GraphSpec("gnp", {"n": 256, "p": 0.06})
        protocol = ProtocolSpec("algorithm1", {"p": 0.06})
        serial = aggregate_runs(
            _serial_sweep(
                graph,
                protocol,
                repetitions=24,
                seed=5,
                run_to_quiescence=True,
            )
        )
        batched = aggregate_runs(
            repeat_job(
                graph,
                protocol,
                repetitions=24,
                seed=5,
                run_to_quiescence=True,
            )
        )
        assert batched["runs"] == serial["runs"]
        assert abs(batched["success_rate"] - serial["success_rate"]) <= 0.25
        s_rounds = serial["completion_rounds"].mean
        b_rounds = batched["completion_rounds"].mean
        assert b_rounds == pytest.approx(s_rounds, rel=0.35)
        s_tx = serial["total_transmissions"].mean
        b_tx = batched["total_transmissions"].mean
        assert b_tx == pytest.approx(s_tx, rel=0.35)

    def test_fast_mode_erasure_on_dense_rounds(self):
        """Erasure + listener filter + dense collision rounds compose.

        Regression: the erasure model filters receiver_flat before the lazy
        sender_flat is materialised; on rounds with enough gathered edges to
        take the dense-scan path this used to rebuild the senders from the
        already-filtered receivers and crash on a size mismatch.
        """
        runs = repeat_job(
            GraphSpec("gnp", {"n": 2048, "p": 0.02}),
            ProtocolSpec("algorithm1", {"p": 0.02}),
            repetitions=4,
            seed=0,
            erasure_probability=0.2,
            run_to_quiescence=True,
        )
        assert len(runs) == 4
        assert all(r.energy.max_per_node <= 1 for r in runs)

    def test_invalid_batch_mode_rejected(self):
        with pytest.raises(ValueError):
            repeat_job(
                GraphSpec("gnp", {"n": 32, "p": 0.2}),
                ProtocolSpec("algorithm1", {"p": 0.2}),
                repetitions=2,
                batch_mode="approximate",
            )

    def test_job_metadata_attached(self):
        runs = repeat_job(
            GraphSpec("gnp", {"n": 64, "p": 0.15}),
            ProtocolSpec("algorithm1", {"p": 0.15}),
            repetitions=2,
            seed=9,
            label="batched-sweep",
        )
        for run in runs:
            assert run.metadata["job"]["protocol"]["name"] == "algorithm1"
            assert run.metadata["label"] == "batched-sweep"


class TestRegistryCoverage:
    def test_every_protocol_has_a_batched_implementation(self):
        """The unified pipeline covers the full protocol registry."""
        assert BATCH_PROTOCOL_FACTORIES.keys() == PROTOCOL_FACTORIES.keys()

    def test_batched_names_match_serial_names(self):
        """Batched runs drop into existing experiment tables unchanged."""
        cases = {
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
        assert cases.keys() == PROTOCOL_FACTORIES.keys()
        for name, params in cases.items():
            serial = PROTOCOL_FACTORIES[name](**params)
            batched = BATCH_PROTOCOL_FACTORIES[name](**params)
            assert serial.name == batched.name, name


class TestShardedFanOut:
    def test_plan_shards_are_contiguous_and_cover_all_jobs(self):
        graph = GraphSpec("gnp", {"n": 32, "p": 0.2})
        protocol = ProtocolSpec("algorithm1", {"p": 0.2})
        jobs = tuple(
            Job(graph=graph, protocol=protocol, seed=s) for s in range(7)
        )
        plan = ExecutionPlan(jobs=jobs, processes=3)
        shards = plan.shards()
        assert len(shards) == 3
        sizes = [len(s.jobs) for s in shards]
        assert sum(sizes) == 7 and max(sizes) - min(sizes) <= 1
        flat = [job for shard in shards for job in shard.jobs]
        assert list(flat) == list(jobs)

    def test_sharded_exact_mode_is_bit_identical_to_serial(self):
        """processes=K runs K sharded batches, bit-identical to serial jobs."""
        graph = GraphSpec("gnp", {"n": 96, "p": 0.1})
        protocol = ProtocolSpec("algorithm1", {"p": 0.1})
        serial = _serial_sweep(
            graph, protocol, repetitions=6, seed=3, run_to_quiescence=True
        )
        sharded = repeat_job(
            graph,
            protocol,
            repetitions=6,
            seed=3,
            processes=2,
            batch_mode="exact",
            run_to_quiescence=True,
        )
        _assert_traces_identical(serial, sharded)

    def test_sharded_fast_mode_uses_same_topologies(self):
        graph = GraphSpec("gnp", {"n": 64, "p": 0.15})
        protocol = ProtocolSpec("algorithm2", {"p": 0.15})
        unsharded = repeat_job(graph, protocol, repetitions=4, seed=6)
        sharded = repeat_job(graph, protocol, repetitions=4, seed=6, processes=2)
        assert [r.network_name for r in unsharded] == [
            r.network_name for r in sharded
        ]
        assert all(r.completed for r in sharded)

