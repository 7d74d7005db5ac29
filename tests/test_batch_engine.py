"""The batch engine: invariants, collision resolution, fast-mode seeding
and sharded fan-out.

Exact mode (one generator per trial) is pinned by the golden corpus
(``tests/test_golden.py``), including the single-run entry points
``SimulationEngine``, ``execute_job`` and ``run_protocol`` against
``BatchEngine`` calls.  Fast mode (one shared generator, vectorised draws)
spawns the same per-trial topologies and seeds as exact mode, so aggregates
are statistically interchangeable — asserted here within tolerance on
completion-round and energy statistics.
"""

import numpy as np
import pytest

from repro.core.broadcast_random import EnergyEfficientBroadcast
import repro.experiments.runner as runner_module
from repro.experiments.protocols import PROTOCOL_FACTORIES, ProtocolSpec, build_protocol
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
    BatchBroadcastProtocol,
    BatchEngine,
    NetworkBatch,
    PendingTrial,
    run_protocol_batch,
)
from repro.radio.collision import BatchStandardCollisionModel, StandardCollisionModel


def _job_by_job(graph, protocol, **options):
    """A ``repeat_job`` sweep run as one :func:`execute_job` per job."""
    return [execute_job(j) for j in build_repetition_plan(graph, protocol, **options).jobs]


def _engine_sweep(graph, protocol, **options):
    """An exact ``repeat_job`` sweep run straight on a :class:`BatchEngine`:
    the same per-trial networks, protocol streams and engine options the
    sweep uses, so it must give the sweep's bits."""
    plan = build_repetition_plan(graph, protocol, batch_mode="exact", **options)
    job = plan.jobs[0]
    engine = BatchEngine(
        runner_module._collision_model_for(job),
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
        build_protocol(protocol),
        rngs=list(rngs),
        max_rounds=job.max_rounds,
    )


def _assert_traces_identical(expected, batched, *, check_arrays=False):
    assert len(expected) == len(batched)
    for s, b in zip(expected, batched):
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


#: Minimal valid parameters per registry protocol.
_MINIMAL_PARAMS = {
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


@pytest.fixture(scope="module")
def gnp_batch():
    """Eight distinct G(n, p) samples, as a repetition sweep would draw."""
    n = 192
    p = connectivity_threshold_probability(n, delta=4.0)
    return [random_digraph(n, p, rng=300 + t) for t in range(8)], p


#: One exact-mode sweep case per registry protocol family:
#: ``(name, params, graph params, engine options)``.  The golden corpus pins
#: them (``oracle-sweep/registry-*``); ``TestEngineEquivalence`` replays them.
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

_REGISTRY_IDS = [
    f"{case[0]}{'-q' if case[3] else ''}"
    f"{'-capped' if 'max_phases_active' in case[1] or 'active_window' in case[1] else ''}"
    for case in _REGISTRY_CASES
]


class TestInvariants:
    def test_at_most_one_transmission_per_trial(self, gnp_batch):
        """Theorem 2.1's invariant holds in every trial of the batch path."""
        networks, p = gnp_batch
        results = run_protocol_batch(
            networks,
            EnergyEfficientBroadcast(p),
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
            networks, EnergyEfficientBroadcast(p), rng=7
        )
        rounds = [r.rounds_executed for r in results]
        assert min(rounds) < max(rounds)  # trials genuinely stop at different times
        for result in results:
            if result.completed:
                assert result.rounds_executed == result.completion_round

    def test_shared_topology_batch(self, gnp_batch):
        networks, p = gnp_batch
        results = run_protocol_batch(
            networks[0], EnergyEfficientBroadcast(p), trials=5, rng=3
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
                    EnergyEfficientBroadcast(p),
                    rng=1,
                    max_rounds=max_rounds,
                )
            else:
                engine.run_continuous(
                    [PendingTrial(net, rng=t) for t, net in enumerate(networks)],
                    lambda: EnergyEfficientBroadcast(p),
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
                lambda: EnergyEfficientBroadcast(p),
                capacity=2,
            )
        with pytest.raises(ValueError, match="exact-mode"):
            engine.run_continuous(
                [PendingTrial(net, rng=t) for t, net in enumerate(networks)],
                lambda: EnergyEfficientBroadcast(p),
                capacity=2,
                rng=5,
            )


class TestInformedCounts:
    """``NodeSetState.add_flat`` takes unique ids and keeps its counts
    incrementally; the engine's receivers are unique per round, so the
    counts always equal the informed mask's row sums.  Exact mode compacts
    rows as trials stop, so each trace is checked against its own
    ``informed_round`` row and the protocol against the rows it holds at
    the end."""

    BROADCASTS = [
        name
        for name in sorted(PROTOCOL_FACTORIES)
        if isinstance(build_protocol(ProtocolSpec(name, _MINIMAL_PARAMS[name])),
                      BatchBroadcastProtocol)
    ]

    # ``record_rounds`` turns interest trimming off, so receivers then
    # include already-informed nodes.
    @pytest.mark.parametrize("record_rounds", [False, True])
    @pytest.mark.parametrize("name", BROADCASTS)
    def test_counts_match_mask_after_exact_run(self, gnp_batch, name, record_rounds):
        networks, _ = gnp_batch
        protocol = build_protocol(ProtocolSpec(name, _MINIMAL_PARAMS[name]))
        results = BatchEngine(
            run_to_quiescence=True, keep_arrays=True, record_rounds=record_rounds
        ).run(
            networks,
            protocol,
            rngs=[np.random.default_rng(20 + t) for t in range(len(networks))],
            max_rounds=400,
        )
        for result in results:
            assert result.informed_count == int((result.informed_round >= 0).sum())
        np.testing.assert_array_equal(
            protocol.informed_counts(), protocol.informed.sum(axis=1)
        )


class TestBatchCollision:
    def test_batch_resolution_matches_per_network_resolution(self, gnp_batch):
        """One batched resolve == R one-network resolves, trial by trial."""
        networks, _ = gnp_batch
        batch = NetworkBatch(networks)
        rng = np.random.default_rng(17)
        masks = rng.random((batch.trials, batch.n)) < 0.1
        outcome = BatchStandardCollisionModel().resolve(batch, masks)
        single_model = StandardCollisionModel()
        for t, net in enumerate(networks):
            expected = single_model.resolve(net, masks[t])
            assert np.array_equal(outcome.receivers_of(t), expected.receivers)
            assert np.array_equal(outcome.senders_of(t), expected.senders)
            assert np.array_equal(outcome.hear_counts[t], expected.hear_counts)
        assert int(outcome.receiver_counts.sum()) == outcome.receiver_flat.size

    def test_network_batch_rejects_mixed_sizes(self):
        a = random_digraph(16, 0.2, rng=1)
        b = random_digraph(17, 0.2, rng=1)
        with pytest.raises(ValueError):
            NetworkBatch([a, b])


class TestEngineEquivalence:
    """A sweep run straight on :class:`BatchEngine` is bit-identical to the
    exact-mode ``repeat_job`` sweep, for every registry protocol family and
    under a faulty-world environment."""

    @pytest.mark.parametrize(
        "name,params,graph_params,options", _REGISTRY_CASES, ids=_REGISTRY_IDS
    )
    def test_registry_protocols_bit_identical(
        self, name, params, graph_params, options
    ):
        common = dict(repetitions=4, seed=17, **options)
        graph = GraphSpec("gnp", graph_params)
        protocol = ProtocolSpec(name, params)
        _assert_traces_identical(
            _engine_sweep(graph, protocol, **common),
            repeat_job(graph, protocol, batch_mode="exact", **common),
            check_arrays=True,
        )

    @pytest.mark.parametrize(
        "environment",
        [
            {"name": "iid_loss", "params": {"rx_loss": 0.15}},
            {
                "name": "churn",
                "params": {"events": [{"round": 4, "crash_fraction": 0.2}]},
            },
        ],
        ids=["lossy", "churny"],
    )
    def test_environment_runs_bit_identical(self, environment):
        common = dict(repetitions=4, seed=23, environment=environment)
        graph = GraphSpec("gnp", {"n": 48, "p": 0.25})
        protocol = ProtocolSpec("decay", {})
        _assert_traces_identical(
            _engine_sweep(graph, protocol, **common),
            repeat_job(graph, protocol, batch_mode="exact", **common),
            check_arrays=True,
        )


class TestFastSeedingAggregates:
    def test_completion_aggregates_match_within_tolerance(self):
        """Fast-mode batching is statistically interchangeable with exact
        mode (here: one ``execute_job`` per job)."""
        graph = GraphSpec("gnp", {"n": 256, "p": 0.06})
        protocol = ProtocolSpec("algorithm1", {"p": 0.06})
        exact = aggregate_runs(
            _job_by_job(
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
        assert batched["runs"] == exact["runs"]
        assert abs(batched["success_rate"] - exact["success_rate"]) <= 0.25
        s_rounds = exact["completion_rounds"].mean
        b_rounds = batched["completion_rounds"].mean
        assert b_rounds == pytest.approx(s_rounds, rel=0.35)
        s_tx = exact["total_transmissions"].mean
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

    def test_sharded_fast_mode_uses_same_topologies(self):
        graph = GraphSpec("gnp", {"n": 64, "p": 0.15})
        protocol = ProtocolSpec("algorithm2", {"p": 0.15})
        unsharded = repeat_job(graph, protocol, repetitions=4, seed=6)
        sharded = repeat_job(graph, protocol, repetitions=4, seed=6, processes=2)
        assert [r.network_name for r in unsharded] == [
            r.network_name for r in sharded
        ]
        assert all(r.completed for r in sharded)

