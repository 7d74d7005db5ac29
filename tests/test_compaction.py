"""Continuous batching: bit-identity, resume, and state repack.

Contracts pinned here:

1. **Compaction is an execution detail.**  :meth:`BatchEngine.run` is one
   admission wave of the engine's round loop; :meth:`BatchEngine.run_continuous`
   drives the same loop through refilled waves.  For every protocol in the
   batch registry, an exact-mode stream — with refills and compactions
   forced by a small capacity — produces traces bit-identical to the single
   wave, with and without a stochastic environment (``iid_loss``,
   ``churn``), and under the erasure and collision-detection models with
   two cohorts live in the same round.
2. **Resume crosses compaction boundaries.**  A continuous sweep killed
   mid-run keeps its per-trial checkpoints; the resumed sweep serves them
   from the store and completes bit-identically to an uninterrupted run.
3. **State repacks are lossless.**  Every state class (node set,
   knowledge, quota and budget frontier) survives ``select_rows`` with the
   surviving rows' state intact, whether it keeps a scattered subset, every
   row, no row or only the last.
4. **Dead trials cost nothing.**  On sub-threshold ``G(n, p)`` the
   continuous stream retires each disconnected straggler before the round
   cap, completes the other trials in the same rounds as static shards
   without retirement, and spends fewer trial-rounds.
5. **The continuous engine is observable.**  A traced run emits occupancy
   gauges plus compaction / refill / dead-retirement counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.baselines.decay import DecayBroadcast
from repro.experiments.protocols import PROTOCOL_FACTORIES, ProtocolSpec
from repro.radio.environment import build_environment
from repro.experiments.runner import repeat_job
from repro.graphs.builders import GraphSpec
from repro.graphs.random_digraph import (
    connectivity_threshold_probability,
    random_digraph,
)
from repro.radio.batch import BatchEngine, PendingTrial
from repro.radio.collision import (
    BatchErasureCollisionModel,
    BatchWithCollisionDetectionModel,
)
from repro.radio.nodesets import (
    BudgetFrontier,
    KnowledgeState,
    NodeSetState,
    QuotaFrontier,
)
from repro.store import ResultStore
from repro.telemetry import MemorySink, configure_telemetry, telemetry_shutdown

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

ENV_SPECS = {
    "iid_loss": {"name": "iid_loss", "params": {"tx_loss": 0.1, "rx_loss": 0.15}},
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

#: Collision models besides the standard one: the erasure model draws per
#: delivered edge and the detection model fills collision flags, so each
#: trial's outcome must come out of its own cohort's resolution unchanged.
MODELS = {
    "erasure": lambda: BatchErasureCollisionModel(0.25),
    "collision_detection": BatchWithCollisionDetectionModel,
}

TRIALS = 7
#: Deliberately < TRIALS so the continuous run must retire, compact, and
#: refill several times; watermark=1.0 makes every retirement trigger the
#: refill check (maximum compaction churn).
CAPACITY = 3
MAX_ROUNDS = 300


@pytest.fixture(scope="module")
def net96():
    return random_digraph(96, 0.08, rng=11)


@pytest.fixture(scope="module")
def nets96():
    """One topology per trial, so trials of every protocol stop at different
    rounds and a refill lands while an older cohort is still running."""
    return [random_digraph(96, 0.1, rng=11 + t) for t in range(TRIALS)]


def _trial_rngs(seed0=500, trials=TRIALS):
    return [np.random.default_rng(seed0 + t) for t in range(trials)]


def _engine(env_name=None, model=None):
    environment = (
        build_environment(ENV_SPECS[env_name]) if env_name else None
    )
    return BatchEngine(model, environment=environment)


def _per_trial(net):
    return net if isinstance(net, list) else [net] * TRIALS


def _run_sharded(net, protocol_name, env_name=None, model=None):
    factory = PROTOCOL_FACTORIES[protocol_name]
    return _engine(env_name, model).run(
        _per_trial(net),
        factory(**PROTOCOL_PARAMS[protocol_name]),
        rngs=_trial_rngs(),
        max_rounds=MAX_ROUNDS,
    )


def _run_continuous(net, protocol_name, env_name=None, model=None):
    factory = PROTOCOL_FACTORIES[protocol_name]
    params = PROTOCOL_PARAMS[protocol_name]
    cohorts = {"built": 0}

    def make_protocol():
        cohorts["built"] += 1
        return factory(**params)

    pending = (
        PendingTrial(trial_net, rng=rng, tag=t)
        for t, (trial_net, rng) in enumerate(
            zip(_per_trial(net), _trial_rngs())
        )
    )
    traces = _engine(env_name, model).run_continuous(
        pending,
        make_protocol,
        capacity=CAPACITY,
        watermark=1.0,
        max_rounds=MAX_ROUNDS,
    )
    return traces, cohorts["built"]


def _assert_traces_identical(sharded, continuous):
    assert len(sharded) == len(continuous)
    for s, c in zip(sharded, continuous):
        assert s.completed == c.completed
        assert s.completion_round == c.completion_round
        assert s.rounds_executed == c.rounds_executed
        assert s.energy == c.energy
        assert s.informed_count == c.informed_count
        assert s.metadata.get("active_history") == c.metadata.get(
            "active_history"
        )
        assert s.metadata.get("environment") == c.metadata.get("environment")


# --------------------------------------------------------------------------- #
# Exact-mode bit-identity, every registry protocol
# --------------------------------------------------------------------------- #
#: Protocols whose trials all stop in the same round on the shared ``net96``,
#: so every refill there lands on an empty batch; they run on one topology
#: per trial instead, where a refill joins a cohort that is still running.
PER_TRIAL_TOPOLOGY = {"deterministic_flood", "elsasser_gasieniec"}


def _run_continuous_traced(net, protocol_name, model=None):
    """:func:`_run_continuous` under a telemetry capture: the traces, the
    cohort count and every ``engine.refill`` event's attributes."""
    telemetry_shutdown()
    sink = MemorySink()
    configure_telemetry(sink=sink)
    try:
        traces, cohorts = _run_continuous(net, protocol_name, model=model)
    finally:
        telemetry_shutdown()
    refills = [r["attrs"] for r in sink.records if r.get("name") == "engine.refill"]
    return traces, cohorts, refills


def _cohorts_overlapped(refills):
    """Some refill joined trials that were still running: two cohorts were
    live in the same round."""
    return any(a["occupancy"] * CAPACITY > a["added"] for a in refills)


class TestContinuousBitIdentity:
    @pytest.mark.parametrize("protocol_name", sorted(PROTOCOL_FACTORIES))
    def test_matches_run_for_every_protocol(self, net96, nets96, protocol_name):
        assert PROTOCOL_PARAMS.keys() == PROTOCOL_FACTORIES.keys()
        net = nets96 if protocol_name in PER_TRIAL_TOPOLOGY else net96
        sharded = _run_sharded(net, protocol_name)
        continuous, cohorts, refills = _run_continuous_traced(net, protocol_name)
        # capacity < trials forces at least one refill wave, so the sweep
        # actually crossed an admission (and hence compaction) boundary.
        assert cohorts > 1
        assert _cohorts_overlapped(refills)
        _assert_traces_identical(sharded, continuous)

    @pytest.mark.parametrize("env_name", sorted(ENV_SPECS))
    @pytest.mark.parametrize("protocol_name", sorted(PROTOCOL_FACTORIES))
    def test_matches_run_under_faults(self, net96, protocol_name, env_name):
        sharded = _run_sharded(net96, protocol_name, env_name)
        continuous, cohorts = _run_continuous(net96, protocol_name, env_name)
        assert cohorts > 1
        _assert_traces_identical(sharded, continuous)

    @pytest.mark.parametrize("model_name", sorted(MODELS))
    @pytest.mark.parametrize("protocol_name", sorted(PROTOCOL_FACTORIES))
    def test_matches_run_under_collision_model(
        self, nets96, protocol_name, model_name
    ):
        sharded = _run_sharded(nets96, protocol_name, model=MODELS[model_name]())
        continuous, _, refills = _run_continuous_traced(
            nets96, protocol_name, model=MODELS[model_name]()
        )
        assert _cohorts_overlapped(refills)
        _assert_traces_identical(sharded, continuous)


# --------------------------------------------------------------------------- #
# Dead trials retire before the round cap (small form of the sub-threshold
# benchmark cell in benchmarks/test_bench_compaction.py)
# --------------------------------------------------------------------------- #
class TestSubthresholdStragglers:
    N = 128
    TRIALS = 24
    SHARD = 8
    CAP = 2000

    def test_stragglers_retire_and_save_trial_rounds(self):
        p = 0.25 * connectivity_threshold_probability(self.N, delta=4.0)
        nets = [
            random_digraph(self.N, p, rng=1000 + t) for t in range(self.TRIALS)
        ]
        continuous = BatchEngine().run_continuous(
            [PendingTrial(net, rng=2000 + t) for t, net in enumerate(nets)],
            DecayBroadcast,
            capacity=self.SHARD,
            max_rounds=self.CAP,
        )
        # The engine before dead retirement: static shards, no retirement.
        static = []
        for base in range(0, self.TRIALS, self.SHARD):
            static += BatchEngine(retire_dead=False).run(
                nets[base : base + self.SHARD],
                DecayBroadcast(),
                rngs=[2000 + base + i for i in range(self.SHARD)],
                max_rounds=self.CAP,
            )
        assert [r.completed for r in continuous] == [r.completed for r in static]
        for c, s in zip(continuous, static):
            if c.completed:
                assert c.completion_round == s.completion_round
        stragglers = [r for r in continuous if not r.completed]
        assert stragglers, "the sub-threshold sample must hold a straggler"
        assert all(r.rounds_executed < self.CAP for r in stragglers)
        assert sum(r.rounds_executed for r in continuous) < sum(
            r.rounds_executed for r in static
        )


# --------------------------------------------------------------------------- #
# Unit-level repack round-trips
# --------------------------------------------------------------------------- #
#: Survivor masks over five trials: a scattered subset, every trial (the
#: repack is a no-op), none (the last cohort retires at once) and only the
#: last row (every survivor moves up).
KEEPS = {
    "scattered": [True, False, True, True, False],
    "all": [True] * 5,
    "none": [False] * 5,
    "last": [False, False, False, False, True],
}


@pytest.fixture(params=sorted(KEEPS))
def keep(request):
    return np.array(KEEPS[request.param], dtype=bool)


class TestStateRepackUnit:
    def test_nodeset_roundtrip(self, keep):
        rng = np.random.default_rng(42)
        state = NodeSetState(5, 17)
        members = rng.choice(5 * 17, size=30, replace=False)
        state.add_flat(members)
        before_mask = state.mask().copy()
        before_counts = state.counts().copy()
        state.select_rows(keep)
        assert state.trials == keep.sum()
        np.testing.assert_array_equal(state.mask(), before_mask[keep])
        np.testing.assert_array_equal(state.counts(), before_counts[keep])
        np.testing.assert_array_equal(
            state.complement_flat(), ~before_mask[keep].reshape(-1)
        )
        # The repacked state keeps working: re-adding members is a no-op,
        # new members land in the right rows.
        still_member = np.flatnonzero(state.mask().reshape(-1))[:1]
        assert state.add_flat(still_member).size == 0
        fresh = np.flatnonzero(~state.mask().reshape(-1))[:1]
        np.testing.assert_array_equal(state.add_flat(fresh), fresh)
        np.testing.assert_array_equal(state.counts(), state.mask().sum(axis=1))

    def test_knowledge_roundtrip(self, keep):
        rng = np.random.default_rng(5)
        n = 11
        state = KnowledgeState(5, n)
        receivers = rng.choice(5 * n, size=20, replace=False)
        senders = (receivers // n) * n + rng.integers(0, n, size=receivers.size)
        state.merge_flat(senders, receivers)
        before = state.as_dense().copy()
        state.select_rows(keep)
        assert state.trials == keep.sum()
        np.testing.assert_array_equal(state.as_dense(), before[keep])
        np.testing.assert_array_equal(
            state.per_node_counts(), before[keep].sum(axis=2)
        )
        # A merge after the repack addresses the compacted rows: every node
        # of every surviving trial learns node 0's rumours.
        rows = np.arange(state.trials * n)
        state.merge_flat((rows // n) * n, rows)
        expected = before[keep] | before[keep][:, :1, :]
        np.testing.assert_array_equal(state.as_dense(), expected)

    def test_quota_frontier_roundtrip(self, keep):
        rng = np.random.default_rng(7)
        n = 13
        participating = rng.random((5, n)) < 0.4
        values = rng.integers(1, 6, size=int(participating.sum()))
        state = QuotaFrontier(5, n)
        state.begin_phase(participating, values)
        state.select_rows(keep)
        # Reference: the same phase begun on the surviving rows alone.
        reference = QuotaFrontier(int(keep.sum()), n)
        reference.begin_phase(
            participating[keep],
            values[np.repeat(keep, participating.sum(axis=1))],
        )
        running = np.ones(reference.trials, dtype=bool)
        for within in range(6):
            np.testing.assert_array_equal(
                state.transmitters(within, running),
                reference.transmitters(within, running),
            )

    def test_budget_frontier_roundtrip(self, keep):
        rng = np.random.default_rng(9)
        n = 13
        ids = np.sort(rng.choice(5 * n, size=24, replace=False))
        state = BudgetFrontier(5, n)
        state.admit(ids, 2)
        state.select_rows(keep)
        # Reference: the surviving ids admitted straight into the compacted
        # trial space.
        kept = ids[keep[ids // n]]
        new_row = np.cumsum(keep) - 1
        reference = BudgetFrontier(int(keep.sum()), n)
        reference.admit(new_row[kept // n] * n + kept % n, 2)
        np.testing.assert_array_equal(state.counts(), reference.counts())
        running = np.ones(reference.trials, dtype=bool)
        while reference.counts().any():
            np.testing.assert_array_equal(
                state.transmitters(running), reference.transmitters(running)
            )
            np.testing.assert_array_equal(state.counts(), reference.counts())
        assert not state.counts().any()


# --------------------------------------------------------------------------- #
# Resume across a compaction boundary
# --------------------------------------------------------------------------- #
GRAPH = GraphSpec("gnp", {"n": 64, "p": 0.15})
PROTOCOL = ProtocolSpec("algorithm1", {"p": 0.15})
SWEEP = dict(
    repetitions=6, seed=0, batch_mode="exact", max_rounds=300, shards=3
)


class TestResumeAcrossCompaction:
    def test_interrupted_continuous_sweep_resumes(self, tmp_path, monkeypatch):
        baseline = repeat_job(GRAPH, PROTOCOL, **SWEEP, store=False)
        # Trials finish at different rounds, so with capacity 2 (6 reps in
        # 3 shards) the engine compacts and refills between checkpoints.
        assert len({t.completion_round for t in baseline}) > 1

        store = ResultStore(tmp_path)
        real_put = ResultStore.put
        puts = {"n": 0}

        def dies_mid_stream(self, key, payload):
            puts["n"] += 1
            if puts["n"] == 3:
                raise KeyboardInterrupt("simulated death mid-continuous-run")
            return real_put(self, key, payload)

        monkeypatch.setattr(ResultStore, "put", dies_mid_stream)
        with pytest.raises(KeyboardInterrupt):
            repeat_job(GRAPH, PROTOCOL, **SWEEP, store=store)
        monkeypatch.setattr(ResultStore, "put", real_put)

        # The first two streamed trials survived the crash as per-trial
        # checkpoints (finer granularity than the sharded engine's
        # per-shard sink).
        assert store.stats()["entries"] == 2
        store.reset_counters()
        resumed = repeat_job(GRAPH, PROTOCOL, **SWEEP, store=store)
        assert store.hits == 2 and store.misses == 4
        assert len(resumed) == len(baseline)
        _assert_traces_identical(baseline, resumed)


# --------------------------------------------------------------------------- #
# Telemetry: occupancy + compaction counters
# --------------------------------------------------------------------------- #
class TestContinuousTelemetry:
    def test_traced_run_reports_occupancy_and_compactions(self, net96):
        telemetry_shutdown()
        sink = MemorySink()
        configure_telemetry(sink=sink)
        try:
            _run_continuous(net96, "decay")
            registry = telemetry.current_registry()
            snapshot = registry.snapshot()
        finally:
            telemetry_shutdown()
        counters = snapshot["counters"]
        gauges = snapshot["gauges"]
        assert counters.get("engine.compactions", 0) >= 1
        assert counters.get("engine.refills", 0) >= 1
        assert counters.get("engine.trials") == TRIALS
        assert "engine.occupancy" in gauges
        assert 0.0 < gauges["engine.occupancy"] <= 1.0
        names = [r.get("name") for r in sink.records]
        assert "engine.compaction" in names
        assert "engine.refill" in names
