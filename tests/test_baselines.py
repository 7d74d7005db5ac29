"""Tests for the baseline protocols (flooding, Decay, EG, CR, phone call, gossip)."""

import math

import numpy as np
import pytest

from repro.baselines.czumaj_rytter import KnownDiameterCR, UniformSelectionBroadcast
from repro.baselines.decay import DecayBroadcast
from repro.baselines.elsasser_gasieniec import ElsasserGasieniecBroadcast
from repro.baselines.flooding import BernoulliFlood, DeterministicFlood
from repro.baselines.gossip_uniform import UniformScaleGossip
from repro.baselines.phone_call import run_push_broadcast, run_push_gossip
from repro.core.broadcast_general import KnownDiameterBroadcast
from repro.graphs.properties import source_eccentricity
from repro.graphs.random_digraph import connectivity_threshold_probability, random_digraph
from repro.graphs.structured import path_network, path_of_cliques, star_network
from repro.radio.engine import run_protocol

from one_trial import bind_one

RUNNING = np.ones(1, dtype=bool)


@pytest.fixture(scope="module")
def gnp_baseline():
    n = 256
    p = connectivity_threshold_probability(n, delta=4.0)
    return random_digraph(n, p, rng=42), p


class TestFlooding:
    def test_deterministic_flood_on_path(self, small_path):
        result = run_protocol(small_path, DeterministicFlood(), rng=1)
        assert result.completed
        assert result.completion_round == small_path.n - 1

    def test_deterministic_flood_collides_on_dense(self, gnp_baseline):
        network, _ = gnp_baseline
        result = run_protocol(network, DeterministicFlood(), rng=1, max_rounds=200)
        # Collisions freeze the frontier almost immediately.
        assert not result.completed

    def test_flood_transmission_cap(self, small_path):
        protocol = DeterministicFlood(max_transmissions_per_node=3)
        result = run_protocol(
            small_path, protocol, rng=1, keep_arrays=True, max_rounds=100
        )
        assert result.per_node_transmissions.max() <= 3

    def test_bernoulli_flood_completes_on_dense(self, gnp_baseline):
        network, p = gnp_baseline
        result = run_protocol(
            network, BernoulliFlood(1.0 / (network.n * p)), rng=2
        )
        assert result.completed

    def test_bernoulli_flood_invalid_q(self):
        with pytest.raises(ValueError):
            BernoulliFlood(0.0)


class TestDecay:
    def test_completes_on_random_network(self, gnp_baseline):
        network, _ = gnp_baseline
        result = run_protocol(network, DecayBroadcast(), rng=3)
        assert result.completed

    def test_completes_on_path_of_cliques(self):
        network = path_of_cliques(6, 6)
        result = run_protocol(network, DecayBroadcast(), rng=4)
        assert result.completed

    def test_phase_length(self, gnp_baseline):
        network, _ = gnp_baseline
        protocol = DecayBroadcast()
        bind_one(protocol, network, 1)
        assert protocol.phase_length == math.ceil(2 * math.log2(network.n))

    def test_max_phases_active_limits_energy(self):
        network = path_of_cliques(4, 6)
        unlimited = run_protocol(
            network, DecayBroadcast(), rng=5, keep_arrays=True
        )
        limited = run_protocol(
            network,
            DecayBroadcast(max_phases_active=2),
            rng=5,
            keep_arrays=True,
            max_rounds=unlimited.rounds_executed,
        )
        assert (
            limited.energy.total_transmissions
            <= unlimited.energy.total_transmissions
        )

    def test_energy_grows_with_time(self, gnp_baseline):
        """Decay has no retirement: nodes keep transmitting every phase."""
        network, _ = gnp_baseline
        result = run_protocol(network, DecayBroadcast(), rng=6, keep_arrays=True)
        # The source participates in every phase, so it transmits more than once.
        assert result.per_node_transmissions[0] >= 2


class TestElsasserGasieniec:
    def test_completes(self, gnp_baseline):
        network, p = gnp_baseline
        result = run_protocol(network, ElsasserGasieniecBroadcast(p), rng=7)
        assert result.completed

    def test_multiple_transmissions_per_node_allowed(self, gnp_baseline):
        network, p = gnp_baseline
        protocol = ElsasserGasieniecBroadcast(p)
        result = run_protocol(network, protocol, rng=8, keep_arrays=True)
        # Phase 1 lasts D-1 rounds with probability-1 transmissions, so nodes
        # informed early transmit more than once whenever D >= 2... but at most D-1+
        # (1 phase-2) + phase-3 transmissions.
        assert result.per_node_transmissions.max() >= 1
        assert result.per_node_transmissions.max() <= protocol.D + protocol.phase3_rounds

    def test_parameterisation(self, gnp_baseline):
        network, p = gnp_baseline
        protocol = ElsasserGasieniecBroadcast(p)
        bind_one(protocol, network, 1)
        assert protocol.D >= 1
        assert 0 < protocol.phase2_probability <= 1
        assert protocol.phase3_probability == pytest.approx(
            min(1.0, 1.0 / protocol.d)
        )

    def test_phase_labels(self, gnp_baseline):
        network, p = gnp_baseline
        protocol = ElsasserGasieniecBroadcast(p)
        bind_one(protocol, network, 1)
        if protocol.D >= 2:
            assert protocol.phase_of_round(0) == "phase1"
        assert protocol.phase_of_round(protocol.D - 1) == "phase2"
        assert protocol.phase_of_round(protocol.D) == "phase3"


class TestCzumajRytterBaselines:
    def test_cr_uses_alpha_prime_and_longer_window(self):
        network = path_of_cliques(6, 6)
        diameter = source_eccentricity(network, 0)
        cr = KnownDiameterCR(diameter)
        alg3 = KnownDiameterBroadcast(diameter)
        bind_one(cr, network, 1)
        bind_one(alg3, network, 1)
        assert "alpha_prime" in cr.distribution.name
        assert cr.active_window > alg3.active_window

    def test_cr_completes(self):
        network = path_of_cliques(6, 6)
        diameter = source_eccentricity(network, 0)
        result = run_protocol(network, KnownDiameterCR(diameter), rng=2)
        assert result.completed

    def test_cr_spends_more_energy_than_alg3(self):
        network = path_of_cliques(8, 8)
        diameter = source_eccentricity(network, 0)
        cr = run_protocol(
            network, KnownDiameterCR(diameter), rng=3, run_to_quiescence=True
        )
        alg3 = run_protocol(
            network, KnownDiameterBroadcast(diameter), rng=3, run_to_quiescence=True
        )
        assert cr.completed and alg3.completed
        assert cr.energy.mean_per_node > alg3.energy.mean_per_node

    def test_uniform_selection_completes(self):
        network = path_of_cliques(6, 6)
        diameter = source_eccentricity(network, 0)
        result = run_protocol(network, UniformSelectionBroadcast(diameter), rng=4)
        assert result.completed

    def test_uniform_selection_distribution(self):
        network = path_of_cliques(4, 4)
        protocol = UniformSelectionBroadcast(7)
        bind_one(protocol, network, 1)
        assert "uniform" in protocol.distribution.name


class TestPhoneCall:
    def test_push_broadcast_completes(self, gnp_baseline):
        network, _ = gnp_baseline
        result = run_push_broadcast(network, rng=1)
        assert result.completed
        assert result.completion_round <= 10 * math.log2(network.n)
        assert result.total_transmissions > 0

    def test_push_broadcast_on_star(self):
        result = run_push_broadcast(star_network(20), source=0, rng=2)
        assert result.completed

    def test_push_broadcast_horizon(self, small_path):
        result = run_push_broadcast(small_path, rng=3, max_rounds=2)
        assert not result.completed
        assert result.completion_round == 2

    def test_push_gossip_completes(self, gnp_baseline):
        network, _ = gnp_baseline
        result = run_push_gossip(network, rng=4)
        assert result.completed
        assert result.max_per_node == result.completion_round  # everyone calls every round

    def test_push_broadcast_invalid_source(self, small_path):
        with pytest.raises(ValueError):
            run_push_broadcast(small_path, source=99, rng=1)

    def test_result_as_dict(self, small_path):
        payload = run_push_broadcast(small_path, rng=5).as_dict()
        assert {"completed", "completion_round", "total_transmissions"} <= set(payload)


class TestUniformScaleGossip:
    def test_completes_on_small_network(self):
        network = path_of_cliques(3, 5)
        result = run_protocol(network, UniformScaleGossip(), rng=1)
        assert result.completed

    def test_budget_quiescence(self):
        network = path_network(6)
        protocol = UniformScaleGossip(rounds_constant=0.5)
        bind_one(protocol, network, 1)
        assert protocol.quiescent(protocol.round_budget)[0]
        assert not protocol.transmit_masks(protocol.round_budget + 1, RUNNING)[0].any()

    def test_invalid_constant(self):
        with pytest.raises(ValueError):
            UniformScaleGossip(rounds_constant=0)
