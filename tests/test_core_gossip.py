"""Tests for Algorithm 2 (RandomNetworkGossip)."""

import math

import numpy as np
import pytest

from repro.core.gossip_random import RandomNetworkGossip
from repro.graphs.random_digraph import connectivity_threshold_probability, random_digraph
from repro.radio.engine import run_protocol

from one_trial import bind_one

RUNNING = np.ones(1, dtype=bool)


@pytest.fixture(scope="module")
def gossip_network():
    n = 128
    p = connectivity_threshold_probability(n, delta=4.0)
    return random_digraph(n, p, rng=55), p


class TestParameterisation:
    def test_round_budget(self, gossip_network):
        network, p = gossip_network
        protocol = RandomNetworkGossip(p, rounds_constant=8.0)
        bind_one(protocol, network, 1)
        n = network.n
        assert protocol.round_budget == math.ceil(8.0 * n * p * math.log2(n))
        assert protocol.transmit_probability == pytest.approx(1.0 / (n * p))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RandomNetworkGossip(0.0)
        with pytest.raises(ValueError):
            RandomNetworkGossip(0.1, rounds_constant=0)

    def test_transmit_probability_capped(self):
        protocol = RandomNetworkGossip(0.001)
        bind_one(protocol, random_digraph(50, 0.2, rng=1), 1)
        assert protocol.transmit_probability <= 1.0


class TestBehaviour:
    def test_gossip_completes(self, gossip_network):
        network, p = gossip_network
        result = run_protocol(network, RandomNetworkGossip(p), rng=3)
        assert result.completed
        assert result.informed_count == network.n  # min rumours known

    def test_completion_time_scales_with_d_log_n(self, gossip_network):
        network, p = gossip_network
        n = network.n
        result = run_protocol(network, RandomNetworkGossip(p), rng=4)
        assert result.completed
        assert result.completion_round <= 8 * (n * p) * math.log2(n)

    def test_per_node_transmissions_logarithmic(self, gossip_network):
        network, p = gossip_network
        result = run_protocol(network, RandomNetworkGossip(p), rng=5)
        # O(log n) transmissions per node at completion (Theorem 3.2 shape).
        assert result.energy.max_per_node <= 12 * math.log2(network.n)

    def test_no_transmissions_after_budget(self, gossip_network):
        network, p = gossip_network
        protocol = RandomNetworkGossip(p, rounds_constant=0.1)
        bind_one(protocol, network, 1)
        beyond = protocol.transmit_masks(protocol.round_budget + 1, RUNNING)[0]
        assert not beyond.any()
        assert protocol.quiescent(protocol.round_budget)[0]

    def test_knowledge_matrix_monotone(self, gossip_network):
        network, p = gossip_network
        protocol = RandomNetworkGossip(p)
        from repro.radio.engine import SimulationEngine

        engine = SimulationEngine(record_rounds=True)
        result = engine.run(network, protocol, rng=6)
        curve = result.informed_curve()  # min rumours known per round
        assert (curve[1:] >= curve[:-1] - 0).all()
        assert curve[-1] == network.n
