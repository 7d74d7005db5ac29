"""Tests for the sequential broadcast-composition gossip baseline."""

import math

import numpy as np
import pytest

from repro.baselines.sequential_gossip import SequentialBroadcastGossip
from repro.graphs.random_digraph import connectivity_threshold_probability, random_digraph
from repro.graphs.structured import path_of_cliques
from repro.radio.engine import run_protocol

from one_trial import bind_one

RUNNING = np.ones(1, dtype=bool)


class TestParameterisation:
    def test_epoch_length_and_budget(self):
        network = random_digraph(64, 0.2, rng=1)
        protocol = SequentialBroadcastGossip(epoch_length_factor=2.0)
        bind_one(protocol, network, 1)
        log_n = math.log2(64)
        assert protocol.epoch_length == math.ceil(2.0 * log_n**2)
        assert protocol.round_budget == protocol.epoch_length * 64

    def test_passes_extend_budget(self):
        network = random_digraph(32, 0.3, rng=1)
        one = SequentialBroadcastGossip(passes=1)
        two = SequentialBroadcastGossip(passes=2)
        bind_one(one, network, 1)
        bind_one(two, network, 1)
        assert two.round_budget == 2 * one.round_budget

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SequentialBroadcastGossip(epoch_length_factor=0)
        with pytest.raises(ValueError):
            SequentialBroadcastGossip(passes=0)

    def test_rumour_schedule_cycles(self):
        # Epoch e broadcasts rumour e mod n: before any delivery only the
        # rumour's originator knows it, so only that node may transmit.
        network = random_digraph(16, 0.4, rng=1)
        protocol = SequentialBroadcastGossip(passes=2)
        bind_one(protocol, network, 1)
        length = protocol.epoch_length
        for epoch, rumour in [(0, 0), (16, 0), (17, 1)]:
            masks = [
                protocol.transmit_masks(epoch * length + r, RUNNING)[0]
                for r in range(length)
            ]
            assert np.flatnonzero(np.any(masks, axis=0)).tolist() == [rumour]


class TestBehaviour:
    def test_completes_on_random_network(self):
        n = 64
        p = connectivity_threshold_probability(n, delta=4.0)
        network = random_digraph(n, p, rng=3)
        result = run_protocol(network, SequentialBroadcastGossip(), rng=4)
        assert result.completed
        assert result.informed_count == n

    def test_completes_on_path_of_cliques(self):
        network = path_of_cliques(4, 5)
        result = run_protocol(network, SequentialBroadcastGossip(), rng=5)
        assert result.completed

    def test_only_rumour_knowers_transmit(self):
        network = random_digraph(20, 0.3, rng=6)
        protocol = SequentialBroadcastGossip()
        bind_one(protocol, network, 7)
        # In epoch 0 only node 0 knows rumour 0 initially.
        mask = protocol.transmit_masks(0, RUNNING)[0]
        assert set(mask.nonzero()[0].tolist()) <= {0}

    def test_quiescent_after_budget(self):
        network = random_digraph(16, 0.4, rng=8)
        protocol = SequentialBroadcastGossip(epoch_length_factor=0.5)
        bind_one(protocol, network, 9)
        assert protocol.quiescent(protocol.round_budget)[0]
        assert not protocol.transmit_masks(protocol.round_budget + 1, RUNNING)[0].any()

    def test_more_energy_than_algorithm2(self):
        """The E16 direction at unit-test size: Algorithm 2 is cheaper per node."""
        from repro.core.gossip_random import RandomNetworkGossip

        n = 64
        p = connectivity_threshold_probability(n, delta=4.0)
        network = random_digraph(n, p, rng=10)
        seq = run_protocol(network, SequentialBroadcastGossip(), rng=11)
        alg2 = run_protocol(network, RandomNetworkGossip(p), rng=11)
        assert seq.completed and alg2.completed
        assert seq.energy.mean_per_node > alg2.energy.mean_per_node
