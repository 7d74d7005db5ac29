"""Tests for Algorithm 3 (KnownDiameterBroadcast) and the tradeoff family."""

import math

import numpy as np
import pytest

from repro.core.broadcast_general import KnownDiameterBroadcast
from repro.core.distributions import CzumajRytterDistribution, UniformScaleDistribution
from repro.core.tradeoff import TradeoffBroadcast, admissible_lambda_range
from repro.graphs.properties import source_eccentricity
from repro.graphs.structured import grid_network, path_of_cliques
from repro.radio.engine import run_protocol

from one_trial import bind_one

RUNNING = np.ones(1, dtype=bool)


@pytest.fixture(scope="module")
def clique_path():
    net = path_of_cliques(8, 8)
    return net, source_eccentricity(net, 0)


class TestSetup:
    def test_window_and_budget(self, clique_path):
        network, diameter = clique_path
        protocol = KnownDiameterBroadcast(diameter, beta=2.0)
        bind_one(protocol, network, 1)
        log_n = math.log2(network.n)
        assert protocol.active_window == math.ceil(2.0 * log_n**2)
        assert protocol.round_budget > protocol.active_window
        assert protocol.distribution.name.startswith("alpha")

    def test_distribution_override(self, clique_path):
        network, diameter = clique_path
        protocol = KnownDiameterBroadcast(
            diameter, distribution=UniformScaleDistribution(network.n)
        )
        bind_one(protocol, network, 1)
        assert "uniform" in protocol.distribution.name

    def test_window_factor(self, clique_path):
        network, diameter = clique_path
        base = KnownDiameterBroadcast(diameter)
        wide = KnownDiameterBroadcast(diameter, window_factor=3.0)
        bind_one(base, network, 1)
        bind_one(wide, network, 1)
        assert wide.active_window == pytest.approx(3 * base.active_window, rel=0.01)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            KnownDiameterBroadcast(0)
        with pytest.raises(ValueError):
            KnownDiameterBroadcast(4, beta=0)

    def test_metadata(self, clique_path):
        network, diameter = clique_path
        protocol = KnownDiameterBroadcast(diameter)
        bind_one(protocol, network, 1)
        meta = protocol.trial_metadata(0)
        assert meta["diameter"] == diameter
        assert meta["active_window"] == protocol.active_window


class TestBehaviour:
    def test_completes_on_path_of_cliques(self, clique_path):
        network, diameter = clique_path
        completed = 0
        for seed in range(4):
            result = run_protocol(network, KnownDiameterBroadcast(diameter), rng=seed)
            completed += result.completed
        assert completed >= 3

    def test_completes_on_grid(self):
        network = grid_network(10, 10)
        diameter = 18
        result = run_protocol(network, KnownDiameterBroadcast(diameter), rng=3)
        assert result.completed

    def test_energy_bounded_by_window(self, clique_path):
        network, diameter = clique_path
        protocol = KnownDiameterBroadcast(diameter)
        result = run_protocol(
            network, protocol, rng=5, keep_arrays=True, run_to_quiescence=True
        )
        # A node transmits at most once per active round.
        assert result.per_node_transmissions.max() <= protocol.active_window

    def test_expected_energy_shape(self, clique_path):
        """Mean tx/node should be around window * mean transmit probability."""
        network, diameter = clique_path
        protocol = KnownDiameterBroadcast(diameter)
        result = run_protocol(
            network, protocol, rng=7, run_to_quiescence=True
        )
        assert result.completed
        expected = protocol.active_window * protocol.distribution.mean_transmission_probability()
        assert result.energy.mean_per_node <= 2.5 * expected

    def test_quiescence_after_windows_expire(self, clique_path):
        network, diameter = clique_path
        protocol = KnownDiameterBroadcast(diameter)
        result = run_protocol(network, protocol, rng=9, run_to_quiescence=True)
        assert protocol.quiescent(result.rounds_executed)[0]

    def test_source_stops_after_window(self, clique_path):
        network, diameter = clique_path
        protocol = KnownDiameterBroadcast(diameter, beta=0.5)
        bind_one(protocol, network, 1)
        beyond_window = protocol.active_window + 1
        mask = protocol.transmit_masks(beyond_window, RUNNING)[0]
        assert not mask[protocol.source]


class TestTradeoff:
    def test_admissible_range(self):
        low, high = admissible_lambda_range(1024, 32)
        assert low == pytest.approx(5.0)
        assert high == pytest.approx(10.0)

    def test_lambda_clamped(self, clique_path):
        network, diameter = clique_path
        protocol = TradeoffBroadcast(diameter, lam=1000.0)
        bind_one(protocol, network, 1)
        low, high = admissible_lambda_range(network.n, diameter)
        assert protocol.lam == pytest.approx(high)

    def test_energy_decreases_with_lambda(self, clique_path):
        """The Theorem 4.2 direction: larger λ, cheaper per-round energy."""
        network, diameter = clique_path
        low, high = admissible_lambda_range(network.n, diameter)
        cheap = TradeoffBroadcast(diameter, lam=high)
        fast = TradeoffBroadcast(diameter, lam=low)
        bind_one(cheap, network, 1)
        bind_one(fast, network, 1)
        assert (
            cheap.distribution.mean_transmission_probability()
            < fast.distribution.mean_transmission_probability()
        )

    def test_tradeoff_completes(self, clique_path):
        network, diameter = clique_path
        result = run_protocol(network, TradeoffBroadcast(diameter, lam=6.0), rng=2)
        assert result.completed

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            TradeoffBroadcast(4, lam=0.0)
