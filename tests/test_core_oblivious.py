"""Tests for the time-invariant oblivious protocol (lower-bound model)."""

import numpy as np
import pytest

from repro.core.distributions import FixedProbabilityOblivious, UniformScaleDistribution
from repro.core.oblivious import TimeInvariantBroadcast
from repro.graphs.lowerbound import observation43_network
from repro.graphs.structured import path_network
from repro.radio.engine import run_protocol

from one_trial import bind_one

RUNNING = np.ones(1, dtype=bool)


class TestConstruction:
    def test_float_becomes_fixed_distribution(self):
        protocol = TimeInvariantBroadcast(0.25)
        assert isinstance(protocol.distribution, FixedProbabilityOblivious)
        assert protocol.distribution.per_round_probability() == 0.25

    def test_distribution_object_accepted(self):
        protocol = TimeInvariantBroadcast(UniformScaleDistribution(64))
        assert "uniform" in protocol.distribution.name

    def test_invalid_distribution(self):
        with pytest.raises(TypeError):
            TimeInvariantBroadcast("0.5")
        with pytest.raises(ValueError):
            TimeInvariantBroadcast(0.0)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            TimeInvariantBroadcast(0.5, active_window=0)


class TestBehaviour:
    def test_completes_on_observation43_network(self):
        network, structure = observation43_network(16, return_structure=True)
        result = run_protocol(
            network,
            TimeInvariantBroadcast(0.25, source=structure.source),
            rng=3,
            max_rounds=5000,
        )
        assert result.completed

    def test_fixed_probability_one_on_path(self):
        # q close to 1 behaves like flooding: works on a path.
        network = path_network(8)
        result = run_protocol(TimeInvariantBroadcast(0.9).network if False else network,
                              TimeInvariantBroadcast(0.9), rng=1, max_rounds=500)
        assert result.completed

    def test_window_limits_transmissions(self):
        network, structure = observation43_network(8, return_structure=True)
        protocol = TimeInvariantBroadcast(
            0.5, active_window=4, source=structure.source
        )
        result = run_protocol(
            network, protocol, rng=2, keep_arrays=True, run_to_quiescence=True
        )
        assert result.per_node_transmissions.max() <= 4
        assert protocol.quiescent(result.rounds_executed)[0]

    def test_unbounded_window_quiescence_is_completion(self):
        network = path_network(5)
        protocol = TimeInvariantBroadcast(0.9)
        bind_one(protocol, network, 1)
        assert protocol.quiescent(0)[0] == protocol.completed()[0]

    def test_metadata(self):
        network = path_network(5)
        protocol = TimeInvariantBroadcast(0.3, active_window=7)
        bind_one(protocol, network, 1)
        assert protocol.trial_metadata(0)["active_window"] == 7
        assert protocol.trial_metadata(0)["mean_transmission_probability"] == 0.3

    def test_shared_probability_is_scalar_per_round(self):
        network = path_network(6)
        protocol = TimeInvariantBroadcast(UniformScaleDistribution(64))
        bind_one(protocol, network, 1)
        mask = protocol.transmit_masks(0, RUNNING)[0]
        assert mask.shape == (6,)

    def test_lower_bound_effect_on_relay_network(self):
        """Destinations need many relay rounds: the Observation 4.3 mechanism."""
        network, structure = observation43_network(32, return_structure=True)
        result = run_protocol(
            network,
            TimeInvariantBroadcast(0.5, source=structure.source),
            rng=5,
            max_rounds=10_000,
            keep_arrays=True,
        )
        assert result.completed
        relay_tx = result.per_node_transmissions[structure.relays].sum()
        # The proof's bound is n log n / 2 = 80; the measured value (at the
        # completion of the *last* destination) must respect it.
        assert relay_tx >= 32 * np.log2(32) / 2
