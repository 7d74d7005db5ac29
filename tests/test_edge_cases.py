"""Edge-case and failure-injection tests across the stack.

These exercise the corners the main suites do not: degenerate network sizes,
disconnected topologies (broadcast cannot complete), protocols bound to the
wrong kind of workload, and graceful horizon handling.
"""

import math

import numpy as np
import pytest

from repro.baselines.decay import DecayBroadcast
from repro.core.broadcast_general import KnownDiameterBroadcast
from repro.core.broadcast_random import EnergyEfficientBroadcast
from repro.core.gossip_random import RandomNetworkGossip
from repro.core.oblivious import TimeInvariantBroadcast
from repro.experiments.protocols import ProtocolSpec
from repro.experiments.runner import Job, execute_job
from repro.graphs.builders import GraphSpec
from repro.graphs.random_digraph import random_digraph
from repro.graphs.structured import path_network, star_network
from repro.radio.engine import run_protocol
from repro.radio.network import RadioNetwork

from one_trial import bind_one


class TestDegenerateSizes:
    def test_single_node_broadcast_is_trivially_complete(self):
        network = RadioNetwork(1, [])
        result = run_protocol(network, DecayBroadcast(source=0), rng=1)
        assert result.completed
        assert result.completion_round == 0
        assert result.energy.total_transmissions == 0

    def test_single_node_gossip_is_trivially_complete(self):
        network = RadioNetwork(1, [])
        result = run_protocol(network, RandomNetworkGossip(0.5), rng=1)
        assert result.completed
        assert result.rounds_executed == 0

    def test_two_node_broadcast(self):
        network = RadioNetwork(2, [(0, 1), (1, 0)])
        result = run_protocol(network, DecayBroadcast(source=0), rng=1)
        assert result.completed
        assert result.completion_round >= 1

    def test_algorithm1_on_two_nodes(self):
        network = RadioNetwork(2, [(0, 1), (1, 0)])
        result = run_protocol(network, EnergyEfficientBroadcast(0.9), rng=2)
        assert result.completed
        assert result.energy.max_per_node <= 1


class TestDisconnectedAndUnreachable:
    def test_broadcast_on_disconnected_graph_does_not_complete(self):
        # Two components: 0-1 and 2-3.
        network = RadioNetwork(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        result = run_protocol(
            network, DecayBroadcast(source=0), rng=1, max_rounds=200
        )
        assert not result.completed
        assert result.informed_count == 2

    def test_quiescent_failure_reports_rounds(self):
        # Algorithm 3 gives up once every informed node's window expires even
        # though the far component is never reached.
        network = RadioNetwork(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        protocol = KnownDiameterBroadcast(2, beta=0.5)
        result = run_protocol(network, protocol, rng=1, run_to_quiescence=True)
        assert not result.completed
        assert result.rounds_executed < protocol.round_budget

    def test_sink_only_source_cannot_broadcast(self):
        # The source has no out-edges at all.
        network = RadioNetwork(3, [(1, 2), (2, 1)])
        result = run_protocol(
            network, DecayBroadcast(source=0), rng=1, max_rounds=50
        )
        assert not result.completed
        assert result.informed_count == 1


class TestProtocolMisuse:
    def test_algorithm1_source_out_of_range(self):
        network = path_network(4)
        with pytest.raises(ValueError):
            run_protocol(network, EnergyEfficientBroadcast(0.5, source=10), rng=1)

    def test_time_invariant_window_blocks_late_transmissions(self):
        network = star_network(6)
        protocol = TimeInvariantBroadcast(0.9, active_window=1)
        result = run_protocol(
            network, protocol, rng=1, run_to_quiescence=True, keep_arrays=True
        )
        # Everyone transmits at most once (window of a single round).
        assert result.per_node_transmissions.max() <= 1

    def test_job_with_mismatched_protocol_graph_pair_still_runs(self):
        # A gossip protocol on a lower-bound network: semantically odd but
        # must not crash; it simply will not complete within a tiny horizon.
        job = Job(
            graph=GraphSpec("observation43", {"n": 4}),
            protocol=ProtocolSpec("uniform_gossip", {}),
            seed=1,
            max_rounds=10,
        )
        result = execute_job(job)
        assert not result.completed
        assert result.rounds_executed == 10


class TestNumericalEdges:
    def test_algorithm1_with_p_equal_one(self):
        network = RadioNetwork(3, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)])
        protocol = EnergyEfficientBroadcast(1.0)
        result = run_protocol(network, protocol, rng=1, run_to_quiescence=True)
        # With p = 1 the source's single transmission reaches everyone.
        assert result.completed
        assert result.completion_round == 1

    def test_algorithm3_diameter_larger_than_network(self):
        # Overstated diameter only lengthens the horizon; the run still works.
        network = path_network(6)
        result = run_protocol(network, KnownDiameterBroadcast(50), rng=2)
        assert result.completed

    def test_gossip_probability_floor(self):
        # p so small that 1/d > 1 must clamp to probability 1.
        network = RadioNetwork(3, [(0, 1), (1, 2), (2, 0)])
        protocol = RandomNetworkGossip(1e-6)
        bind_one(protocol, network, 1)
        assert protocol.transmit_probability == 1.0

    def test_engine_handles_zero_transmitter_rounds(self):
        # A protocol that never transmits: the engine must walk the horizon
        # and report a clean failure.
        network = path_network(3)

        class Silent(DecayBroadcast):
            def transmit_flat(self, round_index, running):
                return np.empty(0, dtype=np.int64)

        result = run_protocol(network, Silent(source=0), rng=1, max_rounds=5)
        assert not result.completed
        assert result.energy.total_transmissions == 0
