"""Tests for the protocol base classes, bound to one-trial batches."""

import numpy as np
import pytest

from repro.radio.batch import BatchBroadcastProtocol, BatchGossipProtocol, NetworkBatch
from repro.radio.collision import BatchStandardCollisionModel
from repro.radio.network import RadioNetwork

from one_trial import bind_one


class AlwaysTransmitBroadcast(BatchBroadcastProtocol):
    """Minimal concrete broadcast protocol: informed nodes always transmit."""

    name = "test-always"

    def transmit_masks(self, round_index, running):
        return self.informed.copy()


class SilentGossip(BatchGossipProtocol):
    """Gossip protocol that never transmits (for state-machine tests)."""

    name = "test-silent-gossip"

    def transmit_masks(self, round_index, running):
        return np.zeros((self.trials, self.n), dtype=bool)


RUNNING = np.ones(1, dtype=bool)


def _resolve(network, mask):
    return BatchStandardCollisionModel().resolve(
        NetworkBatch([network]), np.asarray(mask, dtype=bool)[None, :]
    )


class TestProtocolLifecycle:
    def test_unbound_access_raises(self):
        protocol = AlwaysTransmitBroadcast()
        with pytest.raises(RuntimeError):
            _ = protocol.batch
        with pytest.raises(RuntimeError):
            _ = protocol.rng_source
        with pytest.raises(RuntimeError):
            _ = protocol.informed

    def test_bind_initialises_state(self, tiny_network):
        protocol = bind_one(AlwaysTransmitBroadcast(source=0), tiny_network, 1)
        assert protocol.n == 5
        assert protocol.trials == 1
        assert protocol.informed_counts().tolist() == [1]
        assert protocol.informed[0, 0]
        assert protocol.informed_round[0, 0] == 0

    def test_invalid_source_rejected_at_bind(self, tiny_network):
        with pytest.raises(ValueError):
            bind_one(AlwaysTransmitBroadcast(source=99), tiny_network, 1)

    def test_default_quiescence_tracks_completion(self, tiny_network):
        protocol = bind_one(AlwaysTransmitBroadcast(), tiny_network, 1)
        assert np.array_equal(protocol.quiescent(0), protocol.completed())

    def test_suggested_max_rounds_positive(self, tiny_network):
        protocol = bind_one(AlwaysTransmitBroadcast(), tiny_network, 1)
        assert protocol.suggested_max_rounds() > 0

    def test_repr(self):
        assert "AlwaysTransmitBroadcast" in repr(AlwaysTransmitBroadcast())


class TestBroadcastBookkeeping:
    def test_mark_informed_returns_only_new(self, tiny_network):
        protocol = bind_one(AlwaysTransmitBroadcast(), tiny_network, 1)
        newly = protocol.mark_informed(np.array([0, 1, 2]), round_index=0)
        assert sorted(newly.tolist()) == [1, 2]
        # Marking again returns nothing new.
        assert protocol.mark_informed(np.array([1, 2]), round_index=1).size == 0

    def test_informed_round_recorded(self, tiny_network):
        protocol = bind_one(AlwaysTransmitBroadcast(), tiny_network, 1)
        protocol.mark_informed(np.array([3]), round_index=4)
        assert protocol.informed_round[0, 3] == 5

    def test_observe_marks_receivers(self, tiny_network):
        protocol = bind_one(AlwaysTransmitBroadcast(), tiny_network, 1)
        tx = protocol.transmit_flat(0, RUNNING)
        outcome = _resolve(tiny_network, protocol.informed[0])
        protocol.observe(0, tx, outcome, RUNNING)
        assert protocol.informed_counts().tolist() == [3]  # source + 2 listeners

    def test_completion(self, tiny_network):
        protocol = bind_one(AlwaysTransmitBroadcast(), tiny_network, 1)
        assert not protocol.completed()[0]
        protocol.mark_informed(np.arange(5), round_index=0)
        assert protocol.completed()[0]

    def test_rebind_resets(self, tiny_network):
        protocol = bind_one(AlwaysTransmitBroadcast(), tiny_network, 1)
        protocol.mark_informed(np.arange(5), round_index=0)
        bind_one(protocol, tiny_network, 2)
        assert protocol.informed_counts().tolist() == [1]


class TestGossipBookkeeping:
    def test_initial_knowledge_is_identity(self, tiny_network):
        protocol = bind_one(SilentGossip(), tiny_network, 1)
        assert protocol.knowledge.sum() == 5
        assert protocol.rumours_known()[0].tolist() == [1] * 5

    def test_merge_deliveries_joins_rumours(self, tiny_network):
        protocol = bind_one(SilentGossip(), tiny_network, 1)
        # Simulate node 0 delivering to nodes 1 and 2.
        protocol.merge_deliveries(
            _resolve(tiny_network, [True, False, False, False, False])
        )
        assert protocol.knowledge[0, 1, 0]
        assert protocol.knowledge[0, 2, 0]
        assert not protocol.knowledge[0, 0, 1]

    def test_merge_uses_round_start_snapshot(self):
        # Chain 0 -> 1 -> 2: if 0 and 1 both deliver in the same round, node 2
        # must receive only node 1's round-start knowledge (not rumour 0).
        net = RadioNetwork(3, [(0, 1), (1, 2)])
        protocol = bind_one(SilentGossip(), net, 1)
        protocol.merge_deliveries(_resolve(net, [True, True, False]))
        assert protocol.knowledge[0, 1, 0]
        assert protocol.knowledge[0, 2, 1]
        assert not protocol.knowledge[0, 2, 0]

    def test_completion(self, tiny_network):
        protocol = bind_one(SilentGossip(), tiny_network, 1)
        assert not protocol.completed()[0]
        protocol.knowledge_state.merge_flat(
            np.zeros(5, dtype=np.int64), np.arange(5)
        )
        assert not protocol.completed()[0]
        for sender in range(5):
            protocol.knowledge_state.merge_flat(
                np.full(5, sender, dtype=np.int64), np.arange(5)
            )
        assert protocol.completed()[0]

    def test_empty_delivery_is_noop(self, tiny_network):
        protocol = bind_one(SilentGossip(), tiny_network, 1)
        protocol.merge_deliveries(_resolve(tiny_network, np.zeros(5, dtype=bool)))
        assert protocol.knowledge.sum() == 5
