"""Property-based tests (hypothesis) for the core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.broadcast_random import EnergyEfficientBroadcast
from repro.core.distributions import AlphaDistribution, CzumajRytterDistribution, ScaleDistribution
from repro.graphs.lowerbound import observation43_network
from repro.graphs.random_digraph import random_digraph
from repro.graphs.structured import path_of_cliques
from repro.radio.batch import NetworkBatch
from repro.radio.collision import BatchStandardCollisionModel, StandardCollisionModel
from repro.radio.energy import BatchEnergyAccountant
from repro.radio.engine import run_protocol
from repro.radio.network import RadioNetwork

# Keep hypothesis examples modest: each example builds graphs / runs rounds.
_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
@st.composite
def edge_lists(draw, max_nodes=12):
    """A random (n, edges) pair with no self-loops."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    m = draw(st.integers(min_value=0, max_value=n * (n - 1)))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).filter(lambda e: e[0] != e[1]),
            min_size=0,
            max_size=m,
        )
    )
    return n, edges


@st.composite
def transmit_masks(draw, n):
    bits = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.asarray(bits, dtype=bool)


# --------------------------------------------------------------------------- #
# RadioNetwork invariants
# --------------------------------------------------------------------------- #
class TestNetworkProperties:
    @_SETTINGS
    @given(edge_lists())
    def test_csr_degree_consistency(self, n_edges):
        n, edges = n_edges
        net = RadioNetwork(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
        assert net.out_degrees().sum() == net.num_edges
        assert net.in_degrees().sum() == net.num_edges
        # Every edge is retrievable through both adjacencies.
        for u, v in set(edges):
            assert net.has_edge(u, v)
            assert v in net.out_neighbors(u)
            assert u in net.in_neighbors(v)

    @_SETTINGS
    @given(edge_lists())
    def test_reverse_is_involution(self, n_edges):
        n, edges = n_edges
        net = RadioNetwork(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
        assert net.reverse().reverse() == net

    @_SETTINGS
    @given(edge_lists())
    def test_symmetrized_is_symmetric(self, n_edges):
        n, edges = n_edges
        net = RadioNetwork(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
        assert net.symmetrized().is_symmetric()


# --------------------------------------------------------------------------- #
# Collision-rule invariants
# --------------------------------------------------------------------------- #
class TestCollisionProperties:
    @_SETTINGS
    @given(edge_lists(), st.data())
    def test_receive_iff_exactly_one_transmitting_in_neighbour(self, n_edges, data):
        n, edges = n_edges
        net = RadioNetwork(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
        mask = data.draw(transmit_masks(n))
        listener_filter = data.draw(st.none() | transmit_masks(n))
        scalar = StandardCollisionModel().resolve(net, mask)
        batched = BatchStandardCollisionModel().resolve(
            NetworkBatch([net]), mask[None, :], listener_filter=listener_filter
        )

        # Recompute hear counts naively.
        naive = np.zeros(n, dtype=int)
        for u in range(n):
            if mask[u]:
                for v in net.out_neighbors(u):
                    naive[v] += 1
        heard_once = {v for v in range(n) if naive[v] == 1}
        interesting = heard_once if listener_filter is None else {
            v for v in heard_once if listener_filter[v]
        }
        for receivers, senders, hear_counts, expected in (
            (scalar.receivers, scalar.senders, scalar.hear_counts, heard_once),
            (
                batched.receivers_of(0),
                batched.senders_of(0),
                batched.hear_counts[0],
                interesting,
            ),
        ):
            assert np.array_equal(naive, hear_counts)
            assert set(receivers.tolist()) == expected
            assert receivers.size == len(expected)
            # The reported sender is a transmitting in-neighbour of the receiver.
            for receiver, sender in zip(receivers, senders):
                assert mask[sender]
                assert net.has_edge(int(sender), int(receiver))

    @_SETTINGS
    @given(edge_lists(), st.data())
    def test_energy_accounting_matches_mask_sum(self, n_edges, data):
        n, edges = n_edges
        acc = BatchEnergyAccountant(1, n)
        total = 0
        for _ in range(3):
            mask = data.draw(transmit_masks(n))
            total += int(mask.sum())
            acc.record_flat(np.flatnonzero(mask))
        assert int(acc.per_node(0).sum()) == total
        (report,) = acc.reports_for([0])
        assert report.total_transmissions == total
        assert report.max_per_node <= 3


# --------------------------------------------------------------------------- #
# Distribution invariants
# --------------------------------------------------------------------------- #
class TestDistributionProperties:
    @_SETTINGS
    @given(
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=12).filter(
            lambda w: sum(w) > 0
        )
    )
    def test_normalisation_and_mean_bounds(self, weights):
        dist = ScaleDistribution(weights)
        assert dist.probabilities.sum() == pytest.approx(1.0)
        mean = dist.mean_transmission_probability()
        assert 0.0 <= mean <= 1.0
        assert dist.min_scale_probability() > 0.0

    @_SETTINGS
    @given(
        st.integers(min_value=4, max_value=16),
        st.integers(min_value=1, max_value=12),
    )
    def test_alpha_structural_properties(self, log_n, diameter_exp):
        n = 2**log_n
        diameter = min(2**diameter_exp, n)
        alpha = AlphaDistribution(n, diameter)
        prime = CzumajRytterDistribution(n, diameter)
        # Floor: every played scale has probability >= 1/(4 log n).
        assert alpha.min_scale_probability() >= 1.0 / (4.0 * log_n)
        # Energy: mean * lambda is Theta(1).
        assert 0.15 <= alpha.mean_transmission_probability() * alpha.lam <= 4.0
        # Scale-wise domination of alpha' / 2.
        assert np.all(alpha.probabilities[1:] >= prime.probabilities[1:] / 2 - 1e-12)

    @_SETTINGS
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_sampling_stays_on_support(self, seed):
        dist = AlphaDistribution(256, 16)
        scales = dist.sample_scales(64, rng=seed)
        assert scales.min() >= 1
        assert scales.max() <= dist.max_scale


# --------------------------------------------------------------------------- #
# Protocol invariants
# --------------------------------------------------------------------------- #
class TestProtocolProperties:
    @_SETTINGS
    @given(
        st.integers(min_value=64, max_value=192),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_algorithm1_never_transmits_twice(self, n, seed):
        """The Theorem 2.1 invariant holds for arbitrary (n, seed)."""
        p = min(1.0, 5 * math.log2(n) / n)
        network = random_digraph(n, p, rng=seed)
        result = run_protocol(
            network,
            EnergyEfficientBroadcast(p),
            rng=seed + 1,
            keep_arrays=True,
            run_to_quiescence=True,
        )
        assert result.per_node_transmissions.max() <= 1

    @_SETTINGS
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_informed_set_grows_monotonically(self, seed):
        network = path_of_cliques(4, 5)
        result = run_protocol(
            network,
            EnergyEfficientBroadcast(0.2),
            rng=seed,
            record_rounds=True,
            run_to_quiescence=True,
        )
        curve = result.informed_curve()
        assert (np.diff(curve) >= 0).all()

    @_SETTINGS
    @given(st.integers(min_value=2, max_value=24))
    def test_observation43_structure_scales(self, n):
        net, s = observation43_network(n, return_structure=True)
        assert net.n == 3 * n + 1
        assert net.num_edges == 2 * n + 2 * n
        assert s.relays.size == 2 * n
