"""Tests for random geometric radio networks."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from repro.graphs.geometric import (
    connectivity_radius,
    geometric_digraph,
    geometric_digraph_from_positions,
    heterogeneous_geometric_digraph,
)
from repro.graphs.properties import is_strongly_connected
from repro.radio.network import RadioNetwork


# --------------------------------------------------------------------------- #
# cKDTree reference builders: the edge sets the builders must reproduce.
# --------------------------------------------------------------------------- #
def _reference_from_positions(positions, radius, name="rgg"):
    """Symmetric unit-disk edges: ``query_pairs`` mirrored."""
    positions = np.asarray(positions, dtype=float)
    pairs = cKDTree(positions).query_pairs(r=radius, output_type="ndarray")
    edges = np.vstack([pairs, pairs[:, ::-1]]).astype(np.int64)
    return RadioNetwork(positions.shape[0], edges.reshape(-1, 2), name=name)


def _reference_heterogeneous(positions, radii):
    """Edge ``(u, v)`` whenever ``u`` lies in ``v``'s ball of radius ``radii[v]``."""
    balls = cKDTree(positions).query_ball_point(positions, r=radii)
    edges = [(u, v) for v, ball in enumerate(balls) for u in ball if u != v]
    return RadioNetwork(len(positions), np.asarray(edges, dtype=np.int64).reshape(-1, 2))


#: E13's sizes (quick 256; full 256, 512, 1024) plus degenerate ones.
_SIZES = st.sampled_from([1, 2, 3, 17, 256, 512, 1024])
#: E13's radius factors, plus factors that push the radius past sqrt(2).
_FACTORS = st.sampled_from([1.25, 1.5, 2.0, 2.5, 3.0, 40.0])
_SEEDS = st.integers(0, 2**32 - 1)
#: Coordinates from a short grid give tied x (and y) values and pairs at
#: exactly the radius; free floats give the generic case.
_COORD = st.one_of(
    st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 1.0]),
    st.floats(0.0, 1.0, allow_nan=False),
)


def _radius(n, factor):
    return factor * connectivity_radius(max(n, 2))


class TestCKDTreeIdentity:
    """Every builder yields exactly the cKDTree edge set, sample for sample."""

    @settings(max_examples=40, deadline=None)
    @given(n=_SIZES, factor=_FACTORS, seed=_SEEDS)
    def test_geometric_digraph(self, n, factor, seed):
        radius = _radius(n, factor)
        net, positions = geometric_digraph(
            n, radius, rng=np.random.default_rng(seed), return_positions=True
        )
        assert np.array_equal(positions, np.random.default_rng(seed).random((n, 2)))
        assert net == _reference_from_positions(positions, radius)

    @settings(max_examples=40, deadline=None)
    @given(n=_SIZES, factor=_FACTORS, seed=_SEEDS)
    def test_heterogeneous_geometric_digraph(self, n, factor, seed):
        radius = _radius(n, factor)
        generator = np.random.default_rng(seed)
        net, positions = heterogeneous_geometric_digraph(
            n, 0.7 * radius, 1.3 * radius, rng=generator, return_positions=True
        )
        reference = np.random.default_rng(seed)
        ref_positions = reference.random((n, 2))
        radii = reference.uniform(0.7 * radius, 1.3 * radius, size=n)
        assert np.array_equal(positions, ref_positions)
        assert net == _reference_heterogeneous(ref_positions, radii)
        # The builder makes exactly the reference's draws, no more.
        assert generator.bit_generator.state == reference.bit_generator.state

    @settings(max_examples=80, deadline=None)
    @given(
        points=st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=40),
        radius=st.one_of(
            st.sampled_from([0.1, 0.25, 0.5, 1.0, 1.5, 2.0]),
            st.floats(1e-3, 2.0, allow_nan=False),
        ),
        scale=st.sampled_from([1.0, 1e-3, 50.0]),
        shift=st.sampled_from([0.0, -3.0, 1e4]),
    )
    @example(points=[(0.5, 0.5)], radius=0.3, scale=1.0, shift=0.0)
    @example(points=[(0.3, 0.1), (0.3, 0.9), (0.3, 0.5)], radius=0.4, scale=1.0, shift=0.0)
    @example(points=[(0.0, 0.0), (1.0, 1.0)], radius=1.5, scale=1.0, shift=0.0)
    def test_from_positions(self, points, radius, scale, shift):
        positions = np.asarray(points, dtype=float) * scale + shift
        radius = radius * scale
        net = geometric_digraph_from_positions(positions, radius, name="pin")
        assert net == _reference_from_positions(positions, radius)
        assert net.name == "pin"


    @settings(max_examples=60, deadline=None)
    @given(
        points=st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=40),
        radius_low=st.floats(1e-3, 1.0, allow_nan=False),
        spread=st.floats(1.0, 3.0, allow_nan=False),
        seed=_SEEDS,
    )
    def test_listener_radii_on_tied_positions(self, points, radius_low, spread, seed):
        """The heterogeneous family's per-listener rule, on positions with ties."""
        from repro.graphs.geometric import _pairs_within

        positions = np.asarray(points, dtype=float)
        radii = np.random.default_rng(seed).uniform(
            radius_low, radius_low * spread, size=len(points)
        )
        net = RadioNetwork(len(points), _pairs_within(positions, radii))
        assert net == _reference_heterogeneous(positions, radii)


class TestValidatingConstructorIdentity:
    """The builders' CSR arrays equal the validating constructor's, exactly."""

    @staticmethod
    def _assert_csr_equal(net, reference):
        for name in ("out_indptr", "out_indices"):
            got, want = getattr(net, name), getattr(reference, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert not got.flags.writeable

    @pytest.mark.parametrize("n", [1, 2, 37, 400])
    def test_geometric_digraph(self, n):
        radius = _radius(n, 1.5)
        net, positions = geometric_digraph(n, radius, rng=n, return_positions=True)
        self._assert_csr_equal(net, _reference_from_positions(positions, radius))
        self._assert_csr_equal(
            geometric_digraph_from_positions(positions, radius),
            _reference_from_positions(positions, radius),
        )

    @pytest.mark.parametrize("n", [1, 2, 37, 400])
    def test_heterogeneous_geometric_digraph(self, n):
        radius = _radius(n, 1.5)
        net, positions = heterogeneous_geometric_digraph(
            n, 0.5 * radius, 1.5 * radius, rng=n, return_positions=True
        )
        reference = np.random.default_rng(n)
        reference.random((n, 2))
        radii = reference.uniform(0.5 * radius, 1.5 * radius, size=n)
        self._assert_csr_equal(net, _reference_heterogeneous(positions, radii))


class TestGeometricDigraph:
    def test_basic(self):
        net = geometric_digraph(100, 0.2, rng=1)
        assert net.n == 100
        assert net.is_symmetric()

    def test_return_positions(self):
        net, pos = geometric_digraph(50, 0.2, rng=2, return_positions=True)
        assert pos.shape == (50, 2)
        assert (pos >= 0).all() and (pos <= 1).all()

    def test_reproducible(self):
        assert geometric_digraph(80, 0.2, rng=3) == geometric_digraph(80, 0.2, rng=3)

    def test_radius_monotone(self):
        small = geometric_digraph(120, 0.08, rng=4)
        large = geometric_digraph(120, 0.25, rng=4)
        assert large.num_edges > small.num_edges

    def test_single_node(self):
        assert geometric_digraph(1, 0.3, rng=5).num_edges == 0

    def test_connectivity_radius_usually_connects(self):
        connected = 0
        for seed in range(5):
            net = geometric_digraph(150, 1.8 * connectivity_radius(150), rng=seed)
            connected += is_strongly_connected(net)
        assert connected >= 4

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            geometric_digraph(10, 0.0, rng=1)


class TestFromPositions:
    def test_edges_match_distances(self):
        positions = np.array([[0.0, 0.0], [0.05, 0.0], [0.5, 0.5]])
        net = geometric_digraph_from_positions(positions, 0.1)
        assert net.has_edge(0, 1) and net.has_edge(1, 0)
        assert not net.has_edge(0, 2)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            geometric_digraph_from_positions(np.zeros((3, 3)), 0.1)

    def test_single_position(self):
        assert geometric_digraph_from_positions(np.zeros((1, 2)), 0.1).num_edges == 0


class TestHeterogeneous:
    def test_asymmetric_links_possible(self):
        net = heterogeneous_geometric_digraph(150, 0.05, 0.3, rng=7)
        assert net.n == 150
        # With widely different radii the network should not be symmetric.
        assert not net.is_symmetric()

    def test_return_positions(self):
        net, pos = heterogeneous_geometric_digraph(
            40, 0.1, 0.2, rng=8, return_positions=True
        )
        assert pos.shape == (40, 2)

    def test_radius_order_enforced(self):
        with pytest.raises(ValueError):
            heterogeneous_geometric_digraph(10, 0.3, 0.1, rng=1)

    def test_edge_semantics_listener_radius(self):
        # Edge (u, v) exists iff u is within v's listening radius: build a
        # 2-node instance by hand through the public generator's convention.
        net = heterogeneous_geometric_digraph(2, 1.5, 1.5, rng=3)
        # With radius >= sqrt(2) both directions always exist.
        assert net.has_edge(0, 1) and net.has_edge(1, 0)


class TestConnectivityRadius:
    def test_decreases_with_n(self):
        assert connectivity_radius(10_000) < connectivity_radius(100)

    def test_invalid(self):
        with pytest.raises(ValueError):
            connectivity_radius(1)
