"""Tests for repro.radio.network.RadioNetwork."""

import numpy as np
import pytest

from repro.radio.network import RadioNetwork


class TestConstruction:
    def test_basic_edges(self, tiny_network):
        assert tiny_network.n == 5
        assert tiny_network.num_edges == 5

    def test_edge_pair_arrays(self):
        net = RadioNetwork(4, (np.array([0, 1, 2]), np.array([1, 2, 3])))
        assert net.num_edges == 3
        assert net.has_edge(0, 1)

    def test_duplicate_edges_collapsed(self):
        net = RadioNetwork(3, [(0, 1), (0, 1), (1, 2)])
        assert net.num_edges == 2

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            RadioNetwork(3, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            RadioNetwork(3, [(0, 3)])
        with pytest.raises(ValueError):
            RadioNetwork(3, [(-1, 2)])

    def test_empty_network(self):
        net = RadioNetwork(4, np.empty((0, 2), dtype=np.int64))
        assert net.num_edges == 0
        assert net.out_degrees().sum() == 0

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            RadioNetwork(4, (np.array([0, 1]), np.array([1])))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            RadioNetwork(4, np.array([0, 1, 2]))

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            RadioNetwork(0, [])


class TestDegreesAndNeighbours:
    def test_out_degrees(self, tiny_network):
        assert list(tiny_network.out_degrees()) == [2, 1, 1, 1, 0]

    def test_in_degrees(self, tiny_network):
        assert list(tiny_network.in_degrees()) == [0, 1, 1, 2, 1]

    def test_out_neighbors_sorted(self, tiny_network):
        assert list(tiny_network.out_neighbors(0)) == [1, 2]

    def test_in_neighbors(self, tiny_network):
        assert list(tiny_network.in_neighbors(3)) == [1, 2]

    def test_has_edge(self, tiny_network):
        assert tiny_network.has_edge(0, 1)
        assert not tiny_network.has_edge(1, 0)

    def test_invalid_node_index(self, tiny_network):
        with pytest.raises(ValueError):
            tiny_network.out_neighbors(9)

    def test_edge_list_roundtrip(self, tiny_network):
        edges = tiny_network.edge_list()
        rebuilt = RadioNetwork(tiny_network.n, edges)
        assert rebuilt == tiny_network


class TestTransforms:
    def test_reverse(self, tiny_network):
        rev = tiny_network.reverse()
        assert rev.has_edge(1, 0)
        assert not rev.has_edge(0, 1)
        assert rev.num_edges == tiny_network.num_edges

    def test_symmetrized(self, tiny_network):
        sym = tiny_network.symmetrized()
        assert sym.is_symmetric()
        assert sym.has_edge(0, 1) and sym.has_edge(1, 0)

    def test_is_symmetric_detects_asymmetry(self, tiny_network):
        assert not tiny_network.is_symmetric()

    def test_with_name(self, tiny_network):
        renamed = tiny_network.with_name("other")
        assert renamed.name == "other"
        assert renamed == tiny_network  # topology equality ignores name

    def test_empty_symmetric(self):
        assert RadioNetwork(3, []).is_symmetric()


class TestInterop:
    def test_networkx_roundtrip(self, tiny_network):
        nx_graph = tiny_network.to_networkx()
        assert nx_graph.number_of_nodes() == 5
        back = RadioNetwork.from_networkx(nx_graph)
        assert back == tiny_network

    def test_from_undirected_networkx(self):
        import networkx as nx

        g = nx.path_graph(4)
        net = RadioNetwork.from_networkx(g)
        assert net.has_edge(0, 1) and net.has_edge(1, 0)
        assert net.is_symmetric()

    def test_from_networkx_relabels(self):
        import networkx as nx

        g = nx.DiGraph()
        g.add_edge("a", "b")
        net = RadioNetwork.from_networkx(g)
        assert net.n == 2
        assert net.num_edges == 1


class TestDunder:
    def test_equality(self, tiny_network):
        other = RadioNetwork(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
        assert tiny_network == other

    def test_inequality(self, tiny_network):
        other = RadioNetwork(5, [(0, 1)])
        assert tiny_network != other
        assert tiny_network != "not a network"

    def test_repr(self, tiny_network):
        text = repr(tiny_network)
        assert "n=5" in text and "m=5" in text

    def test_indices_read_only(self, tiny_network):
        with pytest.raises(ValueError):
            tiny_network.out_indices[0] = 3


class TestCsrAgainstLexsort:
    """Both CSR directions against a two-key ``np.lexsort`` reference, on
    either side of the 16-bit node-id boundary (n = 65536 is the largest n
    whose ids fit ``uint16``)."""

    @pytest.mark.parametrize("n", [65536, 70000])
    def test_random_edges_with_duplicates(self, n):
        rng = np.random.default_rng(n)
        sources = rng.integers(0, n, size=300)
        targets = rng.integers(0, n, size=300)
        # Force ids at both ends of the range and a run of duplicates.
        sources[:4] = [0, n - 1, 7, 7]
        targets[:4] = [n - 1, 0, 9, 9]
        sources = np.concatenate([sources, sources[:50]])
        targets = np.concatenate([targets, targets[:50]])
        loops = sources == targets
        sources, targets = sources[~loops], targets[~loops]
        net = RadioNetwork(n, (sources, targets))

        pairs = np.unique(np.column_stack([sources, targets]), axis=0)
        for indptr, indices, rows, cols in (
            (net.out_indptr, net.out_indices, pairs[:, 0], pairs[:, 1]),
            (net.in_indptr, net.in_indices, pairs[:, 1], pairs[:, 0]),
        ):
            order = np.lexsort((cols, rows))
            want_indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows, minlength=n), out=want_indptr[1:])
            assert indptr.dtype == np.int64 and indices.dtype == np.int32
            np.testing.assert_array_equal(indptr, want_indptr)
            np.testing.assert_array_equal(indices, cols[order])
        assert net.num_edges == len(pairs)
