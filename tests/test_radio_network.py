"""Tests for repro.radio.network.RadioNetwork."""

import pickle

import numpy as np
import pytest

from repro.experiments.protocols import ProtocolSpec
from repro.graphs.builders import GraphSpec
from repro.graphs.properties import degree_statistics
from repro.graphs.random_digraph import random_digraph
from repro.radio.network import RadioNetwork
from repro.scenarios import SweepCell, SweepGrid, run_grid


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


@pytest.fixture
def csr_builds(monkeypatch):
    """Counts networks given an out-CSR and in-CSRs derived, process-wide."""
    counts = {"networks": 0, "in_csr": 0}
    set_csr, build_in_csr = RadioNetwork._set_csr, RadioNetwork._build_in_csr

    def counting_set_csr(self, *args):
        counts["networks"] += 1
        set_csr(self, *args)

    def counting_build_in_csr(self):
        counts["in_csr"] += 1
        build_in_csr(self)

    monkeypatch.setattr(RadioNetwork, "_set_csr", counting_set_csr)
    monkeypatch.setattr(RadioNetwork, "_build_in_csr", counting_build_in_csr)
    return counts


def _assert_in_csr_matches_reverse(net):
    """The in-CSR of a network is the out-CSR of its reverse."""
    edges = net.edge_list()
    rev = RadioNetwork(net.n, (edges[:, 1], edges[:, 0]))
    for got, want in ((net.in_indptr, rev.out_indptr), (net.in_indices, rev.out_indices)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


class TestLazyInCsr:
    """The in-CSR is derived on first access only; nothing on the sampling
    or simulation path asks for it."""

    def test_random_digraph_builds_no_in_csr(self, csr_builds):
        random_digraph(500, 0.05, rng=1)
        random_digraph(40, 0.97, rng=2)
        assert csr_builds == {"networks": 2, "in_csr": 0}

    def test_exact_sweep_builds_no_in_csr(self, csr_builds):
        graph = GraphSpec("gnp", {"n": 64, "p": 0.15})
        grid = SweepGrid(
            cells=(
                SweepCell(
                    coords={"protocol": "algorithm1"},
                    graph=graph,
                    protocol=ProtocolSpec("algorithm1", {"p": 0.15}),
                    repetitions=3,
                ),
                SweepCell(
                    coords={"protocol": "decay"},
                    graph=graph,
                    protocol=ProtocolSpec("decay", {}),
                    repetitions=3,
                ),
            )
        )
        results = run_grid(
            grid, seed=0, metrics=("success",), store=False, batch_mode="exact"
        )
        assert len(results) == 2
        # Both cells run on the same three samples, built once per grid.
        assert csr_builds["networks"] == 3
        assert csr_builds["in_csr"] == 0

    def test_degree_queries_build_no_in_csr(self, csr_builds):
        net = random_digraph(300, 0.05, rng=3)
        ref = RadioNetwork(net.n, net.edge_list())
        in_deg = net.in_degrees()
        stats = degree_statistics(net)
        assert csr_builds["in_csr"] == 0
        assert in_deg.dtype == np.int64
        np.testing.assert_array_equal(in_deg, np.diff(ref.in_indptr))
        assert stats.mean_in == pytest.approx(net.num_edges / net.n)
        assert stats.max_in == int(in_deg.max())

    def test_first_access_builds_once_read_only(self, csr_builds):
        net = random_digraph(300, 0.05, rng=4)
        indptr, indices = net.in_indptr, net.in_indices
        net.in_neighbors(7)
        assert net.in_indptr is indptr and net.in_indices is indices
        assert csr_builds["in_csr"] == 1
        assert not indptr.flags.writeable and not indices.flags.writeable
        _assert_in_csr_matches_reverse(net)

    @pytest.mark.parametrize("materialise", [False, True])
    def test_pickle_round_trip(self, materialise):
        net = random_digraph(200, 0.05, rng=6, name="g")
        if materialise:
            net.in_indices
        back = pickle.loads(pickle.dumps(net))
        assert back == net and back.name == "g"
        _assert_in_csr_matches_reverse(back)
        for got, want in ((back.in_indptr, net.in_indptr), (back.in_indices, net.in_indices)):
            np.testing.assert_array_equal(got, want)

    def test_empty_network(self):
        net = RadioNetwork(4, np.empty((0, 2), dtype=np.int64))
        assert net.in_degrees().tolist() == [0, 0, 0, 0]
        assert net.in_indptr.tolist() == [0] * 5
        assert net.in_indices.size == 0
