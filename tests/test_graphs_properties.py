"""Tests for graph property helpers (BFS, diameter, degrees)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graphs.properties import (
    bfs_distances,
    bfs_layers,
    degree_statistics,
    diameter_estimate,
    is_strongly_connected,
    reachable_from,
    source_eccentricity,
)
from repro.graphs.random_digraph import random_digraph
from repro.graphs.structured import cycle_network, path_network, star_network
from repro.radio.network import RadioNetwork


class TestBfs:
    def test_distances_on_path(self, small_path):
        dist = bfs_distances(small_path, 0)
        assert list(dist) == list(range(small_path.n))

    def test_unreachable_marked(self, tiny_network):
        dist = bfs_distances(tiny_network, 4)  # node 4 has no out-edges
        assert dist[4] == 0
        assert (dist[:4] == -1).all()

    def test_layers(self, tiny_network):
        layers = bfs_layers(tiny_network, 0)
        assert [sorted(l.tolist()) for l in layers] == [[0], [1, 2], [3], [4]]

    def test_invalid_source(self, tiny_network):
        with pytest.raises(ValueError):
            bfs_distances(tiny_network, 7)


class TestEccentricityAndDiameter:
    def test_source_eccentricity_path(self, small_path):
        assert source_eccentricity(small_path, 0) == small_path.n - 1
        assert source_eccentricity(small_path, small_path.n // 2) >= (small_path.n - 1) // 2

    def test_unreachable_raises(self, tiny_network):
        with pytest.raises(ValueError):
            source_eccentricity(tiny_network, 1)

    def test_diameter_small_exact(self):
        assert diameter_estimate(cycle_network(10)) == 5
        assert diameter_estimate(star_network(6)) == 2

    def test_diameter_single_node(self):
        assert diameter_estimate(RadioNetwork(1, [])) == 0

    def test_diameter_sampled_path(self):
        # Force the sampled branch with a low exact_threshold.
        net = path_network(50)
        est = diameter_estimate(net, exact_threshold=10, samples=8, rng=1)
        assert est >= 25  # sampled estimate is a lower bound, usually exact from endpoints


def _reference_diameter(network, sources):
    """The per-source definition: max eccentricity, first failure raises."""
    best = 0
    for source in sources:
        best = max(best, source_eccentricity(network, int(source)))
    return best


def _outcome(fn):
    """A call's value, or the exact text of the ``ValueError`` it raised."""
    try:
        return ("value", fn())
    except ValueError as exc:
        return ("error", str(exc))


class TestDiameterIdentity:
    """``diameter_estimate`` equals the per-source definition on random digraphs."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 70),
        p=st.floats(0.01, 0.7),
        graph_seed=st.integers(0, 2**32 - 1),
    )
    @example(n=5, p=0.01, graph_seed=0)
    def test_exact_branch(self, n, p, graph_seed):
        net = random_digraph(n, p, rng=graph_seed)
        got = _outcome(lambda: diameter_estimate(net))
        assert got == _outcome(lambda: _reference_diameter(net, range(n)))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 70),
        p=st.floats(0.01, 0.7),
        graph_seed=st.integers(0, 2**32 - 1),
        samples=st.integers(0, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sampled_branch(self, n, p, graph_seed, samples, seed):
        net = random_digraph(n, p, rng=graph_seed)
        generator = np.random.default_rng(seed)
        got = _outcome(
            lambda: diameter_estimate(
                net, exact_threshold=1, samples=samples, rng=generator
            )
        )
        reference = np.random.default_rng(seed)
        extra = reference.integers(0, n, size=max(0, samples - 1))
        sources = np.unique(np.concatenate([[0], extra]))
        assert got == _outcome(lambda: _reference_diameter(net, sources))
        # Same generator draws as the reference, whatever the outcome.
        assert generator.bit_generator.state == reference.bit_generator.state

    def test_disconnected_message_names_first_failing_source(self):
        # 0 -> 1 -> 2 and an isolated 3: source 0 misses node 3 only.
        net = RadioNetwork(4, [(0, 1), (1, 2)])
        with pytest.raises(ValueError) as exc:
            diameter_estimate(net)
        assert str(exc.value) == (
            "1 nodes are unreachable from source 0; "
            "broadcast cannot complete on this network"
        )

    def test_disconnected_sampled_branch_message(self):
        # Node 0 reaches everything; node 3 reaches only itself and 4.
        net = RadioNetwork(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        generator = np.random.default_rng(3)
        state = np.random.default_rng(3)
        extra = state.integers(0, 5, size=7)
        first_bad = min(int(s) for s in extra if s != 0)
        with pytest.raises(ValueError) as exc:
            diameter_estimate(net, exact_threshold=2, samples=8, rng=generator)
        assert str(exc.value) == (
            f"{first_bad} nodes are unreachable from source {first_bad}; "
            "broadcast cannot complete on this network"
        )
        assert generator.bit_generator.state == state.bit_generator.state


class TestDiameterWork:
    """``diameter_estimate`` is one bit-parallel BFS, not one BFS per source."""

    @pytest.mark.parametrize(
        "network",
        [cycle_network(40), random_digraph(300, 0.05, rng=5), path_network(70)],
        ids=["cycle-40", "gnp-300", "path-70"],
    )
    @pytest.mark.parametrize("exact_threshold", [600, 1])
    def test_no_per_source_bfs_and_at_most_d_plus_one_levels(
        self, network, exact_threshold, monkeypatch
    ):
        from repro.graphs import properties

        sources = range(network.n)
        if exact_threshold < network.n:
            extra = np.random.default_rng(9).integers(0, network.n, size=15)
            sources = np.unique(np.concatenate([[0], extra]))
        diameter = _reference_diameter(network, sources)
        counts = {"bfs": 0, "levels": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            properties, "bfs_distances", counted("bfs", properties.bfs_distances)
        )
        monkeypatch.setattr(
            properties,
            "_or_in_neighbours",
            counted("levels", properties._or_in_neighbours),
        )
        got = diameter_estimate(network, exact_threshold=exact_threshold, rng=9)
        assert got == diameter
        assert counts["bfs"] == 0
        assert 1 <= counts["levels"] <= diameter + 1


class TestReachabilityAndConnectivity:
    def test_reachable_from(self, tiny_network):
        assert reachable_from(tiny_network, 0).all()
        assert reachable_from(tiny_network, 3).sum() == 2

    def test_strongly_connected(self, small_path):
        assert is_strongly_connected(small_path)

    def test_not_strongly_connected(self, tiny_network):
        assert not is_strongly_connected(tiny_network)

    def test_single_node_connected(self):
        assert is_strongly_connected(RadioNetwork(1, []))


class TestDegreeStatistics:
    def test_values(self, tiny_network):
        stats = degree_statistics(tiny_network)
        assert stats.mean_out == pytest.approx(1.0)
        assert stats.max_out == 2
        assert stats.min_in == 0
        assert stats.max_in == 2

    def test_as_dict(self, small_star):
        d = degree_statistics(small_star).as_dict()
        assert d["max_out"] == small_star.n - 1
        assert set(d) >= {"mean_out", "mean_in", "std_out", "std_in"}
