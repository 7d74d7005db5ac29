"""Tests for the random-digraph generators."""

import hashlib
import json
import math

import numpy as np
import pytest

from repro.graphs.properties import is_strongly_connected
from repro.graphs.random_digraph import (
    connectivity_threshold_probability,
    random_digraph,
    random_undirected_radio_network,
)
from repro.radio.network import RadioNetwork


class TestRandomDigraph:
    def test_basic_shape(self):
        net = random_digraph(100, 0.05, rng=1)
        assert net.n == 100
        assert net.num_edges > 0

    def test_reproducibility(self):
        a = random_digraph(200, 0.05, rng=3)
        b = random_digraph(200, 0.05, rng=3)
        assert a == b

    def test_different_seeds_differ(self):
        a = random_digraph(200, 0.05, rng=3)
        b = random_digraph(200, 0.05, rng=4)
        assert a != b

    def test_expected_degree_close(self):
        n, p = 600, 0.05
        net = random_digraph(n, p, rng=5)
        mean_out = net.out_degrees().mean()
        assert abs(mean_out - (n - 1) * p) < 3.0

    def test_no_self_loops(self):
        net = random_digraph(80, 0.2, rng=6)
        edges = net.edge_list()
        assert not np.any(edges[:, 0] == edges[:, 1])

    def test_p_zero(self):
        assert random_digraph(10, 0.0, rng=1).num_edges == 0

    def test_p_one_is_complete(self):
        net = random_digraph(12, 1.0, rng=1)
        assert net.num_edges == 12 * 11

    def test_single_node(self):
        assert random_digraph(1, 0.5, rng=1).num_edges == 0

    def test_default_name(self):
        assert "gnp" in random_digraph(10, 0.1, rng=1).name

    def test_custom_name(self):
        assert random_digraph(10, 0.1, rng=1, name="abc").name == "abc"

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            random_digraph(10, 1.2, rng=1)

    def test_connected_in_threshold_regime(self):
        n = 400
        p = connectivity_threshold_probability(n, delta=4.0)
        net = random_digraph(n, p, rng=11)
        assert is_strongly_connected(net)


def _csr_arrays(net):
    return (net.out_indptr, net.out_indices, net.in_indptr, net.in_indices)


def _sample_digest(n, p, seed):
    """sha256 over the four CSR arrays (dtype and bytes) and the generator
    state left after sampling."""
    generator = np.random.default_rng(seed)
    net = random_digraph(n, p, rng=generator)
    h = hashlib.sha256()
    for arr in _csr_arrays(net):
        h.update(arr.dtype.str.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(json.dumps(generator.bit_generator.state, sort_keys=True).encode())
    return h.hexdigest()


class _ChoiceSpy(np.random.Generator):
    """A generator that counts ``choice`` calls (the rejection fallback)."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.choice_calls = 0

    def choice(self, *args, **kwargs):
        self.choice_calls += 1
        return super().choice(*args, **kwargs)


class TestRandomDigraphPins:
    """Bit-level pins of ``random_digraph``: the CSR arrays it builds and the
    generator state it leaves behind.  Any change to how the sampler draws or
    how the network is assembled must keep these digests."""

    PINS = {
        (2048, connectivity_threshold_probability(2048), 0): (
            "296e350757bf553bea56e5bf9e466a7736973a7bea209f2868923a4ca2510c14"
        ),
        (300, 0.05, 1): (
            "faa07aa10722b71a39330ee38589e6b73a6962b80f725d1b5a02f76deefbcaca"
        ),
        # Dense enough that the rejection loop gives up and the per-source
        # ``generator.choice`` fallback runs.
        (40, 0.97, 2): (
            "3e39bbf4398337fc5d2ad75c567734e9290a178b2050379a1a63141997c01eff"
        ),
        (1, 0.5, 3): (
            "5c264e80887b08e08c62c3ab3d52cef830003f4cd6989a3666c5980042e29a34"
        ),
        (10, 0.0, 4): (
            "8a912d614447091fa9771d52ba5dc64ec57d6172c3f1b8748b9066f754b039c5"
        ),
        (12, 1.0, 5): (
            "f8904ad2103fc50782ac705023f82bf486a8265d2279356e2dc922cd297b3529"
        ),
    }

    @pytest.mark.parametrize("key", list(PINS), ids=lambda key: f"n{key[0]}-s{key[2]}")
    def test_digest(self, key):
        assert _sample_digest(*key) == self.PINS[key]

    def test_dense_pin_runs_the_fallback(self):
        generator = _ChoiceSpy(2)
        random_digraph(40, 0.97, rng=generator)
        assert generator.choice_calls > 0

    @pytest.mark.parametrize(
        "n, p", [(500, connectivity_threshold_probability(500)), (40, 0.97)]
    )
    def test_matches_validated_constructor(self, n, p):
        for seed in range(20):
            net = random_digraph(n, p, rng=seed)
            ref = RadioNetwork(n, net.edge_list())
            for got, want in zip(_csr_arrays(net), _csr_arrays(ref)):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
            assert not any(arr.flags.writeable for arr in _csr_arrays(net))


class TestRandomUndirected:
    def test_symmetric(self):
        net = random_undirected_radio_network(100, 0.08, rng=2)
        assert net.is_symmetric()

    def test_edge_count_close_to_expectation(self):
        n, p = 300, 0.05
        net = random_undirected_radio_network(n, p, rng=4)
        expected_directed = n * (n - 1) * p  # each undirected pair -> 2 edges
        assert abs(net.num_edges - expected_directed) < 0.2 * expected_directed

    def test_p_zero(self):
        assert random_undirected_radio_network(10, 0.0, rng=1).num_edges == 0

    def test_p_one(self):
        net = random_undirected_radio_network(8, 1.0, rng=1)
        assert net.num_edges == 8 * 7

    def test_reproducible(self):
        a = random_undirected_radio_network(60, 0.1, rng=9)
        b = random_undirected_radio_network(60, 0.1, rng=9)
        assert a == b


class TestConnectivityThreshold:
    def test_formula(self):
        n = 1024
        assert connectivity_threshold_probability(n, delta=4.0) == pytest.approx(
            4 * math.log2(n) / n
        )

    def test_clamped_to_one(self):
        assert connectivity_threshold_probability(2, delta=100.0) == 1.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            connectivity_threshold_probability(1)
        with pytest.raises(ValueError):
            connectivity_threshold_probability(10, delta=0)
