"""Tests for the random-digraph generators."""

import hashlib
import importlib
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.graphs.properties import is_strongly_connected
from repro.graphs.random_digraph import (
    _MAX_REJECTION_ROUNDS,
    _distinct_targets,
    connectivity_threshold_probability,
    random_digraph,
    random_undirected_radio_network,
)
from repro.radio.network import RadioNetwork

# The module itself: the package re-exports ``random_digraph`` the function
# under the same name.
random_digraph_module = importlib.import_module("repro.graphs.random_digraph")


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
        # Multi-round rejection regimes that the quick experiment suite
        # samples: three to sixteen rounds of redraws before every block is
        # distinct.  Their seeds keep the test ids apart from the pins above.
        (1024, 0.125, 10): (
            "9dcef41a4d75fec4f055b6788381e3459090f1b5f7d679898c756e0227aac0c7"
        ),
        (2048, 0.0693, 11): (
            "f53f42b727e734811372dae040570732e0bc3bbd18360bc298dcc6a6d6b959c5"
        ),
        (1024, 0.0391, 12): (
            "5976bf8871827b856389f0620addc53e3a6616a16a00afea47325885f3d85de4"
        ),
        (8192, connectivity_threshold_probability(8192), 13): (
            "4c7a9b3a95be627b50e025ec11be775493318d2553e3b11325043f08bd3339cc"
        ),
        (96, 0.5487, 14): (
            "f2f3e2bc871ca47ec70d66702ee22bff885ce548afa81ab20181fcdc9e6707bb"
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


def _reference_distinct_targets(n, counts, sources, generator):
    """The full-scan rejection sampler that ``_distinct_targets`` replaced:
    every round takes a stable argsort of all packed ``(source, draw)``
    keys and redraws all but the first copy of each repeated key."""
    total = int(counts.sum())
    targets = generator.integers(0, n - 1, size=total)
    if total == 0:
        return targets
    offsets = sources * np.int64(n - 1)

    def scan():
        keys = offsets + targets
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        return keys, order[1:][keys[1:] == keys[:-1]]

    for _ in range(_MAX_REJECTION_ROUNDS):
        keys, redraw = scan()
        if redraw.size == 0:
            return keys - offsets
        targets[redraw] = generator.integers(0, n - 1, size=redraw.size)
    block_ends = np.cumsum(counts)
    for u in np.unique(sources[scan()[1]]):
        k = int(counts[u])
        targets[block_ends[u] - k : block_ends[u]] = generator.choice(
            n - 1, size=k, replace=False
        )
    return np.sort(offsets + targets) - offsets


class TestDistinctTargetsAgainstFullScan:
    """``_distinct_targets`` returns the same draws as the full-scan reference
    and leaves the generator in the same state, across sparse, multi-round
    and near-complete regimes (p near 1 runs the ``generator.choice``
    fallback)."""

    @settings(
        max_examples=30,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n=st.integers(min_value=2, max_value=400),
        p=st.one_of(
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
            st.sampled_from([0.9, 0.97, 0.999, 1.0]),
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    # The dense pin, whose blocks reach the fallback, and a complete graph's
    # worth of draws at the largest n.
    @example(n=40, p=0.97, seed=2)
    @example(n=400, p=1.0, seed=0)
    def test_same_draws_and_generator_state(self, n, p, seed):
        generator = np.random.default_rng(seed)
        counts = generator.binomial(n - 1, p, size=n)
        sources = np.repeat(np.arange(n, dtype=np.int64), counts)
        state = generator.bit_generator.state
        got_gen, want_gen = np.random.default_rng(), np.random.default_rng()
        got_gen.bit_generator.state = state
        want_gen.bit_generator.state = state
        got = _distinct_targets(n, counts, sources, got_gen)
        want = _reference_distinct_targets(n, counts, sources, want_gen)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert got_gen.bit_generator.state == want_gen.bit_generator.state


class _DrawSpy(np.random.Generator):
    """A generator that keeps the binomial counts and every ``integers`` draw."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.counts = None
        self.draws = []

    def binomial(self, *args, **kwargs):
        self.counts = super().binomial(*args, **kwargs)
        return self.counts

    def integers(self, *args, **kwargs):
        out = super().integers(*args, **kwargs)
        self.draws.append(out.copy())
        return out


class TestBlockLocalRescans:
    """After the first value sort, every rejection round sorts only the keys
    of source blocks that held a clash (first round) or were just redrawn
    (later rounds).  Counted on the rescan helper; no timing."""

    def test_rescans_only_touch_clashing_or_redrawn_blocks(self, monkeypatch):
        calls = []
        rescan = random_digraph_module._rescan_blocks

        def counting_rescan(sorted_keys, positions, keys):
            redraw = rescan(sorted_keys, positions, keys)
            calls.append((positions.copy(), keys.size, redraw.copy()))
            return redraw

        monkeypatch.setattr(random_digraph_module, "_rescan_blocks", counting_rescan)
        n = 8192
        generator = _DrawSpy(0)
        random_digraph(n, connectivity_threshold_probability(n), rng=generator)

        counts = generator.counts
        total = int(counts.sum())
        sources = np.repeat(np.arange(n), counts)
        starts = np.cumsum(counts) - counts
        keys, copies = np.unique(
            sources * (n - 1) + generator.draws[0], return_counts=True
        )
        clashing = np.unique(keys[copies > 1] // (n - 1))
        # One rescan per rejection round: each round that redraws, then the
        # one that finds every block distinct.
        assert len(calls) == len(generator.draws) >= 3
        expected_blocks = clashing
        for (positions, sorted_count, redraw), drawn in zip(
            calls, generator.draws[1:] + [np.empty(0)]
        ):
            blocks = np.unique(sources[positions])
            np.testing.assert_array_equal(blocks, expected_blocks)
            # Whole blocks, nothing else, in ascending position order.
            want = np.concatenate(
                [np.arange(starts[u], starts[u] + counts[u]) for u in blocks]
            )
            np.testing.assert_array_equal(positions, want)
            assert sorted_count == positions.size
            assert redraw.size == drawn.size
            expected_blocks = np.unique(sources[redraw])
        # About one block in six clashes here, so no rescan comes near a
        # full scan of the keys.
        assert max(sorted_count for _, sorted_count, _ in calls) < 0.2 * total


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
