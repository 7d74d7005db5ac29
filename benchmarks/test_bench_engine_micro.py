"""Micro-benchmarks of the simulation substrate itself.

These measure the per-round and per-run cost of the vectorised engine so
performance regressions in the hot path (CSR gather + bincount collision
resolution, graph sampling) are visible independently of the experiment
sweeps.  The full-run cells go through ``run_protocol``, the single-run
façade (the batch engine with one exact-mode trial), so they time the
one-trial path.
"""

import numpy as np
import pytest

from repro.core.broadcast_random import EnergyEfficientBroadcast
from repro.core.gossip_random import RandomNetworkGossip
from repro.graphs.random_digraph import connectivity_threshold_probability, random_digraph
from repro.radio.collision import StandardCollisionModel
from repro.radio.engine import run_protocol


@pytest.fixture(scope="module")
def large_gnp():
    n = 4096
    p = connectivity_threshold_probability(n, delta=4.0)
    return random_digraph(n, p, rng=3), p


def test_bench_graph_sampling(benchmark):
    """Sampling a ~170k-edge directed G(n, p)."""
    n = 4096
    p = connectivity_threshold_probability(n, delta=4.0)
    net = benchmark(lambda: random_digraph(n, p, rng=11))
    assert net.n == n


def test_bench_collision_resolution_round(benchmark, large_gnp):
    """One collision-resolution round with ~10% of nodes transmitting."""
    network, _ = large_gnp
    rng = np.random.default_rng(5)
    mask = rng.random(network.n) < 0.1
    model = StandardCollisionModel()
    outcome = benchmark(lambda: model.resolve(network, mask))
    assert outcome.hear_counts.shape == (network.n,)


def test_bench_algorithm1_full_run(benchmark, large_gnp):
    """A complete Algorithm-1 broadcast on n=4096 (the E1 unit of work),
    as one one-trial ``run_protocol`` call."""
    network, p = large_gnp
    result = benchmark(
        lambda: run_protocol(
            network, EnergyEfficientBroadcast(p), rng=9, run_to_quiescence=True
        )
    )
    assert result.energy.max_per_node <= 1


def test_bench_gossip_full_run(benchmark):
    """A complete Algorithm-2 gossip on n=128 (the E4 unit of work), as one
    one-trial ``run_protocol`` call."""
    n = 128
    p = connectivity_threshold_probability(n, delta=4.0)
    network = random_digraph(n, p, rng=2)
    result = benchmark(lambda: run_protocol(network, RandomNetworkGossip(p), rng=4))
    assert result.completed
