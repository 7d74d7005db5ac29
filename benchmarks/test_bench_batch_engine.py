"""One R-trial batch vs R one-trial calls (the tentpole micro-benchmark).

The unit of work is the E1 sweep cell: a full Algorithm-1 broadcast to
quiescence on a ``G(n, p)`` sample at ``n = 4096``, repeated over R seeds
with one topology sample per trial — exactly what ``repeat_job`` executes.
The one-trial side runs each trial through the single-run façade
(``SimulationEngine.run``: the batch engine with one exact-mode trial), so
it pays the Python round loop per trial; the batch side advances all R
trials per vectorised round.  The measured speedup is stored in
``benchmark.extra_info`` (and surfaced into ``BENCH_engine.json`` by
``benchmarks/run_benchmarks.sh``) so the perf trajectory is tracked across
PRs.  The ``serial_*`` keys and the test names are kept from when the
one-trial side was a separate serial engine, so the file's history stays
comparable.

``test_bench_batch_vs_serial_protocol`` tracks the same number for
``algorithm2`` (gossip, E4/E14/E16) and ``decay`` (the classic baseline,
E14/E15), so the perf trajectory has more than one data point.
"""

import os
import time

import pytest

from repro.baselines.decay import DecayBroadcast
from repro.core.broadcast_random import EnergyEfficientBroadcast
from repro.core.gossip_random import RandomNetworkGossip
from repro.graphs.random_digraph import (
    connectivity_threshold_probability,
    random_digraph,
)
from repro.radio.batch import BatchEngine
from repro.radio.engine import SimulationEngine

N = 4096
MAX_TRIALS = 32


@pytest.fixture(scope="module")
def e1_workload():
    """32 pre-sampled G(n, p) topologies at the E1 benchmark size."""
    p = connectivity_threshold_probability(N, delta=4.0)
    networks = [random_digraph(N, p, rng=1000 + t) for t in range(MAX_TRIALS)]
    return networks, p


def _one_trial_seconds(networks, p, trials: int) -> float:
    """R one-trial façade calls, one per network."""
    engine = SimulationEngine(run_to_quiescence=True)
    start = time.perf_counter()
    for t in range(trials):
        engine.run(networks[t], EnergyEfficientBroadcast(p), rng=2000 + t)
    return time.perf_counter() - start


@pytest.mark.parametrize("trials", [8, 32])
def test_bench_batch_vs_serial_algorithm1(benchmark, e1_workload, trials):
    """R complete Algorithm-1 runs: one R-trial batch vs R one-trial calls."""
    networks, p = e1_workload
    nets = networks[:trials]

    def batched():
        return BatchEngine(run_to_quiescence=True).run(
            nets, EnergyEfficientBroadcast(p), rng=7
        )

    results = benchmark.pedantic(batched, rounds=3, iterations=1)
    assert len(results) == trials
    assert max(r.energy.max_per_node for r in results) <= 1

    batch_seconds = benchmark.stats.stats.min
    serial_seconds = _one_trial_seconds(nets, p, trials)
    speedup = serial_seconds / batch_seconds
    benchmark.extra_info.update(
        {
            "n": N,
            "trials": trials,
            "serial_seconds": serial_seconds,
            "batch_seconds": batch_seconds,
            "serial_trials_per_second": trials / serial_seconds,
            "batch_trials_per_second": trials / batch_seconds,
            "speedup": speedup,
        }
    )
    print(
        f"\nn={N} R={trials}: one-trial calls {serial_seconds:.3f}s "
        f"({trials / serial_seconds:.1f} trials/s), "
        f"batch {batch_seconds:.3f}s ({trials / batch_seconds:.1f} trials/s), "
        f"speedup {speedup:.1f}x"
    )
    # Regression guard (the acceptance bar is 5x at R=32; leave
    # headroom while still catching real regressions).  Timing ratios on
    # shared CI runners are too noisy for a hard gate, so the assertion is
    # local-only; CI still records the measured speedup in the JSON.
    if not os.environ.get("CI"):
        assert speedup >= (4.0 if trials == 32 else 2.0)


# (name, n, trials, protocol factory).  The cells sit where the
# repetition axis dominates: algorithm2's gossip state is an (R, n, n)
# knowledge tensor so it runs at a smaller n, and decay at large n is bound
# by collision-resolution edge work that batching cannot remove (its
# phase-start rounds transmit the whole informed set), so its cell uses the
# small-n / many-trials shape the E14/E15 comparison sweeps actually run.
_PROTOCOL_CASES = {
    "algorithm2": (512, 16, lambda p: RandomNetworkGossip(p)),
    "decay": (512, 64, lambda p: DecayBroadcast()),
}


@pytest.mark.parametrize("protocol_name", sorted(_PROTOCOL_CASES))
def test_bench_batch_vs_serial_protocol(benchmark, protocol_name):
    """R complete runs: one R-trial batch vs R one-trial façade calls."""
    n, trials, make_protocol = _PROTOCOL_CASES[protocol_name]
    p = connectivity_threshold_probability(n, delta=4.0)
    networks = [random_digraph(n, p, rng=3000 + t) for t in range(trials)]

    def batched():
        return BatchEngine().run(networks, make_protocol(p), rng=11)

    results = benchmark.pedantic(batched, rounds=3, iterations=1)
    assert len(results) == trials
    assert all(r.completed for r in results)

    batch_seconds = benchmark.stats.stats.min
    engine = SimulationEngine()
    start = time.perf_counter()
    for t in range(trials):
        engine.run(networks[t], make_protocol(p), rng=4000 + t)
    serial_seconds = time.perf_counter() - start
    speedup = serial_seconds / batch_seconds
    benchmark.extra_info.update(
        {
            "protocol": protocol_name,
            "n": n,
            "trials": trials,
            "serial_seconds": serial_seconds,
            "batch_seconds": batch_seconds,
            "serial_trials_per_second": trials / serial_seconds,
            "batch_trials_per_second": trials / batch_seconds,
            "speedup": speedup,
        }
    )
    print(
        f"\n{protocol_name} n={n} R={trials}: one-trial calls "
        f"{serial_seconds:.3f}s, "
        f"batch {batch_seconds:.3f}s, speedup {speedup:.1f}x"
    )
    # The acceptance bar is 3x for these protocols; gate locally only
    # (shared CI runners are too noisy for timing asserts).
    if not os.environ.get("CI"):
        assert speedup >= 3.0


def test_bench_batch_collision_round(benchmark, e1_workload):
    """One batched collision-resolution round for 32 stacked trials."""
    import numpy as np

    from repro.radio.batch import NetworkBatch
    from repro.radio.collision import BatchStandardCollisionModel

    networks, _ = e1_workload
    batch = NetworkBatch(networks)
    rng = np.random.default_rng(5)
    masks = rng.random((batch.trials, batch.n)) < 0.1
    model = BatchStandardCollisionModel()
    outcome = benchmark(lambda: model.resolve(batch, masks))
    assert outcome.hear_counts.shape == (batch.trials, batch.n)


def test_bench_batched_repeat_job(benchmark, e1_workload):
    """The experiment-layer fast path end to end (includes topology sampling)."""
    from repro.experiments.protocols import ProtocolSpec
    from repro.experiments.runner import repeat_job
    from repro.graphs.builders import GraphSpec

    _, p = e1_workload
    graph = GraphSpec("gnp", {"n": N, "p": p})
    protocol = ProtocolSpec("algorithm1", {"p": p})

    def run():
        return repeat_job(
            graph,
            protocol,
            repetitions=8,
            seed=0,
            run_to_quiescence=True,
        )

    results = benchmark.pedantic(run, rounds=2, iterations=1)
    assert len(results) == 8
