"""Continuous batching vs static shards on tail-heavy and uniform workloads.

The cell the feature was built for is sub-threshold Decay: at
``p = 0.25 * connectivity_threshold_probability(n, delta=4)`` a few percent
of sampled digraphs are disconnected, and a disconnected trial can never
complete — under the pre-continuous engine (``retire_dead=False``, static
shards) each such straggler burns the full round cap *and* keeps its whole
shard's rows alive alongside it.  ``run_continuous`` retires a dead trial
the phase its informed set stops growing (Decay's frontier-closure rule),
compacts the stragglers' rows out of the stacked CSR, and refills from the
pending queue, so the cap is never paid at all.

The baseline here is deliberately the engine as it behaved before this
change — ``BatchEngine(retire_dead=False).run()`` over fixed waves — because
retirement + compaction + refill ship as one bundle and the gate measures
the bundle.  The uniform cell (connected graphs, tight completion spread)
checks the other side: when there is no tail to cut, continuous batching
must not cost more than a few percent over a single static batch.

Both runs use exact per-trial RNG streams, so completed trials finish in
bit-identical rounds under either engine; only dead trials differ (the
baseline reports the round cap, continuous reports the retirement round).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.baselines.decay import DecayBroadcast
from repro.core.broadcast_random import EnergyEfficientBroadcast
from repro.graphs.random_digraph import (
    connectivity_threshold_probability,
    random_digraph,
)
from repro.radio.batch import BatchEngine, PendingTrial

DECAY_N = 8192
DECAY_TRIALS = 96
DECAY_SHARD = 32
DECAY_MAX_ROUNDS = 4000

UNIFORM_N = 4096
UNIFORM_TRIALS = 32
#: Timed runs per side in the uniform cell, alternated with the other side.
UNIFORM_ROUNDS = 6


@pytest.fixture(scope="module")
def subthreshold_workload():
    """96 G(n, p) topologies well below the connectivity threshold.

    Expected out-degree lands near ``ln n`` — connectivity's knife edge — so
    a small fraction of samples (~2-3% at this n) leave part of the graph
    unreachable from the source and the completion-time spread is heavy.
    """
    p = 0.25 * connectivity_threshold_probability(DECAY_N, delta=4.0)
    networks = [random_digraph(DECAY_N, p, rng=1000 + t) for t in range(DECAY_TRIALS)]
    return networks


@pytest.fixture(scope="module")
def uniform_workload():
    """32 G(n, p) topologies at the connected E1 benchmark density."""
    p = connectivity_threshold_probability(UNIFORM_N, delta=4.0)
    networks = [
        random_digraph(UNIFORM_N, p, rng=1000 + t) for t in range(UNIFORM_TRIALS)
    ]
    return networks, p


def _sharded_seconds(networks):
    """Pre-continuous behavior: static waves, no dead-trial retirement."""
    engine = BatchEngine(retire_dead=False)
    start = time.perf_counter()
    results = []
    for base in range(0, DECAY_TRIALS, DECAY_SHARD):
        nets = networks[base : base + DECAY_SHARD]
        results.extend(
            engine.run(
                nets,
                DecayBroadcast(),
                rngs=[2000 + base + i for i in range(len(nets))],
                max_rounds=DECAY_MAX_ROUNDS,
            )
        )
    return time.perf_counter() - start, results


def test_bench_continuous_subthreshold_decay(benchmark, subthreshold_workload):
    """Tail-heavy Decay cell: continuous batching vs static shards."""
    networks = subthreshold_workload

    def continuous():
        pend = [
            PendingTrial(net, rng=2000 + t) for t, net in enumerate(networks)
        ]
        return BatchEngine().run_continuous(
            pend,
            DecayBroadcast,
            capacity=DECAY_SHARD,
            max_rounds=DECAY_MAX_ROUNDS,
        )

    cont_results = benchmark.pedantic(continuous, rounds=2, iterations=1)
    sharded_seconds, base_results = _sharded_seconds(networks)
    continuous_seconds = benchmark.stats.stats.min

    assert len(cont_results) == DECAY_TRIALS
    # Same trials complete under both engines, in bit-identical rounds; the
    # stragglers (incomplete) retire early instead of burning the cap.
    assert [r.completed for r in cont_results] == [r.completed for r in base_results]
    completed_rounds = [
        (c.completion_round, b.completion_round)
        for c, b in zip(cont_results, base_results)
        if c.completed
    ]
    assert all(c == b for c, b in completed_rounds)
    stragglers = [t for t, r in enumerate(cont_results) if not r.completed]
    assert stragglers, "workload must contain disconnected stragglers"
    assert all(
        cont_results[t].rounds_executed < DECAY_MAX_ROUNDS for t in stragglers
    )

    speedup = sharded_seconds / continuous_seconds
    benchmark.extra_info.update(
        {
            "n": DECAY_N,
            "trials": DECAY_TRIALS,
            "shard": DECAY_SHARD,
            "max_rounds": DECAY_MAX_ROUNDS,
            "stragglers": len(stragglers),
            "sharded_seconds": sharded_seconds,
            "continuous_seconds": continuous_seconds,
            "sharded_trials_per_second": DECAY_TRIALS / sharded_seconds,
            "continuous_trials_per_second": DECAY_TRIALS / continuous_seconds,
            "compaction_speedup": speedup,
        }
    )
    print(
        f"\nn={DECAY_N} R={DECAY_TRIALS} sub-threshold decay: "
        f"sharded {sharded_seconds:.3f}s "
        f"({DECAY_TRIALS / sharded_seconds:.1f} trials/s), "
        f"continuous {continuous_seconds:.3f}s "
        f"({DECAY_TRIALS / continuous_seconds:.1f} trials/s), "
        f"speedup {speedup:.2f}x ({len(stragglers)} stragglers retired)"
    )
    # Acceptance gate: continuous >= 1.5x sharded trials/s on the tail-heavy
    # cell.  Timing gate is local-only (shared CI runners are too noisy);
    # CI still records the measured ratio in the JSON.
    if not os.environ.get("CI"):
        assert speedup >= 1.5


def test_bench_continuous_uniform_no_regression(benchmark, uniform_workload):
    """Uniform collision cell: continuous batching must not tax the no-tail case.

    Both sides are timed the same way: each benchmark round runs one static
    batch and one continuous batch, the side that goes first alternating
    from round to round, and each side's time is its minimum over the
    rounds, so one slow moment cannot pull one side alone.
    """
    networks, p = uniform_workload
    seconds = {"static": [], "continuous": []}

    def static():
        return BatchEngine().run(
            networks,
            EnergyEfficientBroadcast(p),
            rngs=[2000 + t for t in range(UNIFORM_TRIALS)],
        )

    def continuous():
        pend = [
            PendingTrial(net, rng=2000 + t) for t, net in enumerate(networks)
        ]
        return BatchEngine().run_continuous(
            pend,
            lambda: EnergyEfficientBroadcast(p),
            capacity=UNIFORM_TRIALS,
        )

    sides = [("static", static), ("continuous", continuous)]

    def alternating_pair():
        results = {}
        for name, run in sides:
            start = time.perf_counter()
            results[name] = run()
            seconds[name].append(time.perf_counter() - start)
        sides.reverse()
        return results["static"], results["continuous"]

    batch_results, cont_results = benchmark.pedantic(
        alternating_pair, rounds=UNIFORM_ROUNDS, iterations=1
    )
    batch_seconds = min(seconds["static"])
    continuous_seconds = min(seconds["continuous"])

    assert len(cont_results) == UNIFORM_TRIALS
    assert all(r.completed for r in cont_results)
    assert [r.completion_round for r in cont_results] == [
        r.completion_round for r in batch_results
    ]

    ratio = batch_seconds / continuous_seconds
    benchmark.extra_info.update(
        {
            "n": UNIFORM_N,
            "trials": UNIFORM_TRIALS,
            "batch_seconds": batch_seconds,
            "continuous_seconds": continuous_seconds,
            "batch_trials_per_second": UNIFORM_TRIALS / batch_seconds,
            "continuous_trials_per_second": UNIFORM_TRIALS / continuous_seconds,
            "compaction_uniform_ratio": ratio,
        }
    )
    print(
        f"\nn={UNIFORM_N} R={UNIFORM_TRIALS} uniform: "
        f"static batch {batch_seconds:.3f}s, continuous {continuous_seconds:.3f}s, "
        f"ratio {ratio:.2f}x"
    )
    # No-regression gate: >= 0.95x static-batch throughput when every trial
    # completes and there is no tail to cut.  Local-only, as above.
    if not os.environ.get("CI"):
        assert ratio >= 0.95
