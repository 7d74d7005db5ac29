"""Collision-kernel micro-benchmarks: compiled fused vs numpy reference.

The unit of work is the ISSUE's acceptance cell — one batched
collision-resolution round on a shared-topology ``NetworkBatch`` at
``n = 4096``, ``R = 32`` with ~10% of nodes transmitting — resolved by the
numpy reference path and by the fused compiled kernel.  When numba is
installed the compiled kernel must clear a 2x speedup over numpy on this
cell (asserted locally; CI records the numbers without gating, and the
no-numba leg records ``compiled_available: false`` with speedup ~1.0 since
``"compiled"`` then resolves to the numpy path).

Kernels are warmed (JIT compile + first-call caches) before any timing —
see ``warm_collision_kernels`` in ``conftest.py``.
"""

import os

import numpy as np
import pytest

from repro.graphs.random_digraph import (
    connectivity_threshold_probability,
    random_digraph,
)
from repro.radio import kernels
from repro.radio.batch import NetworkBatch
from repro.radio.collision import BatchStandardCollisionModel

N = 4096
R = 32
TX_FRACTION = 0.1


@pytest.fixture(scope="module")
def collision_cell():
    """Shared batch + transmitter set for every kernel variant."""
    p = connectivity_threshold_probability(N, delta=4.0)
    network = random_digraph(N, p, rng=3)
    batch = NetworkBatch.shared(network, R)
    rng = np.random.default_rng(7)
    mask = rng.random(batch.total_nodes) < TX_FRACTION
    tx_flat = np.flatnonzero(mask).astype(np.int64)
    return batch, tx_flat


def _timed_rounds(model, batch, tx_flat, rounds=5):
    """Best-of-N wall time for one resolution round (for the speedup ratio)."""
    import time

    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        model._batch_exactly_one_rule(batch, tx_flat)
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_collision_kernel_numpy(benchmark, collision_cell):
    """Numpy reference: one fused-equivalent round at n=4096, R=32."""
    batch, tx_flat = collision_cell
    model = BatchStandardCollisionModel()
    model.kernel = "numpy"
    outcome = benchmark.pedantic(
        lambda: model._batch_exactly_one_rule(batch, tx_flat),
        rounds=10,
        iterations=1,
        warmup_rounds=2,
    )
    assert outcome.hear_counts.shape == (R, N)
    benchmark.extra_info["kernel"] = "numpy"
    benchmark.extra_info["batch_nodes"] = batch.total_nodes


def test_bench_collision_kernel_compiled(benchmark, collision_cell):
    """Compiled fused kernel vs numpy on the same round (2x gate when JIT'd).

    Records ``collision_kernel_speedup`` (numpy / compiled best-of-N) so the
    ratio lands in BENCH_engine.json on both CI legs.  Without numba the
    "compiled" kernel IS the numpy path, so the ratio hovers around 1.0 and
    the gate is skipped.
    """
    batch, tx_flat = collision_cell
    compiled_model = BatchStandardCollisionModel()
    compiled_model.kernel = "compiled"
    numpy_model = BatchStandardCollisionModel()
    numpy_model.kernel = "numpy"

    outcome = benchmark.pedantic(
        lambda: compiled_model._batch_exactly_one_rule(batch, tx_flat),
        rounds=10,
        iterations=1,
        warmup_rounds=2,
    )
    assert outcome.hear_counts.shape == (R, N)

    # Bitwise agreement on the benchmarked inputs (the full equivalence
    # matrix lives in tests/test_kernels.py; this pins the timed cell).
    reference = numpy_model._batch_exactly_one_rule(batch, tx_flat)
    np.testing.assert_array_equal(outcome.receiver_flat, reference.receiver_flat)

    numpy_best = _timed_rounds(numpy_model, batch, tx_flat)
    compiled_best = _timed_rounds(compiled_model, batch, tx_flat)
    speedup = numpy_best / compiled_best
    benchmark.extra_info["kernel"] = "compiled"
    benchmark.extra_info["compiled_available"] = kernels.compiled_available()
    benchmark.extra_info["numpy_round_seconds"] = numpy_best
    benchmark.extra_info["compiled_round_seconds"] = compiled_best
    benchmark.extra_info["collision_kernel_speedup"] = speedup
    print(
        f"\ncollision round n={N} R={R}: numpy {numpy_best * 1e3:.2f} ms, "
        f"compiled {compiled_best * 1e3:.2f} ms "
        f"({speedup:.2f}x, numba={'yes' if kernels.compiled_available() else 'no'})"
    )

    # The acceptance gate: with numba present the fused kernel must at least
    # double the numpy reference on this cell.  Local-only — shared CI
    # runners are too noisy to gate on wall time.
    if kernels.compiled_available() and not os.environ.get("CI"):
        assert speedup >= 2.0, (numpy_best, compiled_best)
