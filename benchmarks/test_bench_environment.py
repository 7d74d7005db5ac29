"""Environment-layer overhead: null-env wrapper vs bare batch engine.

The faulty-world layer (``repro.radio.environment``) promises to be free
when the world is reliable: a null environment short-circuits every hook
(``is_null`` skips them entirely) and must not disturb the engine's fast
path.  This cell measures a full Decay repetition sweep — the same
shape as the batch-vs-one-trial comparison — bare vs wrapped in a
null-by-construction environment (``iid_loss`` at rate 0), and records
``environment_overhead_ratio`` (wrapped seconds / bare seconds) into
``BENCH_engine.json``.  A non-null cell (20% i.i.d. delivery loss) is
timed alongside for context: it pays real per-round uniform draws and
delivery surgery, so its ratio is informative, not gated.
"""

import os
import time

import pytest

from repro.baselines.decay import DecayBroadcast
from repro.graphs.random_digraph import (
    connectivity_threshold_probability,
    random_digraph,
)
from repro.radio.batch import BatchEngine
from repro.radio.environment import build_environment

N = 512
TRIALS = 64


@pytest.fixture(scope="module")
def workload():
    p = connectivity_threshold_probability(N, delta=4.0)
    networks = [random_digraph(N, p, rng=7000 + t) for t in range(TRIALS)]
    return networks, p


def _run(networks, environment) -> float:
    engine = BatchEngine(environment=environment)
    start = time.perf_counter()
    results = engine.run(networks, DecayBroadcast(), rng=13)
    seconds = time.perf_counter() - start
    assert all(r.completed for r in results)
    return seconds


def test_bench_environment_overhead(benchmark, workload):
    """Null-environment wrapper must stay within 5% of the bare engine."""
    networks, _ = workload
    null_env = {"name": "iid_loss", "params": {"tx_loss": 0.0, "rx_loss": 0.0}}
    assert build_environment(null_env).is_null

    def wrapped():
        return _run(networks, null_env)

    benchmark.pedantic(wrapped, rounds=3, iterations=1)
    # Each run is ~0.1s, so single timings jitter >10% and the jitter is
    # time-correlated (frequency scaling, neighbours on a shared box).  The
    # gate therefore takes the best of five back-to-back (wrapped, bare)
    # pair ratios — the cleanest pair is the honest estimate of the
    # wrapper's cost — while the recorded seconds are each arm's floor.
    pair_ratios = []
    wrapped_times = []
    bare_times = []
    for _ in range(5):
        wrapped_times.append(_run(networks, null_env))
        bare_times.append(_run(networks, None))
        pair_ratios.append(wrapped_times[-1] / bare_times[-1])
    wrapped_seconds = min(wrapped_times)
    bare_seconds = min(bare_times)
    lossy_seconds = _run(
        networks, {"name": "iid_loss", "params": {"rx_loss": 0.2}}
    )
    overhead = min(pair_ratios)
    benchmark.extra_info.update(
        {
            "n": N,
            "trials": TRIALS,
            "bare_seconds": bare_seconds,
            "null_env_seconds": wrapped_seconds,
            "lossy_env_seconds": lossy_seconds,
            "environment_overhead_ratio": overhead,
            "lossy_env_ratio": lossy_seconds / bare_seconds,
        }
    )
    print(
        f"\ndecay n={N} R={TRIALS}: bare {bare_seconds:.3f}s, "
        f"null env {wrapped_seconds:.3f}s "
        f"(best pair {overhead:.3f}x), "
        f"rx_loss=0.2 {lossy_seconds:.3f}s "
        f"({lossy_seconds / bare_seconds:.2f}x)"
    )
    # Timing gate is local-only (shared CI runners are too noisy); CI still
    # records the measured ratio in the JSON.
    if not os.environ.get("CI"):
        assert overhead <= 1.05
