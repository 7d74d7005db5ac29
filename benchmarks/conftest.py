"""Shared helpers for the benchmark suite.

Every experiment benchmark runs its experiment once (pytest-benchmark
``pedantic`` with a single round — the workloads are seconds-long sweeps, not
microseconds-long kernels), prints the resulting table so the run regenerates
the EXPERIMENTS.md numbers, and stores the headline numbers in
``benchmark.extra_info`` so they appear in the benchmark JSON.

The experiment benchmarks route through the store-aware runner with
**caching disabled**: a warm result store would turn an engine benchmark
into a disk-read benchmark, so the ambient store is cleared for every
benchmarked run regardless of environment (``REPRO_CACHE_DIR``, an earlier
``configure_execution`` call, …).  Set ``REPRO_BENCH_CACHE=<dir>`` to opt
into a store-backed run — e.g. to measure warm-sweep behaviour by hand; the
dedicated cold-vs-warm cell lives in ``test_bench_store.py`` and manages its
own store.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.registry import run_experiment
from repro.experiments.runner import configure_execution


def run_experiment_benchmark(benchmark, experiment_id: str, *, scale: str = "quick", seed: int = 0):
    """Run one experiment under pytest-benchmark and print its table."""
    result_holder = {}
    opt_in = os.environ.get("REPRO_BENCH_CACHE")
    configure_execution(store=opt_in if opt_in else None)

    def target():
        result_holder["result"] = run_experiment(experiment_id, scale=scale, seed=seed)
        return result_holder["result"]

    benchmark.pedantic(target, rounds=1, iterations=1)
    result = result_holder["result"]
    print()
    print(result.render())
    benchmark.extra_info["experiment_id"] = result.experiment_id
    benchmark.extra_info["rows"] = len(result.rows)
    benchmark.extra_info["notes"] = list(result.notes)
    return result


@pytest.fixture
def experiment_runner():
    """Fixture exposing :func:`run_experiment_benchmark`."""
    return run_experiment_benchmark
