"""Shared helpers for the experiment modules."""

from __future__ import annotations

import math
from typing import Dict, Iterator, Optional

from repro.analysis.statistics import SummaryStatistics
from repro.graphs.random_digraph import connectivity_threshold_probability

__all__ = [
    "pick",
    "threshold_p",
    "sparse_p",
    "dense_p",
    "stat_mean",
    "log2n",
    "execution_provenance",
    "gadget_broadcast_samples",
]


def execution_provenance() -> Dict[str, object]:
    """Execution-layer facts worth stamping into reports and archives.

    With the sweep service in place, numbers in a report depend on more than
    the experiment parameters: the engine semantics version (which gates the
    result-store keys), the randomness policy and whether a result store
    served cached trials.  This is the one shared place the report
    generator (and any experiment that wants to) reads them from, so
    provenance lands in the output without threading flags through every
    module.
    """
    # Imported here rather than at module top so the experiment modules
    # (which all import this one) do not pull the runner in before their
    # own imports are needed.
    from repro.experiments.runner import _EXECUTION_DEFAULTS
    from repro.store import ENGINE_VERSION
    from repro.telemetry import telemetry_provenance

    defaults = _EXECUTION_DEFAULTS
    return {
        "engine_version": ENGINE_VERSION,
        "batch_mode": defaults.batch_mode,
        "result_store": (
            str(defaults.store.root) if defaults.store is not None else None
        ),
        # Observability config is stamped for the report reader but never
        # enters store digests (telemetry cannot change any result bit, so
        # keying on it would only invalidate caches).
        "telemetry": telemetry_provenance(),
    }


def pick(scale: str, *, quick, full):
    """Select the quick or full variant of a sweep parameter."""
    if scale == "quick":
        return quick
    if scale == "full":
        return full
    raise ValueError(f"scale must be 'quick' or 'full', got {scale!r}")


def threshold_p(n: int, delta: float = 4.0) -> float:
    """The paper's connectivity-regime probability ``delta * log n / n``."""
    return connectivity_threshold_probability(n, delta)


def sparse_p(n: int, exponent: float = 0.6, delta: float = 4.0) -> float:
    """``max(n^-exponent, threshold)`` — a sparse but connected regime."""
    return max(n ** (-exponent), threshold_p(n, delta))


def dense_p(n: int, exponent: float = 0.35, delta: float = 4.0) -> float:
    """``max(n^-exponent, threshold)`` — the dense regime (Phase 2 skipped)."""
    return max(n ** (-exponent), threshold_p(n, delta))


def stat_mean(value) -> Optional[float]:
    """Extract the mean from a SummaryStatistics (or pass floats through)."""
    if value is None:
        return None
    if isinstance(value, SummaryStatistics):
        return value.mean
    return float(value)


def log2n(n: int) -> float:
    """``log2 n`` clamped to at least 1 (the paper's log factors are >= 1)."""
    return max(1.0, math.log2(max(2, n)))


def gadget_broadcast_samples(
    network,
    protocol,
    generators,
    *,
    metric: str,
    nodes,
    reduce,
    max_rounds: Optional[int] = None,
    run_to_quiescence: bool = False,
) -> Iterator[Dict[str, object]]:
    """Per-trial samples of a batched broadcast ``protocol`` on one fixed
    gadget ``network``.

    One exact-mode batch-engine run covers every trial: trial ``t`` draws
    from ``generators[t]``, so it is bit-identical to a one-trial run with
    that generator.  Each sample holds ``success``; a completed trial adds
    ``rounds`` and ``metric``, its per-node transmissions over the index
    array ``nodes`` folded by ``reduce`` (``np.sum`` or ``np.mean``).
    """
    # Imported on first use, like the runner above: importing it at module
    # top reorders the package's imports, which moves the peak RSS of
    # allocation-sensitive runs (glibc's dynamic mmap threshold).
    from repro.radio.batch import BatchEngine

    engine = BatchEngine(keep_arrays=True, run_to_quiescence=run_to_quiescence)
    for trace in engine.run(
        network, protocol, rngs=generators, trials=len(generators),
        max_rounds=max_rounds,
    ):
        sample: Dict[str, object] = {"success": float(trace.completed)}
        if trace.completed:
            sample["rounds"] = float(trace.completion_round)
            sample[metric] = float(reduce(trace.per_node_transmissions[nodes]))
        yield sample
