"""Compiled hot-path kernels behind the batch engine and streaming ingest.

The engine's per-round cost is dominated by two inner loops: the batched
collision resolution (gather every transmitter's listeners, count hearers,
mask the exactly-one deliveries) and the per-trial accumulator ingest of the
streaming aggregation layer.  This module hosts compiled (numba ``@njit``)
versions of both.

Design rules:

* **Optional dependency.**  numba is never required.  Every kernel has a
  pure-numpy/pure-Python fallback with identical semantics, and the
  collision kernel is picked from the platform — compiled when numba
  imports (:func:`compiled_available`), numpy otherwise — so the package
  imports and runs unchanged without it.  Tests and benchmarks force a side
  through :attr:`repro.radio.collision.BatchCollisionModel.kernel`.
* **Exactness.**  The numpy and compiled collision kernels are
  bit-identical: the fused pass emits receivers in the scalar models'
  transmitter-major edge order, the same order the numpy reference produces
  when no listener filter is installed (exact mode never installs one).
  The ingest kernel reproduces the Shewchuk partial-sum update float for
  float, so streaming moments stay exactly rounded and order-independent.
  The kernel therefore never changes a result or a store digest.
* **Statelessness.**  Kernels keep no state between calls: every invocation
  receives the stacked CSR and transmitter set it operates on.  The
  continuous-batching engine (:meth:`repro.radio.batch.BatchEngine.
  run_continuous`) relies on this — its union batch shrinks on compaction
  and grows on refill, so the row count a kernel sees can change from one
  round to the next.

This module deliberately imports nothing from the rest of :mod:`repro` so
that :mod:`repro.radio.collision` and :mod:`repro.analysis.streaming` can
depend on it without cycles.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = [
    "compiled_available",
    "exactly_one_fused",
    "exactly_one_fused_reference",
    "partials_extend",
    "warm_kernels",
]

try:  # pragma: no cover - exercised via the no-numba subprocess test
    from numba import njit as _njit

    _HAVE_NUMBA = True
except Exception:  # pragma: no cover - ImportError in practice
    _HAVE_NUMBA = False

    def _njit(*args, **kwargs):
        """No-op ``@njit`` stand-in so kernels stay importable without numba."""
        if args and callable(args[0]):
            return args[0]

        def _decorate(function):
            return function

        return _decorate


def compiled_available() -> bool:
    """Whether numba is importable and the compiled kernels are usable."""
    return _HAVE_NUMBA


# --------------------------------------------------------------------------- #
# Fused exactly-one collision kernel
# --------------------------------------------------------------------------- #
def _exactly_one_fused_impl(indptr, indices, tx_flat, total_nodes, filter_mask):
    """Single-pass exactly-one resolution over a stacked CSR.

    Fuses the listener gather, the hear-count accumulation and the
    delivered-edge masking of the numpy reference
    (:meth:`BatchCollisionModel._batch_exactly_one_rule`) into one walk over
    the transmitters' adjacency rows.  ``filter_mask`` is either a
    ``total_nodes``-bool interest filter or an empty array meaning "no
    filter".

    Returns ``(listeners, edge_ends, delivered_mask, flat_counts,
    receiver_flat)`` with the exact dtypes and orderings of the reference:
    receivers come out in transmitter-major edge order, which is what the
    exact-equivalence mode pins against the scalar engine.
    """
    num_tx = tx_flat.shape[0]
    edge_ends = np.empty(num_tx, dtype=np.int64)
    total = 0
    for i in range(num_tx):
        v = tx_flat[i]
        total += indptr[v + 1] - indptr[v]
        edge_ends[i] = total

    listeners = np.empty(total, dtype=indices.dtype)
    flat_counts = np.zeros(total_nodes, dtype=np.int64)
    pos = 0
    for i in range(num_tx):
        v = tx_flat[i]
        for e in range(indptr[v], indptr[v + 1]):
            listener = indices[e]
            listeners[pos] = listener
            flat_counts[listener] += 1
            pos += 1

    use_filter = filter_mask.shape[0] != 0
    delivered_mask = np.empty(total, dtype=np.bool_)
    delivered = 0
    for j in range(total):
        listener = listeners[j]
        hit = flat_counts[listener] == 1
        if hit and use_filter:
            hit = filter_mask[listener]
        delivered_mask[j] = hit
        if hit:
            delivered += 1

    receiver_flat = np.empty(delivered, dtype=np.int64)
    k = 0
    for j in range(total):
        if delivered_mask[j]:
            receiver_flat[k] = listeners[j]
            k += 1
    return listeners, edge_ends, delivered_mask, flat_counts, receiver_flat


#: Undecorated reference implementation — importable for algorithmic tests
#: even when numba is absent (it is plain Python, so only call it on small
#: inputs).
exactly_one_fused_reference = _exactly_one_fused_impl

if _HAVE_NUMBA:  # pragma: no cover - requires numba
    exactly_one_fused = _njit(cache=True, nogil=True)(_exactly_one_fused_impl)
else:
    exactly_one_fused = _exactly_one_fused_impl


# --------------------------------------------------------------------------- #
# Shewchuk partial-sum chunk ingest
# --------------------------------------------------------------------------- #
#: Worst-case number of non-overlapping float64 partials is ~40 (the full
#: exponent range divided by the mantissa width); 64 leaves slack.
_PARTIALS_CAPACITY = 64


def _partials_merge_impl(buffer, count, values):
    """Fold ``values`` into a Shewchuk partial buffer, returning the new size.

    Float-for-float identical to ``streaming._partials_add`` applied per
    value: same swap, same two-sum, same zero-elision — so a chunked ingest
    leaves exactly the partials a sequential one would.
    """
    for k in range(values.shape[0]):
        x = values[k]
        i = 0
        for j in range(count):
            y = buffer[j]
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo != 0.0:
                buffer[i] = lo
                i += 1
            x = hi
        buffer[i] = x
        count = i + 1
    return count


if _HAVE_NUMBA:  # pragma: no cover - requires numba
    _partials_merge = _njit(cache=True, nogil=True)(_partials_merge_impl)
else:
    _partials_merge = None


def partials_extend(partials: Sequence[float], values: np.ndarray) -> List[float]:
    """Add every element of ``values`` into a Shewchuk partial-sum list.

    Returns the new partial list (the input is not mutated).  Uses the
    compiled chunk kernel when numba is available and an equivalent local
    Python loop otherwise; both produce bit-identical partials to repeated
    ``_partials_add`` calls, preserving the exactly-rounded,
    order-independent moment guarantee of the streaming layer.
    """
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        return list(partials)
    if _partials_merge is not None and len(partials) < _PARTIALS_CAPACITY:
        buffer = np.zeros(_PARTIALS_CAPACITY, dtype=np.float64)
        count = len(partials)
        buffer[:count] = partials
        count = _partials_merge(buffer, count, values)
        return buffer[:count].tolist()
    result = list(partials)
    for x in values.tolist():
        i = 0
        for y in result:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                result[i] = lo
                i += 1
            x = hi
        result[i:] = [x]
    return result


def warm_kernels() -> None:
    """Force JIT compilation of every compiled kernel on toy inputs.

    Benchmark fixtures call this before timing so ``BENCH_engine.json``
    cells measure steady-state throughput, not first-call compilation.
    A no-op when numba is absent.
    """
    if not _HAVE_NUMBA:  # pragma: no cover - requires numba for the rest
        return
    indptr = np.array([0, 1, 2], dtype=np.int64)
    indices = np.array([1, 0], dtype=np.int32)
    tx = np.array([0], dtype=np.int64)
    exactly_one_fused(indptr, indices, tx, 2, np.empty(0, dtype=np.bool_))
    exactly_one_fused(indptr, indices, tx, 2, np.ones(2, dtype=np.bool_))
    partials_extend([], np.array([1.0, 2.0]))
