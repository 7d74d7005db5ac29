"""Streaming (single-pass, bounded-memory) aggregation of per-trial metrics.

The experiment sweeps used to materialise every
:class:`~repro.radio.trace.RunResultTrace` of a repetition sweep and reduce
the list at the end (``aggregate_runs``).  That caps concentration studies:
a 10⁵-trial tail estimation would hold 10⁵ traces in memory for the sake of
a handful of scalars.  This module provides the replacement reduction — a
:class:`MetricAccumulator` that consumes one scalar observation at a time
and keeps only

* **exact running moments** — count, sum and sum of squares held as
  Shewchuk-style non-overlapping partials, so the reduced sum is the
  *correctly rounded* true sum.  Feeding the same multiset of values in any
  order (shards complete out of order under process fan-out) yields
  bit-identical results, which is what lets the streaming path promise
  equality with the materialised one;
* **min / max**;
* a **bounded-memory quantile sketch** (:class:`QuantileSketch`): exact
  order statistics while the sample fits its capacity, a deterministic
  Ben-Haim/Tom-Tov-style centroid histogram beyond it.

Accumulator state is plain JSON (:meth:`MetricAccumulator.state_dict` /
:meth:`MetricAccumulator.from_state`) so a resumable sweep can checkpoint
its running aggregation next to the result store and *continue* it on
resume instead of re-reading every stored trace.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.analysis.statistics import SummaryStatistics, _normal_quantile

__all__ = [
    "QuantileSketch",
    "MetricAccumulator",
    "AccumulatorSet",
]


def _partials_add(partials: List[float], x: float) -> None:
    """Add ``x`` into a Shewchuk partial-sum list (exact, in place).

    The invariant: ``partials`` is a list of non-overlapping floats whose
    mathematical sum is exactly the sum of everything added so far.
    """
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def partials_extend(partials: Sequence[float], values: np.ndarray) -> List[float]:
    """Add every element of ``values`` into a Shewchuk partial-sum list.

    Returns the new partial list (the input is not mutated), bit-identical
    to repeated :func:`_partials_add` calls.  The loop is inlined to save
    a function call per value.
    """
    result = list(partials)
    for x in np.asarray(values, dtype=np.float64).ravel().tolist():
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


def _partials_value(partials: Sequence[float]) -> float:
    """Correctly rounded float value of a partial-sum list."""
    return math.fsum(partials)


class QuantileSketch:
    """Deterministic bounded-memory quantile estimate.

    Equal values share one weighted centroid, so the sketch is **lossless**
    — and :meth:`quantile` returns the *exact* NumPy-``linear`` order
    statistic (the median equals ``np.median`` bit for bit) — as long as
    the number of *distinct* values stays within ``capacity``.  That covers
    both small samples and arbitrarily large sweeps of discrete metrics
    (completion rounds, transmission counts), the bulk of what the
    experiments measure.

    Only once distinct values exceed the capacity does it degrade to a
    Ben-Haim/Tom-Tov streaming histogram: the two closest adjacent
    centroids merge into their weighted mean, and quantiles are read by
    piecewise-linear interpolation over cumulative weights.  Both regimes
    are deterministic functions of the insertion sequence (no randomness);
    only the lossy regime is order-sensitive, which the equivalence tests
    treat as a tolerance, not an identity.
    """

    __slots__ = ("capacity", "_values", "_weights", "count", "_lossless")

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 2:
            raise ValueError(f"sketch capacity must be >= 2, got {capacity}")
        self.capacity = int(capacity)
        self._values: List[float] = []
        self._weights: List[float] = []
        self.count = 0
        self._lossless = True

    # ------------------------------------------------------------------ #
    def add(self, value: float, weight: float = 1.0) -> None:
        index = bisect.bisect_left(self._values, value)
        if index < len(self._values) and self._values[index] == value:
            # Exact duplicate: bump the centroid's weight — no growth, no
            # compaction, no information loss.
            self._weights[index] += weight
        else:
            self._values.insert(index, value)
            self._weights.insert(index, weight)
            if len(self._values) > self.capacity:
                self._compact()
        self.count += weight

    def extend(self, values: np.ndarray) -> None:
        """Add a chunk of unit-weight values in one sorted merge.

        While the sketch is lossless and the merged distinct-value set still
        fits the capacity, the result is np-bitwise identical to adding the
        values one at a time (sequential adds would never compact either, so
        both paths end at the same sorted centroid list; weight bumps are
        exact integer float additions).  Otherwise — the sketch is already
        lossy, or the merge would overflow capacity — it falls back to
        per-value :meth:`add` calls, preserving the order-sensitive
        compaction semantics exactly.
        """
        values = np.ascontiguousarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        unique, counts = np.unique(values, return_counts=True)
        fits = self._lossless and (
            len(self._values) == 0 or unique.size <= self.capacity
        )
        if fits and len(self._values):
            existing = np.asarray(self._values, dtype=np.float64)
            positions = np.searchsorted(existing, unique)
            clipped = np.minimum(positions, existing.size - 1)
            duplicate = existing[clipped] == unique
            new_count = int(unique.size - duplicate.sum())
            if len(self._values) + new_count > self.capacity:
                fits = False
            else:
                weights = np.asarray(self._weights, dtype=np.float64)
                if duplicate.any():
                    weights[positions[duplicate]] += counts[duplicate]
                if new_count:
                    insert_at = positions[~duplicate]
                    existing = np.insert(existing, insert_at, unique[~duplicate])
                    weights = np.insert(
                        weights, insert_at, counts[~duplicate].astype(np.float64)
                    )
                self._values = existing.tolist()
                self._weights = weights.tolist()
                self.count += float(values.size)
                return
        if fits:
            if unique.size > self.capacity:
                fits = False
            else:
                self._values = unique.tolist()
                self._weights = counts.astype(np.float64).tolist()
                self.count += float(values.size)
                return
        for value in values.tolist():
            self.add(value)

    def _compact(self) -> None:
        """Merge the closest adjacent centroid pair (first such pair wins)."""
        self._lossless = False
        values, weights = self._values, self._weights
        best = 0
        best_gap = math.inf
        for i in range(len(values) - 1):
            gap = values[i + 1] - values[i]
            if gap < best_gap:
                best_gap = gap
                best = i
        w = weights[best] + weights[best + 1]
        merged = (
            values[best] * weights[best] + values[best + 1] * weights[best + 1]
        ) / w
        values[best : best + 2] = [merged]
        weights[best : best + 2] = [w]

    # ------------------------------------------------------------------ #
    def quantile(self, q: float) -> float:
        """The ``q``-quantile of everything added (``0 <= q <= 1``)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must lie in [0, 1], got {q}")
        if not self._values:
            raise ValueError("cannot query an empty sketch")
        values, weights = self._values, self._weights
        if self._lossless:
            # NumPy 'linear' interpolation over the (weight-expanded) sorted
            # sample, including NumPy's two-sided lerp — so e.g. the median
            # is np.median bit for bit while the sketch is lossless.
            total = int(round(self.count))
            position = q * (total - 1)
            low = int(math.floor(position))
            high = min(low + 1, total - 1)
            frac = position - low
            a = self._value_at_rank(low)
            b = self._value_at_rank(high)
            diff = b - a
            if frac >= 0.5:
                return b - diff * (1.0 - frac)
            return a + diff * frac
        # Centroid regime: centroid i sits at cumulative weight
        # (w_i / 2 + sum of earlier weights); interpolate linearly between
        # neighbouring centroids.
        total = math.fsum(weights)
        target = q * total
        cumulative = 0.0
        previous_value = values[0]
        previous_centre = weights[0] / 2.0
        if target <= previous_centre:
            return values[0]
        for i in range(len(values)):
            centre = cumulative + weights[i] / 2.0
            if target <= centre:
                span = centre - previous_centre
                frac = (target - previous_centre) / span if span > 0 else 0.0
                return previous_value * (1.0 - frac) + values[i] * frac
            previous_value = values[i]
            previous_centre = centre
            cumulative += weights[i]
        return values[-1]

    def median(self) -> float:
        return self.quantile(0.5)

    def _value_at_rank(self, rank: int) -> float:
        """The ``rank``-th smallest sample (0-based) of the weighted multiset."""
        cumulative = 0.0
        for value, weight in zip(self._values, self._weights):
            cumulative += weight
            if rank < cumulative:
                return value
        return self._values[-1]

    @property
    def is_exact(self) -> bool:
        """True while no lossy compaction has happened (quantiles exact)."""
        return self._lossless

    # ------------------------------------------------------------------ #
    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other``'s centroids into this sketch."""
        if not other._lossless:
            self._lossless = False
        for value, weight in zip(other._values, other._weights):
            self.add(value, weight)

    def state_dict(self) -> Dict[str, object]:
        return {
            "capacity": self.capacity,
            "values": list(self._values),
            "weights": list(self._weights),
            "count": self.count,
            "lossless": self._lossless,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "QuantileSketch":
        sketch = cls(capacity=int(state["capacity"]))
        sketch._values = [float(v) for v in state["values"]]
        sketch._weights = [float(w) for w in state["weights"]]
        sketch.count = float(state.get("count", math.fsum(sketch._weights)))
        sketch._lossless = bool(state.get("lossless", True))
        return sketch

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QuantileSketch(centroids={len(self._values)}, count={self.count})"


class MetricAccumulator:
    """Single-pass reduction of one scalar metric across a sweep's trials.

    Feed observations with :meth:`add`; read the reduced
    :class:`~repro.analysis.statistics.SummaryStatistics` with
    :meth:`summary`.  The running moments are held as exact partial sums, so
    the mean (and every quantity derived from count/sum/sum-of-squares) is
    independent of the order trials stream in — a sweep aggregated shard by
    shard as completions arrive produces bit-identical moments to one
    aggregated from a materialised list.
    """

    __slots__ = ("count", "_sum", "_sumsq", "minimum", "maximum", "sketch")

    def __init__(self, *, sketch_capacity: int = 1024) -> None:
        self.count = 0
        self._sum: List[float] = []
        self._sumsq: List[float] = []
        self.minimum = math.inf
        self.maximum = -math.inf
        self.sketch = QuantileSketch(capacity=sketch_capacity)

    # ------------------------------------------------------------------ #
    def add(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"cannot accumulate non-finite value {value!r}")
        self.count += 1
        _partials_add(self._sum, value)
        _partials_add(self._sumsq, value * value)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self.sketch.add(value)

    def add_many(
        self,
        values: Iterable[float],
        weights: Optional[Iterable[float]] = None,
    ) -> None:
        """Accumulate a chunk of observations in vectorised passes.

        The unweighted path is bit-identical to calling :meth:`add` per
        value: moments are folded through the chunked Shewchuk loop
        (:func:`partials_extend`), min/max reduce over the array, and the
        sketch takes the chunk via :meth:`QuantileSketch.extend`.  Unlike
        :meth:`add`, validation is all-or-nothing: a non-finite value raises
        before anything is accumulated.

        ``weights`` (optional, positive and finite) treats each value as a
        weighted observation: the count grows by each weight, the moments by
        ``w·v`` / ``w·v²`` (each product rounded once), and the sketch takes
        per-value weighted adds.  Weighted ingest is a convenience for
        pre-reduced inputs; only the unweighted path carries the bit-equality
        guarantee.
        """
        if not isinstance(values, (np.ndarray, list, tuple)):
            values = list(values)
        values = np.ascontiguousarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        if not np.isfinite(values).all():
            bad = values[~np.isfinite(values)][0]
            raise ValueError(f"cannot accumulate non-finite value {bad!r}")
        if weights is None:
            self.count += int(values.size)
            self._sum = partials_extend(self._sum, values)
            self._sumsq = partials_extend(self._sumsq, values * values)
            low = float(values.min())
            high = float(values.max())
            if low < self.minimum:
                self.minimum = low
            if high > self.maximum:
                self.maximum = high
            self.sketch.extend(values)
            return
        weights = np.ascontiguousarray(weights, dtype=np.float64).ravel()
        if weights.shape != values.shape:
            raise ValueError(
                f"weights must match values ({values.shape}), "
                f"got {weights.shape}"
            )
        if not np.isfinite(weights).all() or (weights <= 0).any():
            raise ValueError("weights must be positive and finite")
        self.count += float(weights.sum())
        self._sum = partials_extend(self._sum, weights * values)
        self._sumsq = partials_extend(self._sumsq, weights * (values * values))
        low = float(values.min())
        high = float(values.max())
        if low < self.minimum:
            self.minimum = low
        if high > self.maximum:
            self.maximum = high
        for value, weight in zip(values.tolist(), weights.tolist()):
            self.sketch.add(value, weight)

    def merge(self, other: "MetricAccumulator") -> None:
        """Fold another accumulator in (exact for the moments)."""
        self.count += other.count
        for partial in other._sum:
            _partials_add(self._sum, partial)
        for partial in other._sumsq:
            _partials_add(self._sumsq, partial)
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        self.sketch.merge(other.sketch)

    # ------------------------------------------------------------------ #
    @property
    def total(self) -> float:
        """Correctly rounded running sum."""
        return _partials_value(self._sum)

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("cannot take the mean of zero observations")
        return self.total / self.count

    def variance(self) -> float:
        """Unbiased (ddof=1) sample variance from the exact moments."""
        if self.count < 2:
            return 0.0
        total = self.total
        sumsq = _partials_value(self._sumsq)
        var = (sumsq - total * total / self.count) / (self.count - 1)
        # The two-pass formula np.std uses cannot go negative; the one-pass
        # moment formula can by a rounding hair when the spread is tiny.
        return max(var, 0.0)

    def summary(self, *, confidence: float = 0.95) -> SummaryStatistics:
        """The sweep-level summary (same shape ``summarize`` produces)."""
        if self.count == 0:
            raise ValueError("cannot summarise an empty accumulator")
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
        mean = self.mean
        std = math.sqrt(self.variance()) if self.count > 1 else 0.0
        z = _normal_quantile(0.5 + confidence / 2.0)
        half_width = z * std / math.sqrt(self.count) if self.count > 1 else 0.0
        return SummaryStatistics(
            count=self.count,
            mean=mean,
            std=std,
            minimum=self.minimum,
            maximum=self.maximum,
            median=self.sketch.median(),
            ci_low=mean - half_width,
            ci_high=mean + half_width,
        )

    def summary_or_none(self) -> Optional[SummaryStatistics]:
        return self.summary() if self.count else None

    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum_partials": list(self._sum),
            "sumsq_partials": list(self._sumsq),
            "min": None if self.count == 0 else self.minimum,
            "max": None if self.count == 0 else self.maximum,
            "sketch": self.sketch.state_dict(),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "MetricAccumulator":
        accumulator = cls(sketch_capacity=int(state["sketch"]["capacity"]))
        accumulator.count = int(state["count"])
        accumulator._sum = [float(v) for v in state["sum_partials"]]
        accumulator._sumsq = [float(v) for v in state["sumsq_partials"]]
        if state.get("min") is not None:
            accumulator.minimum = float(state["min"])
        if state.get("max") is not None:
            accumulator.maximum = float(state["max"])
        accumulator.sketch = QuantileSketch.from_state(state["sketch"])
        return accumulator

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.count == 0:
            return "MetricAccumulator(empty)"
        return f"MetricAccumulator(count={self.count}, mean={self.mean:.4g})"


class AccumulatorSet:
    """A named family of :class:`MetricAccumulator`\\ s (one sweep cell's
    running aggregation) plus the trial count it has consumed.

    Observations arrive as per-trial mappings ``{metric: value-or-values}``;
    ``None`` values are skipped (a metric can be undefined for a trial —
    e.g. the completion round of a failed run), and list values contribute
    every element (metrics with several samples per trial, like per-round
    growth factors).
    """

    def __init__(
        self, metrics: Sequence[str], *, sketch_capacity: int = 1024
    ) -> None:
        self.metrics: Dict[str, MetricAccumulator] = {
            name: MetricAccumulator(sketch_capacity=sketch_capacity)
            for name in metrics
        }
        self.trials = 0

    def observe(self, sample: Dict[str, object]) -> None:
        """Consume one trial's metric mapping."""
        self.trials += 1
        for name, value in sample.items():
            if value is None:
                continue
            accumulator = self.metrics.get(name)
            if accumulator is None:
                continue
            if isinstance(value, (list, tuple)):
                accumulator.add_many(value)
            else:
                accumulator.add(value)

    def observe_many(self, samples: Sequence[Dict[str, object]]) -> None:
        """Consume a buffered chunk of trial samples in one pass per metric.

        Equivalent to calling :meth:`observe` per sample — the moments are
        exactly rounded either way, and each metric sees its values in the
        same sample order, so sketches match the sequential path too — but
        each metric pays one vectorised :meth:`MetricAccumulator.add_many`
        instead of a Python-level ``add`` per trial.
        """
        if not samples:
            return
        self.trials += len(samples)
        for name, accumulator in self.metrics.items():
            chunk: List[float] = []
            for sample in samples:
                value = sample.get(name)
                if value is None:
                    continue
                if isinstance(value, (list, tuple)):
                    chunk.extend(value)
                else:
                    chunk.append(value)
            if chunk:
                accumulator.add_many(chunk)

    def __getitem__(self, name: str) -> MetricAccumulator:
        return self.metrics[name]

    def summary_or_none(self, name: str) -> Optional[SummaryStatistics]:
        accumulator = self.metrics.get(name)
        return accumulator.summary_or_none() if accumulator is not None else None

    def mean(self, name: str) -> Optional[float]:
        accumulator = self.metrics.get(name)
        if accumulator is None or accumulator.count == 0:
            return None
        return accumulator.mean

    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, object]:
        return {
            "trials": self.trials,
            "metrics": {
                name: acc.state_dict() for name, acc in self.metrics.items()
            },
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "AccumulatorSet":
        instance = cls([])
        instance.trials = int(state.get("trials", 0))
        instance.metrics = {
            name: MetricAccumulator.from_state(metric_state)
            for name, metric_state in state.get("metrics", {}).items()
        }
        return instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AccumulatorSet(trials={self.trials}, "
            f"metrics={sorted(self.metrics)})"
        )
