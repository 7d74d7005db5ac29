"""Energy accounting.

The paper measures energy as the number of transmissions, because every node
sends with a fixed power (Section 1: *"We believe that under these
circumstances the number of transmissions is a very good measure for the
overall energy consumption"*).  :class:`BatchEnergyAccountant` accumulates
per-node transmission counts over each trial of a run and summarises them
as an :class:`EnergyReport` with the quantities the theorems bound:

* total number of transmissions (Theorem 2.1: ``O(log n / p)``),
* maximum transmissions per node (Theorem 2.1: at most 1; Theorem 3.2:
  ``O(log n)``),
* mean / expected transmissions per node (Theorem 4.1:
  ``O(log^2 n / log(n/D))``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

__all__ = ["BatchEnergyAccountant", "EnergyReport"]


@dataclass(frozen=True)
class EnergyReport:
    """Summary of the energy spent during a run."""

    total_transmissions: int
    max_per_node: int
    mean_per_node: float
    median_per_node: float
    p95_per_node: float
    transmitting_nodes: int
    n: int

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view (JSON-friendly)."""
        return {
            "total_transmissions": self.total_transmissions,
            "max_per_node": self.max_per_node,
            "mean_per_node": self.mean_per_node,
            "median_per_node": self.median_per_node,
            "p95_per_node": self.p95_per_node,
            "transmitting_nodes": self.transmitting_nodes,
            "n": self.n,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, float]) -> "EnergyReport":
        """Inverse of :meth:`as_dict` (exact: ints stay ints, floats floats)."""
        return cls(
            total_transmissions=int(payload["total_transmissions"]),
            max_per_node=int(payload["max_per_node"]),
            mean_per_node=float(payload["mean_per_node"]),
            median_per_node=float(payload["median_per_node"]),
            p95_per_node=float(payload["p95_per_node"]),
            transmitting_nodes=int(payload["transmitting_nodes"]),
            n=int(payload["n"]),
        )


class BatchEnergyAccountant:
    """Per-node transmission counts for ``R`` trials advancing in lockstep.

    The counters live in one ``(R, n)`` matrix so a whole batched round is
    accounted with a single vectorised add; :meth:`reports_for` summarises
    trials as :class:`EnergyReport` objects.
    """

    def __init__(self, trials: int, n: int):
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self._trials = int(trials)
        self._n = int(n)
        self._per_node = np.zeros((self._trials, self._n), dtype=np.int64)
        self._rounds_recorded = 0

    @property
    def trials(self) -> int:
        """Number of trials tracked."""
        return self._trials

    @property
    def n(self) -> int:
        """Number of nodes per trial."""
        return self._n

    @property
    def rounds_recorded(self) -> int:
        """How many batched rounds have been recorded."""
        return self._rounds_recorded

    def record_flat(self, tx_flat: np.ndarray) -> None:
        """Add one round given sorted flat transmitter ids (``trial*n + node``).

        Cost scales with the number of transmitters, not with ``R * n``.
        """
        self._per_node.reshape(-1)[tx_flat] += 1
        self._rounds_recorded += 1

    def select_rows(self, keep: np.ndarray) -> None:
        """Shrink to the trials where ``keep`` is True (compaction repack)."""
        keep = np.asarray(keep, dtype=bool)
        self._per_node = np.ascontiguousarray(self._per_node[keep])
        self._trials = int(self._per_node.shape[0])

    def per_node(self, trial: Optional[int] = None) -> np.ndarray:
        """Copy of the counts: the full ``(R, n)`` matrix or one trial's row."""
        if trial is None:
            return self._per_node.copy()
        return self._per_node[trial].copy()

    def reports_for(self, rows: np.ndarray) -> List["EnergyReport"]:
        """Reports for the selected trial rows, in ``rows`` order.

        Vectorised across trials: the continuous engine retires several
        trials at once and per-trial median/percentile passes dominate
        otherwise.
        """
        return self._reports_from(self._per_node[np.asarray(rows, dtype=np.intp)])

    def _reports_from(self, counts: np.ndarray) -> List["EnergyReport"]:
        n = counts.shape[1]
        totals = counts.sum(axis=1)
        maxima = counts.max(axis=1)
        means = totals / n
        # One partition pass supplies both the median and the 95th
        # percentile: counts are integer transmission tallies, so linear
        # interpolation between the bracketing order statistics is exact and
        # matches ``np.median`` / ``np.percentile`` bit for bit while
        # skipping their per-call dispatch overhead (which dominates when
        # the continuous engine retires one or two trials at a time).
        pos = (n - 1) * 0.95
        lo = int(pos)
        hi = min(lo + 1, n - 1)
        mid = n // 2
        kth = sorted({mid - 1 if n % 2 == 0 else mid, mid, lo, hi})
        part = np.partition(counts, kth, axis=1)
        if n % 2 == 0:
            medians = (part[:, mid - 1] + part[:, mid]) / 2.0
        else:
            medians = part[:, mid].astype(np.float64)
        p95s = part[:, lo] + (part[:, hi] - part[:, lo]) * (pos - lo)
        transmitting = (counts > 0).sum(axis=1)
        return [
            EnergyReport(
                total_transmissions=int(totals[t]),
                max_per_node=int(maxima[t]),
                mean_per_node=float(means[t]),
                median_per_node=float(medians[t]),
                p95_per_node=float(p95s[t]),
                transmitting_nodes=int(transmitting[t]),
                n=self._n,
            )
            for t in range(counts.shape[0])
        ]

    def __repr__(self) -> str:
        return (
            f"BatchEnergyAccountant(trials={self._trials}, n={self._n}, "
            f"rounds={self._rounds_recorded})"
        )
