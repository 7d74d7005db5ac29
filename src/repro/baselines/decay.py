"""The Bar-Yehuda–Goldreich–Itai ``Decay`` broadcast [3].

The classic randomised broadcast for unknown radio networks.  Time is divided
into *phases* of ``k = ceil(2 log2 n)`` rounds.  At the start of each phase
every informed node draws a geometric stopping time and then transmits in the
first ``X`` rounds of the phase, where ``Pr[X >= i] = 2^{-(i-1)}`` (i.e. it
keeps transmitting and halves its survival probability every round, capped at
``k``).  Within a phase the expected number of transmissions per informed
node is at most 2, and each uninformed neighbour of the frontier is informed
with constant probability per phase, giving ``O((D + log n) log n)`` rounds
w.h.p.

Energy: a node keeps participating in every phase until the broadcast
completes (the original protocol has no retirement rule), so per-node energy
grows linearly with the number of phases it lives through —
``Θ(log n)``-ish near the source but up to ``Θ((D + log n))`` transmissions
per node overall.  This is the energy cost Algorithm 3 avoids.  An optional
``max_phases_active`` cut-off bounds it for the comparison experiments.

Phase quotas live in a :class:`~repro.radio.nodesets.QuotaFrontier` (a
dense quota array, one row per trial),
drawn only for the participating nodes.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro._util.validation import check_positive_int
from repro.radio.batch import BatchBroadcastProtocol
from repro.radio.collision import BatchCollisionOutcome
from repro.radio.nodesets import QuotaFrontier

__all__ = ["DecayBroadcast"]


class DecayBroadcast(BatchBroadcastProtocol):
    """Bar-Yehuda et al. Decay protocol.

    Parameters
    ----------
    source:
        Broadcast originator.
    max_phases_active:
        Optional retirement rule: a node stops participating after this many
        phases counted from the phase in which it was informed.  ``None``
        reproduces the original (energy-unbounded) protocol.

    At each phase boundary the participating nodes of every running trial
    draw their geometric transmission quotas in one concatenated call
    (:meth:`~repro.radio.batch.BatchRandomSource.geometrics_for_counts`); the
    within-phase rounds then ask the
    :class:`~repro.radio.nodesets.QuotaFrontier` for the surviving
    transmitters, one ``(R, n)`` mask comparison per round.  Exact mode draws
    each trial's block, ``rng.geometric(0.5, count)``, from its own generator.
    """

    name = "decay-broadcast"

    def __init__(self, *, source: int = 0, max_phases_active: Optional[int] = None):
        super().__init__(source=source)
        if max_phases_active is not None:
            max_phases_active = check_positive_int(
                max_phases_active, "max_phases_active"
            )
        self.max_phases_active = max_phases_active
        self.phase_length: int = 1
        self._frontier: Optional[QuotaFrontier] = None
        self._informed_phase: Optional[np.ndarray] = None

    def _setup_broadcast(self) -> None:
        trials, n = self.trials, self.n
        self.phase_length = max(1, int(math.ceil(2 * math.log2(max(2, n)))))
        self._frontier = QuotaFrontier(trials, n)
        self._informed_phase = np.full((trials, n), -1, dtype=np.int64)
        self._informed_phase[:, self.source] = 0
        self._stuck = np.zeros(trials, dtype=bool)
        self._probe_counts = np.full(trials, -1, dtype=np.int64)
        self._tested_counts = np.full(trials, -1, dtype=np.int64)

    def transmit_flat(self, round_index: int, running: np.ndarray) -> np.ndarray:
        phase_index, within = divmod(round_index, self.phase_length)
        if within == 0:
            participating = self.informed & running[:, None]
            if self.max_phases_active is not None:
                alive = (
                    phase_index - self._informed_phase
                ) < self.max_phases_active
                participating &= alive & (self._informed_phase >= 0)
            counts = participating.sum(axis=1)
            if counts.any():
                # Concatenated trial-major draws land on participating nodes
                # in ascending id order.
                draws = self.rng_source.geometrics_for_counts(0.5, counts)
                values = np.minimum(draws, self.phase_length)
            else:
                values = np.empty(0, dtype=np.int64)
            self._frontier.begin_phase(participating, values)
        return self._frontier.transmitters(within, running)

    def observe(
        self,
        round_index: int,
        tx_flat: np.ndarray,
        outcome: BatchCollisionOutcome,
        running: np.ndarray,
    ) -> None:
        newly = self.mark_informed(outcome.receiver_flat, round_index)
        if newly.size:
            phase_index = round_index // self.phase_length
            # Newly informed nodes join from the *next* phase.
            self._informed_phase.reshape(-1)[newly] = phase_index + 1

    def _trial_frontier_closed(self, trial: int, informed: np.ndarray) -> bool:
        """True when trial ``trial`` has no informed-to-uninformed edge."""
        n = self.n
        batch = self.batch
        indptr = batch.out_indptr[trial * n : (trial + 1) * n + 1]
        targets = batch.out_indices[indptr[0] : indptr[-1]]
        row = informed[trial]
        src_informed = np.repeat(row, np.diff(indptr))
        return not (src_informed & ~row[targets - trial * n]).any()

    def quiescent(self, round_index: int) -> np.ndarray:
        # A trial is dead when its informed set is closed under out-edges, or
        # when ``max_phases_active`` silenced every informed node for good.
        # The O(edges) closure test runs at most once per distinct informed
        # count, and only at phase boundaries that made zero progress.
        if round_index % self.phase_length == 0:
            counts = self._members.counts()
            n = self.n
            incomplete = ~self._stuck & (counts < n)
            if incomplete.any():
                if self.max_phases_active is not None:
                    phase_index = round_index // self.phase_length
                    alive = (
                        self.informed
                        & (self._informed_phase >= 0)
                        & (
                            (phase_index - self._informed_phase)
                            < self.max_phases_active
                        )
                    )
                    self._stuck |= incomplete & ~alive.any(axis=1)
                candidates = np.flatnonzero(
                    incomplete
                    & ~self._stuck
                    & (counts == self._probe_counts)
                    & (counts != self._tested_counts)
                )
                if candidates.size:
                    informed = self.informed
                    for trial in candidates:
                        self._tested_counts[trial] = counts[trial]
                        if self._trial_frontier_closed(int(trial), informed):
                            self._stuck[trial] = True
            self._probe_counts = counts.copy()
        return self._stuck | self.completed()

    def _compact_broadcast(self, keep: np.ndarray) -> None:
        self._frontier.select_rows(keep)
        self._informed_phase = np.ascontiguousarray(self._informed_phase[keep])
        self._stuck = self._stuck[keep].copy()
        self._probe_counts = self._probe_counts[keep].copy()
        self._tested_counts = self._tested_counts[keep].copy()

    def suggested_max_rounds(self) -> int:
        log_n = max(1.0, math.log2(max(2, self.n)))
        return int(math.ceil(32 * (self.n + log_n) * log_n))

    def trial_metadata(self, trial: int) -> Dict[str, object]:
        return {
            "phase_length": self.phase_length,
            "max_phases_active": self.max_phases_active,
        }
