"""The Elsässer–Gasieniec random-graph broadcast [12].

The direct predecessor of Algorithm 1 (the paper: "Our broadcasting
algorithm is similar to the one of Elsässer and Gasieniec in [12].  The
difference is that our algorithm sends at most one message per node, whereas
the randomised algorithm of [12] sends up to D−1 messages per node").

Three phases, with ``D = ceil(log n / log d)`` the w.h.p. diameter of
``G(n, p)``:

* **Phase 1** (``D − 1`` rounds): every informed node transmits with
  probability 1 in every round — hence up to ``D − 1`` transmissions per
  node.
* **Phase 2** (one round): every informed node transmits with probability
  ``min(1, n / d^D)``.
* **Phase 3** (``β log n`` rounds): every node informed in the first two
  phases transmits with probability ``1/d`` per round.

The broadcast time is ``O(log n)`` w.h.p., the same as Algorithm 1; the
difference E1/E14 exhibit is the per-node and total energy.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro._util.logmath import ceil_log_ratio, expected_degree
from repro._util.validation import check_positive, check_probability
from repro.radio.batch import BatchBroadcastProtocol

__all__ = ["ElsasserGasieniecBroadcast"]


class ElsasserGasieniecBroadcast(BatchBroadcastProtocol):
    """The three-phase broadcast of Elsässer and Gasieniec (SPAA 2005).

    Parameters
    ----------
    p:
        Edge probability of the underlying ``G(n, p)`` (known to all nodes).
    source:
        Broadcast originator.
    beta:
        Phase-3 length multiplier (``ceil(beta * log2 n)`` rounds).

    The phase of a round depends only on the round index, so all trials move
    through the three phases together.  In exact mode each running trial
    draws its ``rng.random(n)`` vector in Phases 2–3 from its own generator.
    """

    name = "elsasser-gasieniec-broadcast"

    def __init__(self, p: float, *, source: int = 0, beta: float = 8.0):
        super().__init__(source=source)
        self.p = check_probability(p, "p", allow_zero=False)
        self.beta = check_positive(beta, "beta")
        self.d: float = 0.0
        self.D: int = 1
        self.phase2_probability: float = 0.0
        self.phase3_probability: float = 0.0
        self.phase3_rounds: int = 0
        self._eligible_phase3: Optional[np.ndarray] = None

    def _setup_broadcast(self) -> None:
        n = self.n
        self.d = max(expected_degree(n, self.p), 1.0 + 1e-9)
        self.D = max(1, ceil_log_ratio(n, self.d))
        log_n = max(1.0, math.log2(n))
        self.phase2_probability = min(1.0, n / (self.d**self.D))
        self.phase3_probability = min(1.0, 1.0 / self.d)
        self.phase3_rounds = int(math.ceil(self.beta * log_n))
        self._eligible_phase3 = None

    def phase_of_round(self, round_index: int) -> str:
        if round_index < self.D - 1:
            return "phase1"
        if round_index == self.D - 1:
            return "phase2"
        if round_index < self.D + self.phase3_rounds:
            return "phase3"
        return "done"

    def transmit_masks(self, round_index: int, running: np.ndarray) -> np.ndarray:
        trials, n = self.trials, self.n
        phase = self.phase_of_round(round_index)
        if phase == "phase1":
            return self.informed & running[:, None]
        if phase in ("phase2", "phase3"):
            if phase == "phase2":
                eligible = self.informed
                probability = self.phase2_probability
            else:
                if self._eligible_phase3 is None:
                    # Nodes informed during Phases 1-2 are the Phase-3 pool.
                    self._eligible_phase3 = self.informed.copy()
                eligible = self._eligible_phase3
                probability = self.phase3_probability
            masks = np.zeros((trials, n), dtype=bool)
            rows = np.flatnonzero(running)
            if rows.size:
                draws = self.rng_source.uniform_rows(running, n)
                masks[rows] = eligible[rows] & (draws < probability)
            return masks
        return np.zeros((trials, n), dtype=bool)

    def quiescent(self, round_index: int) -> np.ndarray:
        return np.full(
            self.trials, round_index >= self.D + self.phase3_rounds, dtype=bool
        )

    def _compact_broadcast(self, keep: np.ndarray) -> None:
        if self._eligible_phase3 is not None:
            self._eligible_phase3 = np.ascontiguousarray(
                self._eligible_phase3[keep]
            )

    def suggested_max_rounds(self) -> int:
        return self.D + self.phase3_rounds + 1

    def trial_metadata(self, trial: int) -> Dict[str, object]:
        return {
            "p": self.p,
            "d": self.d,
            "D": self.D,
            "phase2_probability": self.phase2_probability,
            "phase3_probability": self.phase3_probability,
            "phase3_rounds": self.phase3_rounds,
        }
