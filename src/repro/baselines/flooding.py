"""Folklore flooding baselines.

* :class:`DeterministicFlood` — every informed node transmits in every round.
  On a path this is optimal; on anything with two or more informed
  in-neighbours per frontier node it deadlocks permanently (the collision
  rule means nobody new is ever informed), which is precisely the failure
  mode that motivates randomised protocols.  The class exposes a
  ``max_transmissions_per_node`` cut-off so runs terminate.
* :class:`BernoulliFlood` — every informed node transmits with a fixed
  probability ``q`` each round, forever.  With ``q ≈ 1/Δ`` (Δ = max
  in-degree) this completes but spends Θ(time · q) transmissions per node —
  the energy-oblivious strawman against which the paper's bounded-energy
  protocols are measured in E14.

Deterministic flooding keeps its per-node budgets in a
:class:`~repro.radio.nodesets.BudgetFrontier` (a dense budget array, one
row per trial).
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro._util.validation import check_positive_int, check_probability
from repro.radio.batch import BatchBroadcastProtocol
from repro.radio.collision import BatchCollisionOutcome
from repro.radio.nodesets import BudgetFrontier

__all__ = [
    "DeterministicFlood",
    "BernoulliFlood",
]


class DeterministicFlood(BatchBroadcastProtocol):
    """Every informed node transmits every round (until its cut-off).

    The informed-with-budget-left set is a
    :class:`~repro.radio.nodesets.BudgetFrontier`: one comparison of the
    ``(R, n)`` remaining-budget array per round.
    """

    name = "deterministic-flood"

    def __init__(self, *, source: int = 0, max_transmissions_per_node: int = 64):
        super().__init__(source=source)
        self.max_transmissions_per_node = check_positive_int(
            max_transmissions_per_node, "max_transmissions_per_node"
        )
        self._frontier: Optional[BudgetFrontier] = None

    def _setup_broadcast(self) -> None:
        trials, n = self.trials, self.n
        self._frontier = BudgetFrontier(trials, n)
        self._frontier.admit(
            np.arange(trials, dtype=np.int64) * n + self.source,
            self.max_transmissions_per_node,
        )

    def transmit_flat(self, round_index: int, running: np.ndarray) -> np.ndarray:
        return self._frontier.transmitters(running)

    def observe(
        self,
        round_index: int,
        tx_flat: np.ndarray,
        outcome: BatchCollisionOutcome,
        running: np.ndarray,
    ) -> None:
        newly = self.mark_informed(outcome.receiver_flat, round_index)
        if newly.size:
            self._frontier.admit(newly, self.max_transmissions_per_node)

    def quiescent(self, round_index: int) -> np.ndarray:
        # An empty frontier can never refill (nobody transmits, so nobody
        # new is informed): the deadlocked trial is permanently silent.
        return self._frontier.counts() == 0

    def _compact_broadcast(self, keep: np.ndarray) -> None:
        self._frontier.select_rows(keep)

    def suggested_max_rounds(self) -> int:
        return 4 * self.n + self.max_transmissions_per_node

    def trial_metadata(self, trial: int) -> Dict[str, object]:
        return {"max_transmissions_per_node": self.max_transmissions_per_node}


class BernoulliFlood(BatchBroadcastProtocol):
    """Every informed node transmits with probability ``q`` each round, forever.

    In exact mode each running trial draws its ``rng.random(n)`` vector from
    its own generator.
    """

    name = "bernoulli-flood"

    def __init__(self, q: float, *, source: int = 0):
        super().__init__(source=source)
        self.q = check_probability(q, "q", allow_zero=False)

    def transmit_masks(self, round_index: int, running: np.ndarray) -> np.ndarray:
        masks = np.zeros((self.trials, self.n), dtype=bool)
        rows = np.flatnonzero(running)
        if rows.size:
            draws = self.rng_source.uniform_rows(running, self.n) < self.q
            masks[rows] = self.informed[rows] & draws
        return masks

    def suggested_max_rounds(self) -> int:
        log_n = max(1.0, math.log2(self.n))
        return int(math.ceil(64 * (self.n + log_n) / self.q))

    def trial_metadata(self, trial: int) -> Dict[str, object]:
        return {"q": self.q}
