"""Sequential broadcast-based gossiping (the trivial composition baseline).

The gossiping literature the paper builds on ([8, 11]) obtains gossip
algorithms by composing broadcast procedures.  The simplest member of that
family — and the natural strawman Algorithm 2 is measured against on random
networks — is the *sequential* composition: rumours are scheduled one after
another, and during rumour ``j``'s epoch every node that already knows rumour
``j`` participates in a randomised broadcast of it (all rumours a node knows
ride along, as in the join model).

With an epoch length of ``Θ(log² n)`` rounds this completes gossip on the
networks we simulate in ``Θ(n log² n)`` rounds — the ``O(n log² n)`` regime
the paper quotes for general-network gossiping — at ``Θ(polylog)``
transmissions per node, compared with Algorithm 2's ``O(d log n)`` rounds.

The broadcast procedure used inside an epoch is the uniform-scale selection
sequence (no knowledge of the topology is needed), refreshed per epoch.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro._util.validation import check_positive
from repro.core.distributions import UniformScaleDistribution
from repro.core.selection import SelectionSequence
from repro.radio.batch import BatchGossipProtocol

__all__ = ["SequentialBroadcastGossip"]


class SequentialBroadcastGossip(BatchGossipProtocol):
    """Gossip by broadcasting one rumour per epoch, in node-id order.

    Parameters
    ----------
    epoch_length_factor:
        Epoch length is ``ceil(factor * log2(n)^2)`` rounds — enough for a
        selection-sequence broadcast to finish w.h.p. on the bounded-diameter
        and random networks used in the experiments.
    passes:
        How many times the rumour schedule cycles through all ``n`` sources.
        One pass suffices on strongly connected networks because rumours
        accumulate (the join model); the option exists for stress tests on
        poorly connected topologies.

    The epoch (and therefore the scheduled rumour) depends only on the round
    index, so all trials broadcast the same rumour slot; participants are
    read off the ``(R, n, n)`` knowledge tensor.  Exact mode interleaves each
    trial's public-scale block draws and node coins from its own generator.
    """

    name = "sequential-broadcast-gossip"

    def __init__(self, *, epoch_length_factor: float = 2.0, passes: int = 1):
        super().__init__()
        self.epoch_length_factor = check_positive(
            epoch_length_factor, "epoch_length_factor"
        )
        if passes < 1:
            raise ValueError(f"passes must be >= 1, got {passes}")
        self.passes = int(passes)
        self.epoch_length: int = 1
        self.round_budget: int = 0
        self._sequences: Optional[List[SelectionSequence]] = None
        self._distribution: Optional[UniformScaleDistribution] = None

    def _setup_gossip(self) -> None:
        n = self.n
        log_n = max(1.0, math.log2(max(2, n)))
        self.epoch_length = max(1, int(math.ceil(self.epoch_length_factor * log_n**2)))
        self.round_budget = self.epoch_length * n * self.passes
        self._distribution = UniformScaleDistribution(max(2, n))
        if self.rng_source.exact_mode:
            self._sequences = [
                SelectionSequence(
                    self._distribution, rng=self.rng_source.generator_for_trial(t)
                )
                for t in range(self.trials)
            ]
        else:
            self._sequences = None

    def transmit_masks(self, round_index: int, running: np.ndarray) -> np.ndarray:
        trials, n = self.trials, self.n
        masks = np.zeros((trials, n), dtype=bool)
        if round_index >= self.round_budget:
            return masks
        epoch = round_index // self.epoch_length
        rumour = epoch % n
        # Participants: nodes that already know the epoch's rumour.
        participants = self.knows_rumour(rumour)
        if self._sequences is not None:
            for t in np.flatnonzero(running):
                if not participants[t].any():
                    continue
                probability = self._sequences[t].probability_at(round_index)
                draws = self.rng_source.generator_for_trial(t).random(n)
                masks[t] = participants[t] & (draws < probability)
            return masks
        probabilities = self._distribution.sample_probabilities(
            trials, rng=self.rng_source.generator
        )
        rows = np.flatnonzero(running)
        if rows.size:
            draws = self.rng_source.uniform_rows(running, n)
            masks[rows] = participants[rows] & (draws < probabilities[rows, None])
        return masks

    def quiescent(self, round_index: int) -> np.ndarray:
        return np.full(self.trials, round_index >= self.round_budget, dtype=bool)

    def _compact_gossip(self, keep: np.ndarray) -> None:
        if self._sequences is not None:
            # Each sequence owns its trial's generator; the object must
            # travel so the stream position survives compaction.
            self._sequences = [
                seq for seq, k in zip(self._sequences, keep) if k
            ]

    def suggested_max_rounds(self) -> int:
        return self.round_budget

    def trial_metadata(self, trial: int) -> Dict[str, object]:
        return {
            "epoch_length": self.epoch_length,
            "round_budget": self.round_budget,
            "passes": self.passes,
        }
