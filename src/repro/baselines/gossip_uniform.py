"""A selection-sequence gossip baseline for general networks.

The paper's Algorithm 2 is specialised to random networks (it needs to know
``d = n p``).  For general networks the literature route ([8, 11]) is to run
repeated broadcast-like phases; the practical common denominator is a
selection-sequence gossip in which a public scale ``I_r`` is drawn uniformly
from ``{1 .. log n}`` each round and *every* node transmits its joined
rumour set with probability ``2^{-I_r}``.  Per-node energy is
``Θ(rounds / log n)`` and completion takes ``O((D + log n) log n · …)``
rounds on bounded-diameter graphs — the baseline Algorithm 2 beats by a
``Θ(n / d)``-ish factor on random networks (experiment E4/E14).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro._util.validation import check_positive
from repro.core.distributions import UniformScaleDistribution
from repro.core.selection import SelectionSequence
from repro.radio.batch import BatchGossipProtocol

__all__ = ["UniformScaleGossip"]


class UniformScaleGossip(BatchGossipProtocol):
    """Gossip where all nodes transmit with a shared uniform-scale probability.

    Parameters
    ----------
    rounds_constant:
        Safety-net horizon constant ``C``: the protocol stops scheduling
        transmissions after ``C · n · log2 n`` rounds (the engine stops much
        earlier on the workloads we use, as soon as gossip completes).

    Each trial has its own public scale sequence.  In exact mode trial ``t``
    materialises a :class:`~repro.core.selection.SelectionSequence` from its
    own generator and interleaves the scale-block and node draws; in fast
    mode one shared generator draws the ``R`` scales of a round at once.
    """

    name = "uniform-scale-gossip"

    def __init__(self, *, rounds_constant: float = 8.0):
        super().__init__()
        self.rounds_constant = check_positive(rounds_constant, "rounds_constant")
        self.round_budget: int = 0
        self._sequences: Optional[List[SelectionSequence]] = None
        self._distribution: Optional[UniformScaleDistribution] = None

    def _setup_gossip(self) -> None:
        n = self.n
        log_n = max(1.0, math.log2(max(2, n)))
        self.round_budget = int(math.ceil(self.rounds_constant * n * log_n))
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
        if self._sequences is not None:
            # Exact mode: per trial, the scale lookup (which may draw a block
            # of public randomness) then the n node coins.
            for t in np.flatnonzero(running):
                probability = self._sequences[t].probability_at(round_index)
                draws = self.rng_source.generator_for_trial(t).random(n)
                masks[t] = draws < probability
            return masks
        # Fast mode: draw this round's R public scales in one call (the
        # engine visits each round exactly once, so no cache is needed).
        probabilities = self._distribution.sample_probabilities(
            trials, rng=self.rng_source.generator
        )
        rows = np.flatnonzero(running)
        if rows.size:
            draws = self.rng_source.uniform_rows(running, n)
            masks[rows] = draws < probabilities[rows, None]
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
        return {"round_budget": self.round_budget}
