"""Algorithm 3 — energy-efficient broadcasting with known diameter.

Theorem 4.1: on an arbitrary network whose diameter ``D`` is known to all
nodes, the following oblivious protocol completes broadcasting in
``O(D log(n/D) + log² n)`` rounds w.h.p. with an expected
``O(log² n / log(n/D))`` transmissions per node:

1. draw a public random selection sequence ``I = <I_1, I_2, …>`` with
   ``Pr[I_r = k] = α_k`` (the distribution of Fig. 1 /
   :class:`~repro.core.distributions.AlphaDistribution`);
2. a node ``u`` becomes *active* when it first receives the message (the
   source is active from the start); let ``t_u`` be that round;
3. while ``r ≤ t_u + β log² n``, an active ``u`` transmits with probability
   ``2^{-I_r}``; afterwards it becomes passive forever.

The same class also powers two baselines/ablations by swapping the
distribution and the active-window length:

* the energy-bounded Czumaj–Rytter baseline
  (:class:`repro.baselines.czumaj_rytter.KnownDiameterCR`) uses ``α′`` and a
  window longer by a factor ``log(n/D)`` — the transformation described in
  the opening of Section 4;
* the Theorem 4.2 tradeoff family
  (:class:`repro.core.tradeoff.TradeoffBroadcast`) passes a larger ``λ`` to
  the ``α`` construction.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro._util.logmath import lambda_of
from repro._util.validation import check_positive, check_positive_int
from repro.core.distributions import AlphaDistribution, ScaleDistribution
from repro.core.selection import SelectionSequence
from repro.radio.batch import BatchBroadcastProtocol

__all__ = ["KnownDiameterBroadcast"]


class KnownDiameterBroadcast(BatchBroadcastProtocol):
    """Algorithm 3 of the paper (and the engine behind its variants).

    Parameters
    ----------
    diameter:
        The known network diameter ``D``.
    source:
        Broadcast originator.
    beta:
        Active-window multiplier: a node stays active for
        ``ceil(beta * log2(n)^2)`` rounds after being informed.  The paper
        writes ``β log² n`` for an unspecified constant; ``beta = 2`` is
        enough for >0.99 success at the sizes we simulate and E12 sweeps it.
    distribution:
        Scale distribution for the public selection sequence; defaults to the
        paper's ``α`` for ``(n, D)``.  Baselines pass ``α′`` or a uniform
        distribution here.
    window_factor:
        Extra multiplier on the active window (1 for Algorithm 3).  The
        Czumaj–Rytter baseline passes ``log(n/D)`` — the price of the missing
        probability floor in ``α′``.
    round_budget_constant:
        Safety-net horizon constant ``c`` in
        ``c * (D * log(n/D) + log² n)`` rounds; the engine also stops as soon
        as every node is informed.

    Each trial carries its own public selection sequence.  In exact mode
    trial ``t`` materialises its
    :class:`~repro.core.selection.SelectionSequence` from its own generator
    and interleaves the lazy scale-block draws with the per-round ``n`` node
    coins (skipping both in rounds with no active node).  In fast mode one
    shared generator draws the round's ``R`` public scales in a single call.
    The Czumaj–Rytter and Theorem 4.2 variants subclass this class.
    """

    name = "algorithm3-known-diameter-broadcast"

    def __init__(
        self,
        diameter: int,
        *,
        source: int = 0,
        beta: float = 2.0,
        distribution: Optional[ScaleDistribution] = None,
        window_factor: float = 1.0,
        round_budget_constant: float = 24.0,
    ):
        super().__init__(source=source)
        self.diameter = check_positive_int(diameter, "diameter")
        self.beta = check_positive(beta, "beta")
        self.window_factor = check_positive(window_factor, "window_factor")
        self.round_budget_constant = check_positive(
            round_budget_constant, "round_budget_constant"
        )
        self._distribution_override = distribution

        self.distribution: Optional[ScaleDistribution] = None
        self.active_window: int = 0
        self.round_budget: int = 0
        self.lam: float = 1.0
        self._sequences: Optional[List[SelectionSequence]] = None

    def _setup_broadcast(self) -> None:
        n = self.n
        log_n = max(1.0, math.log2(n))
        self.lam = lambda_of(n, self.diameter)
        if self._distribution_override is not None:
            self.distribution = self._distribution_override
        else:
            self.distribution = AlphaDistribution(n, self.diameter)
        self.active_window = max(
            1, int(math.ceil(self.beta * self.window_factor * log_n**2))
        )
        self.round_budget = int(
            math.ceil(
                self.round_budget_constant
                * (self.diameter * self.lam + log_n**2)
            )
        )
        if self.rng_source.exact_mode:
            self._sequences = [
                SelectionSequence(
                    self.distribution,
                    rng=self.rng_source.generator_for_trial(t),
                )
                for t in range(self.trials)
            ]
        else:
            self._sequences = None

    def _active_masks(self, round_index: int) -> np.ndarray:
        return self.informed & (
            round_index < self.informed_round + self.active_window
        )

    def transmit_masks(self, round_index: int, running: np.ndarray) -> np.ndarray:
        trials, n = self.trials, self.n
        active = self._active_masks(round_index)
        masks = np.zeros((trials, n), dtype=bool)
        if self._sequences is not None:
            # Exact mode: per running trial, the scale lookup (which may draw
            # a block of public randomness) then the n node coins, skipped
            # entirely when nothing is active.
            for t in np.flatnonzero(running):
                if not active[t].any():
                    continue
                probability = self._sequences[t].probability_at(round_index)
                draws = self.rng_source.generator_for_trial(t).random(n)
                masks[t] = active[t] & (draws < probability)
            return masks
        # Fast mode: one call draws this round's R public scales.
        probabilities = self.distribution.sample_probabilities(
            trials, rng=self.rng_source.generator
        )
        rows = np.flatnonzero(running)
        if rows.size:
            draws = self.rng_source.uniform_rows(running, n)
            masks[rows] = active[rows] & (draws < probabilities[rows, None])
        return masks

    def quiescent(self, round_index: int) -> np.ndarray:
        # Nodes only enter the window by being informed, which requires an
        # active transmitter, so "no active node" is absorbing per trial.
        return ~self._active_masks(round_index).any(axis=1)

    def _compact_broadcast(self, keep: np.ndarray) -> None:
        if self._sequences is not None:
            # Sequence objects travel with their trials (each owns the
            # trial's generator, whose stream position must survive).
            self._sequences = [
                seq for seq, k in zip(self._sequences, keep) if k
            ]

    def suggested_max_rounds(self) -> int:
        return self.round_budget

    def trial_metadata(self, trial: int) -> Dict[str, object]:
        return {
            "diameter": self.diameter,
            "lambda": self.lam,
            "distribution": self.distribution.name,
            "active_window": self.active_window,
            "round_budget": self.round_budget,
            "mean_transmission_probability": self.distribution.mean_transmission_probability(),
        }

    def __repr__(self) -> str:
        dist = self._distribution_override.name if self._distribution_override else "alpha"
        return (
            f"{type(self).__name__}(diameter={self.diameter}, beta={self.beta}, "
            f"window_factor={self.window_factor}, distribution={dist!r})"
        )
