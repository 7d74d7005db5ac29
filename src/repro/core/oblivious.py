"""The oblivious, time-invariant protocol class used by the lower bounds.

Section 4.2 quantifies over oblivious broadcast algorithms in which every
node uses the *same* probability distribution — independent of time — to
decide whether to transmit in a round.  :class:`TimeInvariantBroadcast` is
the executable form of that class:

* at every round a shared probability ``q_r`` is drawn from a fixed
  :class:`~repro.core.distributions.ScaleDistribution` (the degenerate
  :class:`~repro.core.distributions.FixedProbabilityOblivious` gives a
  constant ``q``);
* every informed node (optionally: only within a bounded active window)
  transmits independently with probability ``q_r``.

Experiments E7 (Observation 4.3) and E8 (Theorem 4.4) sweep either the
constant ``q`` or the distribution's mean and measure, on the lower-bound
networks, how many transmissions are needed to reach the ``1 - 1/n`` success
target within a given time budget — reproducing the lower-bound frontier the
theorems prove.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro._util.validation import check_positive_int
from repro.core.distributions import FixedProbabilityOblivious, ScaleDistribution
from repro.radio.batch import BatchBroadcastProtocol

__all__ = ["TimeInvariantBroadcast"]


def _coerce_distribution(distribution) -> ScaleDistribution:
    """Accept a ScaleDistribution or a float ``q`` shorthand."""
    if isinstance(distribution, (int, float)) and not isinstance(distribution, bool):
        distribution = FixedProbabilityOblivious(float(distribution))
    if not isinstance(distribution, ScaleDistribution):
        raise TypeError(
            "distribution must be a ScaleDistribution or a float probability, "
            f"got {type(distribution).__name__}"
        )
    return distribution


class TimeInvariantBroadcast(BatchBroadcastProtocol):
    """Oblivious broadcast with a time-invariant transmission distribution.

    Parameters
    ----------
    distribution:
        Either a :class:`ScaleDistribution` (the shared per-round probability
        is ``2^{-I_r}`` with ``I_r`` drawn from it) or a plain float ``q``
        (shorthand for :class:`FixedProbabilityOblivious`).
    active_window:
        Optional number of rounds a node participates after being informed
        (``None`` = forever).  The lower-bound theorems let nodes stay active
        forever; bounding the window is how E8 converts the frontier into a
        transmissions-per-node number.
    source:
        Broadcast originator.

    Each trial draws its own shared per-round probability (one scale draw)
    followed by its ``n`` node coins.  In exact mode both draws come from the
    trial's own generator (and are skipped for trials with no eligible node);
    in fast mode the round's ``R`` scale draws collapse into one call on the
    shared generator.
    """

    name = "time-invariant-oblivious-broadcast"

    def __init__(
        self,
        distribution,
        *,
        active_window: Optional[int] = None,
        source: int = 0,
    ):
        super().__init__(source=source)
        self.distribution = _coerce_distribution(distribution)
        if active_window is not None:
            active_window = check_positive_int(active_window, "active_window")
        self.active_window = active_window

    def _eligible_masks(self, round_index: int) -> np.ndarray:
        eligible = self.informed
        if self.active_window is not None:
            eligible = eligible & (
                round_index < self.informed_round + self.active_window
            )
        return eligible

    def transmit_masks(self, round_index: int, running: np.ndarray) -> np.ndarray:
        trials, n = self.trials, self.n
        eligible = self._eligible_masks(round_index)
        masks = np.zeros((trials, n), dtype=bool)
        fixed = isinstance(self.distribution, FixedProbabilityOblivious)
        if self.rng_source.exact_mode:
            for t in np.flatnonzero(running):
                if not eligible[t].any():
                    continue
                generator = self.rng_source.generator_for_trial(t)
                if fixed:
                    probability = self.distribution.per_round_probability()
                else:
                    probability = float(
                        self.distribution.sample_probabilities(1, rng=generator)[0]
                    )
                draws = generator.random(n)
                masks[t] = eligible[t] & (draws < probability)
            return masks
        if fixed:
            probabilities = np.full(
                trials, self.distribution.per_round_probability()
            )
        else:
            probabilities = self.distribution.sample_probabilities(
                trials, rng=self.rng_source.generator
            )
        rows = np.flatnonzero(running)
        if rows.size:
            draws = self.rng_source.uniform_rows(running, n)
            masks[rows] = eligible[rows] & (draws < probabilities[rows, None])
        return masks

    def quiescent(self, round_index: int) -> np.ndarray:
        if self.active_window is None:
            return self.completed()
        return ~self._eligible_masks(round_index).any(axis=1)

    def suggested_max_rounds(self) -> int:
        import math

        log_n = max(1.0, math.log2(max(2, self.n)))
        mean_q = max(self.distribution.mean_transmission_probability(), 1e-9)
        return int(math.ceil(64 * (self.n + log_n) / mean_q))

    def trial_metadata(self, trial: int) -> Dict[str, object]:
        return {
            "distribution": self.distribution.name,
            "mean_transmission_probability": self.distribution.mean_transmission_probability(),
            "active_window": self.active_window,
        }
