"""The paper's algorithms (the primary contribution).

* :class:`~repro.core.broadcast_random.EnergyEfficientBroadcast` —
  **Algorithm 1**: three-phase broadcasting for random networks ``G(n, p)``;
  O(log n) rounds w.h.p. and **at most one transmission per node**
  (Theorem 2.1).
* :class:`~repro.core.gossip_random.RandomNetworkGossip` — **Algorithm 2**:
  gossiping on ``G(n, p)`` in O(d log n) rounds with O(log n) transmissions
  per node (Theorem 3.2).
* :class:`~repro.core.broadcast_general.KnownDiameterBroadcast` —
  **Algorithm 3**: broadcasting on arbitrary networks with known diameter
  ``D`` in O(D log(n/D) + log² n) rounds using an expected
  O(log² n / log(n/D)) transmissions per node (Theorem 4.1).
* :class:`~repro.core.tradeoff.TradeoffBroadcast` — the **Theorem 4.2**
  family: λ interpolates between time-optimal and energy-optimal broadcast.
* :mod:`~repro.core.distributions` — the transmission-scale distributions
  (the paper's Fig. 1): the new distribution α, the Czumaj–Rytter α′, and the
  time-invariant single-probability distributions used by the lower bounds.
* :mod:`~repro.core.selection` — shared-randomness selection sequences.
"""

from repro.core.broadcast_general import (
    KnownDiameterBroadcast,
)
from repro.core.broadcast_random import (
    Algorithm1Schedule,
    EnergyEfficientBroadcast,
    compute_algorithm1_schedule,
)
from repro.core.distributions import (
    AlphaDistribution,
    CzumajRytterDistribution,
    FixedProbabilityOblivious,
    ScaleDistribution,
    UniformScaleDistribution,
)
from repro.core.gossip_random import RandomNetworkGossip
from repro.core.oblivious import TimeInvariantBroadcast
from repro.core.selection import SelectionSequence
from repro.core.tradeoff import TradeoffBroadcast

__all__ = [
    "EnergyEfficientBroadcast",
    "Algorithm1Schedule",
    "compute_algorithm1_schedule",
    "RandomNetworkGossip",
    "KnownDiameterBroadcast",
    "TradeoffBroadcast",
    "TimeInvariantBroadcast",
    "ScaleDistribution",
    "AlphaDistribution",
    "CzumajRytterDistribution",
    "UniformScaleDistribution",
    "FixedProbabilityOblivious",
    "SelectionSequence",
]
