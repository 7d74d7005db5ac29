"""Czumaj–Rytter selection-sequence broadcasting baselines [11].

Two baselines are derived from the same engine as Algorithm 3
(:class:`~repro.core.broadcast_general.KnownDiameterBroadcast`), differing
only in the scale distribution and the active-window length:

* :class:`KnownDiameterCR` — the known-diameter algorithm of [11] Section
  4.1, converted into a bounded-energy protocol exactly the way the paper
  describes at the start of Section 4 ("The only modification necessary is
  to stop nodes from transmitting after a certain number of rounds").  It
  uses the distribution ``α′`` (geometric tail, no per-scale floor), so a
  node must stay active for ``Θ(log² n · log(n/D))`` rounds to guarantee
  per-neighbour delivery w.h.p., which at ``Θ(1/log(n/D))`` expected
  transmissions per round costs ``Θ(log² n)`` transmissions per node — the
  quantity Theorem 4.1 improves to ``O(log² n / log(n/D))``.

* :class:`UniformSelectionBroadcast` — the unknown-diameter variant: scales
  are drawn uniformly from ``{1 .. log n}`` and nodes stay active for
  ``Θ(log² n)`` rounds.  Per-round energy is ``Θ(1/log n)`` so per-node
  energy is ``Θ(log n)``, but the *time* loses the ``D log(n/D)`` optimality
  (every hop costs ``Θ(log n)`` regardless of local density).  This is the
  stand-in for the general unknown-topology selection-sequence family
  ([3, 11]) in the comparison experiment E14.
"""

from __future__ import annotations

import math

from repro._util.logmath import lambda_of
from repro.core.broadcast_general import KnownDiameterBroadcast
from repro.core.distributions import CzumajRytterDistribution, UniformScaleDistribution

__all__ = [
    "KnownDiameterCR",
    "UniformSelectionBroadcast",
]


class KnownDiameterCR(KnownDiameterBroadcast):
    """Energy-bounded Czumaj–Rytter broadcast with known diameter.

    Identical round structure to Algorithm 3 but:

    * the public scales follow ``α′`` (no probability floor on large scales);
    * the active window is longer by a factor ``log(n/D)`` — the price of the
      missing floor, and the reason its per-node energy is ``Θ(log² n)``.
    """

    name = "czumaj-rytter-known-diameter"

    def __init__(
        self,
        diameter: int,
        *,
        source: int = 0,
        beta: float = 2.0,
        round_budget_constant: float = 24.0,
    ):
        super().__init__(
            diameter,
            source=source,
            beta=beta,
            round_budget_constant=round_budget_constant,
        )

    def _setup_broadcast(self) -> None:
        # α′ scales and a log(n/D)-longer window.
        self._distribution_override = CzumajRytterDistribution(self.n, self.diameter)
        self.window_factor = max(1.0, lambda_of(self.n, self.diameter))
        super()._setup_broadcast()


class UniformSelectionBroadcast(KnownDiameterBroadcast):
    """Selection-sequence broadcast with uniform scales (diameter unknown).

    The ``diameter`` argument is *not* given to the nodes — it is only used
    to size the safety-net round budget of the simulation; the distribution
    and the active window depend on ``n`` alone.
    """

    name = "uniform-selection-broadcast"

    def __init__(
        self,
        diameter: int,
        *,
        source: int = 0,
        beta: float = 2.0,
        round_budget_constant: float = 48.0,
    ):
        super().__init__(
            diameter,
            source=source,
            beta=beta,
            round_budget_constant=round_budget_constant,
        )

    def _setup_broadcast(self) -> None:
        self._distribution_override = UniformScaleDistribution(self.n)
        super()._setup_broadcast()
        # Safety-net horizon with the Θ(log n)-per-hop slack the
        # uniform-scale protocol pays.
        log_n = max(1.0, math.log2(self.n))
        self.round_budget = int(
            math.ceil(
                self.round_budget_constant * (self.diameter * log_n + log_n**2)
            )
        )
