"""The Theorem 4.2 time/energy tradeoff family.

Theorem 4.2: for any ``λ`` with ``log(n/D) ≤ λ ≤ log n``, running Algorithm 3
with the distribution ``α`` built for that larger ``λ`` finishes
broadcasting in ``O(D λ + log² n)`` rounds w.h.p. using an expected
``O(log² n / λ)`` transmissions per node.

The two endpoints of the family:

* ``λ = log(n/D)`` — Algorithm 3 itself: optimal time
  ``O(D log(n/D) + log² n)`` and ``O(log² n / log(n/D))`` energy;
* ``λ = log n`` — slowest / cheapest: ``O(D log n + log² n)`` time but only
  ``O(log n)`` transmissions per node.

E6 sweeps λ across the admissible range on a fixed network and plots the
measured (time, energy) frontier.
"""

from __future__ import annotations

import math

from repro._util.logmath import lambda_of
from repro._util.validation import check_positive
from repro.core.broadcast_general import KnownDiameterBroadcast
from repro.core.distributions import AlphaDistribution

__all__ = ["TradeoffBroadcast", "admissible_lambda_range"]


def admissible_lambda_range(n: int, diameter: int) -> tuple:
    """The Theorem 4.2 range ``[log(n/D), log n]`` for λ (floats, clamped)."""
    low = lambda_of(n, diameter)
    high = max(low, math.log2(max(2, n)))
    return (low, high)


class TradeoffBroadcast(KnownDiameterBroadcast):
    """Algorithm 3 run with a caller-chosen λ (Theorem 4.2).

    Parameters
    ----------
    diameter:
        Known diameter ``D``.
    lam:
        The tradeoff parameter λ; values outside
        ``[log(n/D), log n]`` are clamped at bind time (the theorem only
        covers that range).
    Other parameters are forwarded to
    :class:`~repro.core.broadcast_general.KnownDiameterBroadcast`.
    """

    name = "theorem42-tradeoff-broadcast"

    def __init__(
        self,
        diameter: int,
        lam: float,
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
        self.requested_lam = check_positive(lam, "lam")

    def _setup_broadcast(self) -> None:
        # Install the clamped λ's distribution before the parent wires up
        # the selection sequences and the window/horizon arithmetic.
        low, high = admissible_lambda_range(self.n, self.diameter)
        lam = float(min(max(self.requested_lam, low), high))
        self._distribution_override = AlphaDistribution(
            self.n, self.diameter, lam=lam
        )
        super()._setup_broadcast()
        self.lam = lam
        # The horizon covers the slower D*λ regime of the theorem.
        log_n = max(1.0, math.log2(self.n))
        self.round_budget = int(
            math.ceil(self.round_budget_constant * (self.diameter * lam + log_n**2))
        )

    def trial_metadata(self, trial: int) -> dict:
        meta = super().trial_metadata(trial)
        meta["lambda"] = self.lam
        meta["requested_lambda"] = self.requested_lam
        return meta
