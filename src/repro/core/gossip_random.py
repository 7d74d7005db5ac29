"""Algorithm 2 — gossiping in random networks.

Theorem 3.2: on a directed ``G(n, p)`` with ``p > δ log n / n``, the
following protocol completes gossiping (every rumour reaches every node) in
``O(d log n)`` rounds w.h.p. while every node performs only ``O(log n)``
transmissions:

    for round r = 0 .. C · d · log n:
        every node transmits with probability 1/d
        every node joins its own rumour and any rumour it has received into
        the message it will transmit next

Unlike Algorithm 1, nodes never become passive — each round is an
independent Bernoulli(1/d) decision — so the per-node transmission count is
``Binomial(rounds, 1/d)`` with mean ``C log n``.

The paper fixes the constant ``C = 128`` for the proof; the simulator makes
it a parameter (default 8) because the engine stops as soon as gossip is
complete anyway, and E4 measures the actual completion round.

The dynamic variant sketched in the paper (time-stamping rumours and ageing
them out) is exercised by the ``dynamic_gossip`` example via
:mod:`repro.radio.dynamics`.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from repro._util.logmath import expected_degree
from repro._util.validation import check_positive, check_probability
from repro.radio.batch import BatchGossipProtocol

__all__ = ["RandomNetworkGossip"]


class RandomNetworkGossip(BatchGossipProtocol):
    """Algorithm 2 of the paper.

    Parameters
    ----------
    p:
        Edge probability of the underlying ``G(n, p)`` (known to all nodes);
        ``d = n p`` is the transmission probability denominator.
    rounds_constant:
        The constant ``C`` in the round budget ``C · d · log2 n``.

    Every node of every running trial flips the same Bernoulli(1/d) coin
    each round, so a round is one ``(k, n)`` uniform draw; in exact mode each
    running trial draws its ``rng.random(n)`` vector from its own generator.
    """

    name = "algorithm2-random-gossip"

    def __init__(self, p: float, *, rounds_constant: float = 8.0):
        super().__init__()
        self.p = check_probability(p, "p", allow_zero=False)
        self.rounds_constant = check_positive(rounds_constant, "rounds_constant")
        self.d: float = 0.0
        self.transmit_probability: float = 0.0
        self.round_budget: int = 0

    def _setup_gossip(self) -> None:
        n = self.n
        self.d = max(expected_degree(n, self.p), 1.0)
        self.transmit_probability = min(1.0, 1.0 / self.d)
        log_n = max(1.0, math.log2(n))
        self.round_budget = int(math.ceil(self.rounds_constant * self.d * log_n))

    def transmit_masks(self, round_index: int, running: np.ndarray) -> np.ndarray:
        trials, n = self.trials, self.n
        masks = np.zeros((trials, n), dtype=bool)
        if round_index >= self.round_budget:
            return masks
        rows = np.flatnonzero(running)
        if rows.size:
            draws = self.rng_source.uniform_rows(running, n)
            masks[rows] = draws < self.transmit_probability
        return masks

    def quiescent(self, round_index: int) -> np.ndarray:
        return np.full(self.trials, round_index >= self.round_budget, dtype=bool)

    def suggested_max_rounds(self) -> int:
        return self.round_budget

    def trial_metadata(self, trial: int) -> Dict[str, object]:
        return {
            "p": self.p,
            "d": self.d,
            "transmit_probability": self.transmit_probability,
            "round_budget": self.round_budget,
        }

    def __repr__(self) -> str:
        return (
            f"RandomNetworkGossip(p={self.p}, rounds_constant={self.rounds_constant})"
        )
