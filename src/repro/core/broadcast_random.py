"""Algorithm 1 — energy-efficient broadcasting in random networks.

The paper's first contribution (Section 2, Theorem 2.1): on a directed
``G(n, p)`` with ``p > δ log n / n``, broadcasting completes in ``O(log n)``
rounds w.h.p. while **every node transmits at most once**, for an expected
total of ``O(log n / p)`` transmissions.

The protocol runs in three phases driven only by ``n`` and ``p`` (both known
to every node) and each node's own history:

Phase 1 (rounds ``1 .. T`` with ``T = ⌊log n / log d⌋``, ``d = n p``)
    Every *active* node transmits (probability 1) and becomes passive; a node
    becomes active the first time it receives the message.  The informed set
    grows by a factor ``Θ(d)`` per round (Lemma 2.3) and reaches ``Θ(d^T)``
    (Lemma 2.4).

Phase 2 (one round, only when ``p ≤ n^{-2/5}``)
    Every active node transmits with probability ``1/(d^T p)`` and becomes
    passive (whether or not it transmitted).  This boosts the informed set to
    ``Θ(n)`` (Lemma 2.5).

Phase 3 (``β log n`` rounds)
    Every active node transmits with probability ``1/d`` (or ``1/(d p)`` when
    ``p > n^{-2/5}``) and becomes passive *only after transmitting*.  Nodes
    informed during Phase 3 never become active — Lemma 2.6 shows the pool of
    Phase-2 activations suffices to inform everyone w.h.p.

Because a node retires the moment it transmits (and Phase-3 recruits never
transmit), the "at most one transmission per node" invariant holds by
construction; the tests assert it on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro._util.logmath import expected_degree, phase1_round_count
from repro._util.validation import check_positive, check_probability
from repro.radio.batch import BatchBroadcastProtocol
from repro.radio.collision import BatchCollisionOutcome

__all__ = [
    "EnergyEfficientBroadcast",
    "Algorithm1Schedule",
    "compute_algorithm1_schedule",
]

# Node states.
_UNINFORMED = 0
_ACTIVE = 1
_PASSIVE = 2


def _remap_flat_pool(ids: np.ndarray, keep: np.ndarray, n: int):
    """Row-select a sorted flat-id pool under the compaction remapping.

    Returns ``(alive, new_ids)``: ``alive`` masks the pool entries whose
    trial survives, ``new_ids`` are those entries re-addressed into the
    compacted trial space.  The old-row -> new-row map is monotone, so a
    sorted pool stays sorted.
    """
    rows = ids // n
    alive = keep[rows]
    new_row = np.cumsum(keep, dtype=np.int64) - 1
    old_rows = rows[alive]
    return alive, new_row[old_rows] * n + (ids[alive] - old_rows * n)


@dataclass(frozen=True)
class Algorithm1Schedule:
    """The phase schedule of Algorithm 1, derived from ``(n, p)`` alone.

    The protocol computes its round logic from this one object, which the
    experiments also read for the phase boundaries.
    """

    n: int
    p: float
    d: float
    T: int
    phase2_round: Optional[int]
    phase3_start: int
    phase3_rounds: int
    phase2_probability: float
    phase3_probability: float
    sparse_regime: bool

    def phase_of_round(self, round_index: int) -> str:
        """Which phase (``"phase1"``, ``"phase2"``, ``"phase3"``, ``"done"``)."""
        if round_index < self.T:
            return "phase1"
        if self.phase2_round is not None and round_index == self.phase2_round:
            return "phase2"
        if round_index < self.phase3_start + self.phase3_rounds:
            return "phase3"
        return "done"

    def metadata(self) -> Dict[str, object]:
        """The schedule facts recorded in every run's metadata."""
        return {
            "p": self.p,
            "d": self.d,
            "T": self.T,
            "phase2_round": self.phase2_round,
            "phase3_start": self.phase3_start,
            "phase3_rounds": self.phase3_rounds,
            "phase2_probability": self.phase2_probability,
            "phase3_probability": self.phase3_probability,
            "sparse_regime": self.sparse_regime,
        }


def compute_algorithm1_schedule(
    n: int,
    p: float,
    *,
    beta: float,
    phase2_threshold_exponent: float,
    phase1_overshoot_factor: float,
    dense_min_degree_factor: float,
    enable_phase2: bool,
) -> Algorithm1Schedule:
    """Derive Algorithm 1's phase boundaries and probabilities for ``(n, p)``.

    See :class:`EnergyEfficientBroadcast` for the meaning of the refinement
    parameters (``phase1_overshoot_factor``, ``dense_min_degree_factor``).
    """
    d = max(expected_degree(n, p), 1.0 + 1e-9)
    T = max(1, phase1_round_count(n, p))
    if phase1_overshoot_factor > 0 and T > 1 and d**T >= n / phase1_overshoot_factor:
        T -= 1
    log_n = max(1.0, math.log2(n))

    # The paper's gate is "dense iff p > n^{-2/5}"; additionally require the
    # dense branch's Phase-3 pool to give Omega(log n) active neighbours per
    # node (n p^2 >= factor * log n), which the asymptotic gate implies for
    # large n but not at the sizes we simulate.
    paper_dense = p > n ** (-phase2_threshold_exponent)
    dense_viable = (
        n * p**2 >= dense_min_degree_factor * log_n
        if dense_min_degree_factor > 0
        else True
    )
    sparse_regime = not (paper_dense and dense_viable)
    run_phase2 = enable_phase2 and sparse_regime

    if run_phase2:
        phase2_round: Optional[int] = T
        phase3_start = T + 1
        phase2_probability = min(1.0, 1.0 / ((d**T) * p))
    else:
        phase2_round = None
        phase3_start = T
        phase2_probability = 0.0

    if sparse_regime:
        phase3_probability = min(1.0, 1.0 / d)
    else:
        phase3_probability = min(1.0, 1.0 / (d * p))
    phase3_rounds = int(math.ceil(beta * log_n))

    return Algorithm1Schedule(
        n=n,
        p=p,
        d=d,
        T=T,
        phase2_round=phase2_round,
        phase3_start=phase3_start,
        phase3_rounds=phase3_rounds,
        phase2_probability=phase2_probability,
        phase3_probability=phase3_probability,
        sparse_regime=sparse_regime,
    )


class EnergyEfficientBroadcast(BatchBroadcastProtocol):
    """Algorithm 1 of the paper.

    Parameters
    ----------
    p:
        The edge probability of the underlying ``G(n, p)``; the paper's model
        assumes nodes know the network parameters ``n`` and ``p`` (they do
        not know the topology).
    source:
        The broadcast originator.
    beta:
        Phase-3 length multiplier: Phase 3 runs for ``ceil(beta * log2 n)``
        rounds.  The paper's proof uses ``128 log n / c`` rounds for a small
        constant ``c``; empirically ``beta = 8`` already gives > 0.99 success
        on the sizes we simulate, and the E12 ablation sweeps it.
    phase2_threshold_exponent:
        Phase 2 is executed when ``p <= n ** -phase2_threshold_exponent``;
        the paper uses ``2/5``.  Exposed for the E11 ablation.
    phase1_overshoot_factor:
        Finite-size refinement of the Phase-1 length.  The paper sets
        ``T = ⌊log n / log d⌋``; when ``log n / log d`` sits just above an
        integer, ``d^T`` is within a small factor of ``n``, Phase 1 already
        informs a constant fraction of all nodes, and the Phase-2 probability
        ``1/(d^T p) ≈ 1/d`` recruits too small an active pool for Phase 3
        (the paper's proof covers this corner only through its enormous
        constants ``c₁ = 16⁻⁴4⁻³`` etc.).  When ``d^T ≥ n / factor`` we
        therefore shorten Phase 1 by one round (never below one), which keeps
        both the O(log n) time and the ≤1-transmission invariant.  Set to 0
        to disable and use the paper's literal ``T``.
    dense_min_degree_factor:
        Finite-size refinement of the regime gate.  The paper's dense branch
        (skip Phase 2, Phase-3 probability ``1/(dp)``) relies on the Phase-3
        pool ``U_2`` of size ``≈ d`` giving every node ``≈ d·p = n p²``
        active neighbours, which must be ``Ω(log n)`` for the w.h.p.
        argument (Lemma 2.6, Case 2).  Asymptotically ``p > n^{-2/5}``
        implies ``n p² ≥ n^{1/5} ≫ log n``, but at laptop sizes it does not,
        so we additionally require ``n p² ≥ dense_min_degree_factor · log₂ n``
        before taking the dense branch.  Set to 0 to recover the paper's
        literal gate (the E11 ablation does).
    enable_phase2:
        Ablation switch (E11): when False, Phase 2 is skipped even in the
        sparse regime.

    ``R`` trials advance through the phases together: the phase of a round
    depends only on the round index (one :class:`Algorithm1Schedule`), so
    one vectorised update advances every trial.  The active pool is kept
    *sparse* — a sorted array of flat node ids (``trial * n + node``) plus
    per-trial counts — because after Phase 1 only a vanishing fraction of
    the ``R x n`` state is active: a Phase-3 round then costs
    O(active + transmissions), not O(R n).

    In exact mode the Phase-2/3 coin flips are drawn one trial at a time,
    ``rng.random(active_count)`` from that trial's generator, and land on
    the active nodes in ascending id order.
    """

    name = "algorithm1-energy-efficient-broadcast"

    def __init__(
        self,
        p: float,
        *,
        source: int = 0,
        beta: float = 8.0,
        phase2_threshold_exponent: float = 0.4,
        phase1_overshoot_factor: float = 2.0,
        dense_min_degree_factor: float = 2.0,
        enable_phase2: bool = True,
    ):
        super().__init__(source=source)
        self.p = check_probability(p, "p", allow_zero=False)
        self.beta = check_positive(beta, "beta")
        self.phase2_threshold_exponent = check_positive(
            phase2_threshold_exponent, "phase2_threshold_exponent"
        )
        if dense_min_degree_factor < 0:
            raise ValueError(
                f"dense_min_degree_factor must be >= 0, got {dense_min_degree_factor}"
            )
        if phase1_overshoot_factor < 0:
            raise ValueError(
                f"phase1_overshoot_factor must be >= 0, got {phase1_overshoot_factor}"
            )
        self.dense_min_degree_factor = float(dense_min_degree_factor)
        self.phase1_overshoot_factor = float(phase1_overshoot_factor)
        self.enable_phase2 = bool(enable_phase2)
        self.schedule: Optional[Algorithm1Schedule] = None
        self._active_flat: Optional[np.ndarray] = None
        self._active_count: Optional[np.ndarray] = None
        self._history_log: List[tuple] = []
        self._phase3_ids: Optional[np.ndarray] = None
        self._phase3_offsets: Optional[np.ndarray] = None
        self._phase3_first_round: int = 0

    def _setup_broadcast(self) -> None:
        trials, n = self.trials, self.n
        self.schedule = compute_algorithm1_schedule(
            n,
            self.p,
            beta=self.beta,
            phase2_threshold_exponent=self.phase2_threshold_exponent,
            phase1_overshoot_factor=self.phase1_overshoot_factor,
            dense_min_degree_factor=self.dense_min_degree_factor,
            enable_phase2=self.enable_phase2,
        )
        self._active_flat = (
            np.arange(trials, dtype=np.int64) * n + self.source
        )
        self._active_count = np.ones(trials, dtype=np.int64)
        # (running, active_count) snapshots per round; materialised into
        # per-trial histories on demand so the round loop stays array-only.
        self._history_log = []
        self._phase3_ids = None
        self._phase3_offsets = None

    # ------------------------------------------------------------------ #
    # Round logic on the sparse active pool
    # ------------------------------------------------------------------ #
    def transmit_flat(self, round_index: int, running: np.ndarray) -> np.ndarray:
        counts = self._active_count
        self._history_log.append((running, counts.copy()))
        phase = self.schedule.phase_of_round(round_index)
        if phase == "phase3" and not self.rng_source.exact_mode:
            if self._phase3_ids is None:
                self._presample_phase3(round_index)
            return self._phase3_bucket(round_index, running)
        active = self._active_flat
        if active.size:
            keep = running[active // self.n]
            gated = active if keep.all() else active[keep]
        else:
            gated = active
        if phase == "phase1":
            return gated
        if phase in ("phase2", "phase3") and gated.size:
            probability = (
                self.schedule.phase2_probability
                if phase == "phase2"
                else self.schedule.phase3_probability
            )
            # One rng.random(active_count) call per running trial; `gated` is
            # trial-major ascending, so uniforms land on active nodes in
            # ascending id order.
            draw_counts = np.where(running, counts, 0)
            draws = self.rng_source.uniforms_for_counts(draw_counts)
            return gated[draws < probability]
        return active[:0]

    def _presample_phase3(self, start_round: int) -> None:
        """Fast-mode Phase 3: pre-sample every node's transmission round.

        A Phase-3 node transmits with probability ``q`` each round until it
        does, then retires — so its (unique) transmission round is
        ``start + Geometric(q) - 1``, and the whole phase's schedule can be
        drawn in one vectorised call the moment the pool is fixed (recruits
        never join the pool).  The per-round loop then just slices the next
        bucket instead of drawing and compressing the active pool every
        round.  The process is distributed *identically* to the per-round
        coin flips; only the RNG stream differs, which is why the
        exact-equivalence mode keeps the per-round path.
        """
        pool = self._active_flat
        q = self.schedule.phase3_probability
        end_round = self.schedule.phase3_start + self.schedule.phase3_rounds
        tx_round = (
            start_round
            + self.rng_source.generator.geometric(q, size=pool.size)
            - 1
        )
        scheduled = tx_round < end_round
        order = np.argsort(tx_round[scheduled], kind="stable")
        self._phase3_ids = pool[scheduled][order]
        rounds_sorted = tx_round[scheduled][order]
        self._phase3_offsets = np.searchsorted(
            rounds_sorted, np.arange(start_round, end_round + 1)
        )
        self._phase3_first_round = start_round

    def _phase3_bucket(self, round_index: int, running: np.ndarray) -> np.ndarray:
        lo = self._phase3_offsets[round_index - self._phase3_first_round]
        hi = self._phase3_offsets[round_index - self._phase3_first_round + 1]
        bucket = self._phase3_ids[lo:hi]
        if bucket.size and not running.all():
            bucket = bucket[running[bucket // self.n]]
        return bucket

    def observe(
        self,
        round_index: int,
        tx_flat: np.ndarray,
        outcome: BatchCollisionOutcome,
        running: np.ndarray,
    ) -> None:
        phase = self.schedule.phase_of_round(round_index)
        newly_flat = self.mark_informed(outcome.receiver_flat, round_index)
        n, trials = self.n, self.trials

        if phase in ("phase1", "phase2"):
            # Every active node of a running trial retires (it either
            # transmitted, or — in Phase 2 — consumed its single chance);
            # nodes informed for the first time become active next round.
            # Receivers only exist in running trials, so the new pool is
            # exactly the newly informed set.
            self._active_flat = np.sort(newly_flat)
            self._active_count = np.bincount(
                self._active_flat // n, minlength=trials
            )
        elif phase == "phase3" and tx_flat.size:
            # Only nodes that actually transmitted retire; Phase-3 recruits
            # are informed but never become active (Algorithm 1, Phase 3).
            if self._phase3_ids is None:
                # Per-round path (exact mode): the transmitters are a sorted
                # subset of the (sorted, unique) active pool, so one
                # searchsorted with the *small* array as the needle locates
                # every retiree.
                active = self._active_flat
                keep = np.ones(active.size, dtype=bool)
                keep[np.searchsorted(active, tx_flat)] = False
                self._active_flat = active[keep]
            # Pre-sampled path: retirements are already encoded in the
            # schedule buckets; only the per-trial counts need updating.
            self._active_count = self._active_count - np.bincount(
                tx_flat // n, minlength=trials
            )

    def _compact_broadcast(self, keep: np.ndarray) -> None:
        n = self.n  # new (compacted) batch is already bound
        alive, new_ids = _remap_flat_pool(self._active_flat, keep, n)
        self._active_flat = new_ids
        self._active_count = self._active_count[keep].copy()
        # History snapshots predate the compaction, so they row-select with
        # the same keep mask (entries appended later are already compact).
        self._history_log = [
            (running[keep], counts[keep]) for running, counts in self._history_log
        ]
        if self._phase3_ids is not None:
            p3_alive, p3_ids = _remap_flat_pool(self._phase3_ids, keep, n)
            self._phase3_ids = p3_ids
            # Bucket offsets shift down by the number of removed entries
            # before them; removal preserves the by-round ordering.
            removed = np.concatenate(
                ([0], np.cumsum(~p3_alive, dtype=np.int64))
            )
            self._phase3_offsets = self._phase3_offsets - removed[
                self._phase3_offsets
            ]

    # ------------------------------------------------------------------ #
    # Engine hooks / introspection
    # ------------------------------------------------------------------ #
    def active_counts(self) -> np.ndarray:
        """Per-trial number of currently active nodes."""
        return self._active_count.copy()

    def active_history(self, trial: int) -> List[int]:
        """``|U_t|`` — the number of active nodes at the start of each round."""
        return [
            int(counts[trial])
            for running, counts in self._history_log
            if running[trial]
        ]

    def quiescent(self, round_index: int) -> np.ndarray:
        if round_index >= self.schedule.phase3_start + self.schedule.phase3_rounds:
            return np.ones(self.trials, dtype=bool)
        return self._active_count == 0

    def suggested_max_rounds(self) -> int:
        return self.schedule.phase3_start + self.schedule.phase3_rounds + 1

    def trial_metadata(self, trial: int) -> Dict[str, object]:
        meta = dict(self.schedule.metadata())
        meta["active_history"] = self.active_history(trial)
        return meta

    def __repr__(self) -> str:
        return (
            f"EnergyEfficientBroadcast(p={self.p}, source={self.source}, "
            f"beta={self.beta}, enable_phase2={self.enable_phase2})"
        )
