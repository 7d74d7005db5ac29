"""Batched Monte-Carlo simulation: ``R`` independent trials per round.

Every experiment in this repository is a Monte-Carlo sweep — the same
``(n, p, protocol)`` point repeated over dozens of seeds.  This module makes
the repetition axis an array dimension, so the Python round-loop overhead is
paid once per round for all trials:

* :class:`NetworkBatch` stacks ``R`` equally-sized networks into one
  block-diagonal CSR, so collision resolution for all trials is a single
  flattened gather plus one ``bincount`` over ``trial * n + listener`` ids
  (see :class:`~repro.radio.collision.BatchCollisionModel`).
* :class:`BatchProtocol` (and the broadcast/gossip bases) keep per-node state
  in whole-batch node-set structures (:mod:`repro.radio.nodesets`: dense
  boolean masks and tensors, dense quota and budget arrays) and advance
  every trial with one set of vectorised operations per round.
* :class:`BatchEngine` owns the one batched round loop, masking out trials
  that have individually completed (or gone quiescent) so a finished trial
  costs nothing while its siblings run on.  :meth:`BatchEngine.run` admits
  one prebuilt batch as a single wave; :meth:`BatchEngine.run_continuous`
  streams exact-mode trials through the same loop, compacting stopped rows
  and refilling them from a pending queue.

This is the one engine: every protocol in
``repro.experiments.protocols.PROTOCOL_FACTORIES`` is a :class:`BatchProtocol`,
the experiment runner's ``ExecutionPlan`` composes this engine with process
fan-out (each worker runs one :class:`NetworkBatch` shard of a sweep), and
the single-run API (:class:`~repro.radio.engine.SimulationEngine`,
:func:`~repro.radio.engine.run_protocol`) runs it with one exact-mode trial.

Randomness comes in two modes, selected by the :class:`BatchRandomSource`
the engine builds:

* **fast** (default): one shared generator serves all trials with single
  vectorised draws per round.  A trial's draws depend on the batch it runs
  in; its distribution does not.
* **exact**: one generator per trial, consumed trial by trial, so a
  trial's result is a function of its network and generator alone — the
  same whether it runs alone, in a batch, or in a continuous stream.  The
  golden corpus (``tests/golden/engine_traces.json``) pins these results.
"""

from __future__ import annotations

import abc
import time
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro import telemetry
from repro._util.rng import SeedLike, as_generator
from repro._util.validation import check_node_index, check_positive_int
from repro.radio.collision import (
    BatchCollisionModel,
    BatchCollisionOutcome,
    BatchStandardCollisionModel,
    CollisionModel,
    as_batch_collision_model,
)
from repro.radio.energy import BatchEnergyAccountant
from repro.radio.environment import Environment, build_environment
from repro.radio.network import RadioNetwork
from repro.radio.nodesets import KnowledgeState, NodeSetState
from repro.radio.trace import RoundRecord, RunResultTrace

__all__ = [
    "NetworkBatch",
    "BatchRandomSource",
    "BatchProtocol",
    "BatchBroadcastProtocol",
    "BatchGossipProtocol",
    "BatchEngine",
    "PendingTrial",
    "run_protocol_batch",
]


class NetworkBatch:
    """``R`` equally-sized radio networks stacked block-diagonally.

    Trial ``t``'s node ``v`` becomes flat node ``t * n + v``; no edge crosses
    a trial boundary, so any whole-round computation on the stacked CSR is
    exactly ``R`` independent per-trial computations.

    Parameters
    ----------
    networks:
        The per-trial topologies.  All must have the same number of nodes.
        Pass the same network object ``R`` times (or use :meth:`shared`) to
        run every trial on one shared topology.
    """

    __slots__ = (
        "networks",
        "trials",
        "n",
        "total_nodes",
        "out_indptr",
        "out_indices",
    )

    def __init__(self, networks: Sequence[RadioNetwork]):
        networks = list(networks)
        if not networks:
            raise ValueError("NetworkBatch needs at least one network")
        n = networks[0].n
        for net in networks[1:]:
            if net.n != n:
                raise ValueError(
                    f"all networks in a batch must have the same size; "
                    f"got {net.n} and {n}"
                )
        trials = len(networks)
        self.networks = networks
        self.trials = trials
        self.n = n
        self.total_nodes = trials * n

        if trials * n > np.iinfo(np.int32).max:
            raise ValueError(
                f"batch of {trials} x {n} nodes exceeds the int32 id space; "
                "split the repetitions into smaller batches"
            )
        first = networks[0]
        if trials > 1 and all(net is first for net in networks):
            # Shared-topology tiling: one broadcast add per array instead of
            # a Python loop over R identical blocks.  Produces arrays
            # bit-identical to the general path below.
            num_edges = first.num_edges
            indptr = np.empty(self.total_nodes + 1, dtype=np.int64)
            indptr[0] = 0
            edge_offsets = np.arange(trials, dtype=np.int64) * num_edges
            indptr[1:] = (
                first.out_indptr[1:][None, :] + edge_offsets[:, None]
            ).reshape(-1)
            indices = np.empty(trials * num_edges, dtype=np.int32)
            node_offsets = np.arange(trials, dtype=np.int64) * n
            np.add(
                first.out_indices[None, :],
                node_offsets[:, None],
                out=indices.reshape(trials, num_edges),
                casting="unsafe",
            )
            self.out_indptr = indptr
            self.out_indices = indices
            return
        total_edges = sum(net.num_edges for net in networks)
        indptr = np.empty(self.total_nodes + 1, dtype=np.int64)
        indptr[0] = 0
        # int32 flat ids halve the memory traffic of the per-round gathers.
        indices = np.empty(total_edges, dtype=np.int32)
        edge_offset = 0
        for t, net in enumerate(networks):
            ip = net.out_indptr
            indptr[t * n + 1 : (t + 1) * n + 1] = ip[1:] + edge_offset
            block = indices[edge_offset : edge_offset + net.num_edges]
            np.add(net.out_indices, np.int32(t * n), out=block, casting="unsafe")
            edge_offset += net.num_edges
        self.out_indptr = indptr
        self.out_indices = indices

    @classmethod
    def shared(cls, network: RadioNetwork, trials: int) -> "NetworkBatch":
        """Batch that runs every trial on the same shared topology."""
        trials = check_positive_int(trials, "trials")
        return cls([network] * trials)

    def __repr__(self) -> str:
        return f"NetworkBatch(trials={self.trials}, n={self.n})"


class BatchRandomSource:
    """Random draws for a batch of trials, in fast or exact mode.

    Fast mode serves every request from one shared generator with a single
    vectorised draw.  Exact mode holds one generator per trial and serves
    each trial's block with its own call (``rng.random(k)`` per trial,
    trials in ascending order), so a trial's draws do not depend on its
    batch.
    """

    def __init__(
        self,
        *,
        generator: Optional[np.random.Generator] = None,
        per_trial: Optional[Sequence[np.random.Generator]] = None,
    ):
        if (generator is None) == (per_trial is None):
            raise ValueError("provide exactly one of generator / per_trial")
        self._generator = generator
        self._per_trial = list(per_trial) if per_trial is not None else None

    @classmethod
    def fast(cls, rng: SeedLike = None) -> "BatchRandomSource":
        """Shared-generator mode (vectorised, not stream-equivalent)."""
        return cls(generator=as_generator(rng))

    @classmethod
    def exact(cls, rngs: Sequence[SeedLike]) -> "BatchRandomSource":
        """Per-trial-generator mode (batch-independent draws)."""
        return cls(per_trial=[as_generator(r) for r in rngs])

    @property
    def exact_mode(self) -> bool:
        """True when each trial owns its generator."""
        return self._per_trial is not None

    @property
    def generator(self) -> np.random.Generator:
        """The shared generator (fast mode only)."""
        if self._generator is None:
            raise RuntimeError("no shared generator in exact mode")
        return self._generator

    def generator_for_trial(self, trial: int) -> np.random.Generator:
        """Trial ``trial``'s own generator (exact mode only)."""
        if self._per_trial is None:
            raise RuntimeError("no per-trial generators in fast mode")
        return self._per_trial[trial]

    # ------------------------------------------------------------------ #
    # Draw helpers (uniforms in [0, 1))
    # ------------------------------------------------------------------ #
    def uniforms_for_counts(self, counts: np.ndarray) -> np.ndarray:
        """``counts[t]`` uniforms per trial, concatenated in trial order.

        Exact mode draws trial ``t``'s block as one ``random(counts[t])``
        call from trial ``t``'s generator, assigned in the caller's
        trial-major order.
        """
        counts = np.asarray(counts)
        if not self.exact_mode:
            return self._generator.random(int(counts.sum()))
        chunks = [
            self._per_trial[t].random(int(c))
            for t, c in enumerate(counts)
            if c
        ]
        return np.concatenate(chunks) if chunks else np.empty(0)

    def uniform_rows(self, rows: np.ndarray, n: int) -> np.ndarray:
        """A ``(k, n)`` uniform matrix for the ``k`` trials flagged in ``rows``."""
        rows = np.asarray(rows, dtype=bool)
        k = int(rows.sum())
        if not self.exact_mode:
            return self._generator.random((k, n))
        if k == 0:
            return np.empty((0, n))
        return np.stack(
            [self._per_trial[t].random(n) for t in np.flatnonzero(rows)]
        )

    def select_trials(self, keep: np.ndarray) -> "BatchRandomSource":
        """The source for the trials where ``keep`` is True (compaction).

        Exact mode keeps the surviving trials' generator *objects* — their
        stream positions travel with them, and per-trial streams are
        position-independent by construction, so neither the row a trial
        occupies nor who shares its batch can change its draws.  Fast mode
        returns ``self``: one shared stream serves any row count.
        """
        if not self.exact_mode:
            return self
        keep = np.asarray(keep, dtype=bool)
        return BatchRandomSource(
            per_trial=[g for g, k in zip(self._per_trial, keep) if k]
        )

    @property
    def trial_generators(self) -> List[np.random.Generator]:
        """The per-trial generator objects, in trial order (exact mode only)."""
        if self._per_trial is None:
            raise RuntimeError("no per-trial generators in fast mode")
        return self._per_trial

    def geometrics_for_counts(self, p: float, counts: np.ndarray) -> np.ndarray:
        """``counts[t]`` Geometric(p) draws per trial, concatenated in trial order.

        Exact mode draws trial ``t``'s block as one ``geometric(p, counts[t])``
        call from trial ``t``'s generator (Decay's phase-boundary quotas).
        """
        counts = np.asarray(counts)
        if not self.exact_mode:
            return self._generator.geometric(p, size=int(counts.sum()))
        chunks = [
            self._per_trial[t].geometric(p, size=int(c))
            for t, c in enumerate(counts)
            if c
        ]
        return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


class _RowSliceOutcome(BatchCollisionOutcome):
    """One cohort's row-slice of a union collision outcome.

    The continuous engine resolves all cohorts in one union gather, then
    hands each cohort its own rows re-addressed into the cohort's trial
    space.  Senders the union resolution did not materialise (unless a
    protocol declared :attr:`BatchProtocol.needs_senders` or an environment
    is active) fail loudly instead of lazily fabricating the empty values
    the base class would.  Hear counts are sliced from the union's on first
    access, so every cohort of a round shares one dense pass.
    """

    __slots__ = ("_union", "_rows")

    tracks_senders = False

    _UNAVAILABLE = (
        "{field} is not available on this row-sliced outcome; the "
        "continuous engine only materialises senders for cohorts whose "
        "protocol declares needs_senders (or under an active environment)"
    )

    @property
    def sender_flat(self) -> np.ndarray:
        raise RuntimeError(self._UNAVAILABLE.format(field="sender_flat"))

    @property
    def hear_counts(self) -> np.ndarray:
        if self._hear_dense is None:
            self._hear_dense = self._union.hear_counts[self._rows]
        return self._hear_dense


class _RowSliceOutcomeWithSenders(_RowSliceOutcome):
    """Row-sliced outcome whose senders were materialised from the union."""

    __slots__ = ()

    tracks_senders = True

    @property
    def sender_flat(self) -> np.ndarray:
        if self._sender_flat is None:
            raise RuntimeError(self._UNAVAILABLE.format(field="sender_flat"))
        return self._sender_flat

    @sender_flat.setter
    def sender_flat(self, value: np.ndarray) -> None:
        # Environments reshape the delivery set in place (receiver-side
        # loss); the base-class setter is shadowed by the property above.
        self._sender_flat = value


def _slice_outcome_rows(
    outcome: BatchCollisionOutcome,
    row_lo: int,
    row_hi: int,
    *,
    with_senders: bool,
) -> BatchCollisionOutcome:
    """Slice a union outcome down to trials ``[row_lo, row_hi)``.

    ``receiver_flat`` is trial-major sorted, so the cohort's block is found
    with two binary searches; senders are aligned index-for-index with the
    receivers, so the same slice applies.  The result's ids live in the
    cohort's own trial space (``trial - row_lo``).
    """
    n = outcome.n
    offset = np.int64(row_lo) * n
    lo, hi = np.searchsorted(
        outcome.receiver_flat, [offset, np.int64(row_hi) * n]
    )
    receiver = outcome.receiver_flat[lo:hi] - offset
    sender = None
    cls = _RowSliceOutcome
    if with_senders and outcome.tracks_senders:
        cls = _RowSliceOutcomeWithSenders
        sender = outcome.sender_flat[lo:hi] - offset
    sliced = cls(
        receiver_flat=receiver,
        trials=row_hi - row_lo,
        n=n,
        sender_flat=sender,
        detects_collisions=outcome.detects_collisions,
    )
    sliced._union = outcome
    sliced._rows = slice(row_lo, row_hi)
    return sliced


class BatchProtocol(abc.ABC):
    """Base class for oblivious radio protocols: ``R`` trials on stacked state.

    A *protocol* (what the paper calls an algorithm) is a per-node rule that
    decides, in every synchronous round, whether the node transmits, based
    only on global constants every node knows (``n``, optionally ``D``, the
    paper's constants), the node's own history, and — for selection-sequence
    algorithms — shared randomness independent of the topology.  Every hook
    operates on whole-batch data and a ``running`` mask of trials still
    being advanced::

        protocol.bind(batch, rng_source)
        for r in range(max_rounds):
            tx_flat = protocol.transmit_flat(r, running)     # sorted flat ids
            outcome = collision_model.resolve(batch, tx_flat, rng_source)
            protocol.observe(r, tx_flat, outcome, running)
            ... engine updates `running` from completed()/quiescent() ...

    Transmitters travel as sorted *flat* node ids (``trial * n + node``) so a
    round's cost scales with the number of transmitters, not with ``R * n``;
    protocols whose decision rule is naturally dense implement
    :meth:`transmit_masks` instead and inherit the flattening.

    Implementations must not consume randomness for trials outside
    ``running`` (the rng helpers make this natural), so a trial's stream is
    untouched after it stops — a requirement of exact mode.
    """

    #: Short machine-readable name used in experiment tables.
    name: str = "protocol"

    #: Whether :meth:`observe` consumes ``outcome.sender_flat``.  The
    #: continuous engine only materialises (and row-slices) sender
    #: identities from its union outcomes for cohorts that need them.
    needs_senders: bool = False

    def __init__(self) -> None:
        self._batch: Optional[NetworkBatch] = None
        self._rng_source: Optional[BatchRandomSource] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def bind(self, batch: NetworkBatch, rng_source: BatchRandomSource) -> None:
        """Attach to a network batch and reset all per-run state."""
        self._batch = batch
        self._rng_source = rng_source
        self._setup()

    def _setup(self) -> None:
        """Initialise per-run state (called from :meth:`bind`). Override."""

    def compact(
        self,
        keep: np.ndarray,
        batch: NetworkBatch,
        rng_source: BatchRandomSource,
    ) -> None:
        """Shrink per-trial state to the trials where ``keep`` is True.

        The continuous engine compacts a live batch by rebinding the
        protocol to the row-selected ``batch`` / ``rng_source`` and asking
        every per-trial state holder to repack itself.  Surviving trials
        keep their relative order (trial ``t`` lands in row
        ``keep[:t].sum()``) — the same remapping the engine applies to the
        stacked CSR, the accountant and the environment.  Subclasses with
        per-trial state beyond the base classes' override
        :meth:`_compact_state` (or the broadcast/gossip hooks).
        """
        self._batch = batch
        self._rng_source = rng_source
        self._compact_state(np.asarray(keep, dtype=bool))

    def _compact_state(self, keep: np.ndarray) -> None:
        """Subclass hook: row-select any additional per-trial state."""

    def transmit_flat(self, round_index: int, running: np.ndarray) -> np.ndarray:
        """Sorted flat ids of this round's transmitters (running trials only).

        The default flattens :meth:`transmit_masks`; sparse protocols
        override this directly and never materialise an ``(R, n)`` mask.
        """
        masks = np.asarray(self.transmit_masks(round_index, running), dtype=bool)
        if masks.shape != (self.trials, self.n):
            raise ValueError(
                f"transmit_masks must have shape ({self.trials}, {self.n}), "
                f"got {masks.shape}"
            )
        masks = masks & running[:, None]
        return np.flatnonzero(masks.reshape(-1))

    def transmit_masks(self, round_index: int, running: np.ndarray) -> np.ndarray:
        """Boolean ``(R, n)`` transmit matrix (dense-protocol hook)."""
        raise NotImplementedError(
            f"{type(self).__name__} must override transmit_flat or transmit_masks"
        )

    def observe(
        self,
        round_index: int,
        tx_flat: np.ndarray,
        outcome: BatchCollisionOutcome,
        running: np.ndarray,
    ) -> None:
        """Update per-trial state from the resolved round (override as needed)."""

    def listener_interest(self) -> Optional[np.ndarray]:
        """Flat bool vector of nodes whose deliveries the protocol still uses.

        When a protocol ignores deliveries to some nodes (a broadcast ignores
        deliveries to already-informed nodes), returning that mask lets the
        engine drop uninteresting deliveries inside collision resolution —
        late rounds then cost O(new information), not O(deliveries).  The
        trimmed outcome may list the kept deliveries in another order, so
        :meth:`observe` must not depend on the order of
        ``outcome.receiver_flat`` nor read its counts.  Consulted with
        ``record_rounds`` off and no environment, in fast mode and — unless
        the collision model draws per delivery — in exact mode.  ``None``
        keeps every delivery.
        """
        return None

    @abc.abstractmethod
    def completed(self) -> np.ndarray:
        """Per-trial bool vector: objective reached."""

    def quiescent(self, round_index: int) -> np.ndarray:
        """Per-trial bool vector: no node will ever transmit again.

        Radio protocols have no termination detection: a node keeps
        following its schedule after the objective is reached.  Energy
        experiments therefore run to *quiescence*; protocols with bounded
        schedules override this to report when theirs is exhausted.  The
        default is quiescent only when complete (protocols without a
        stopping rule are cut off at completion).
        """
        return self.completed()

    def suggested_max_rounds(self) -> int:
        """Horizon after which the engine gives up (same for all trials)."""
        return 4 * self.n * max(1, int(np.log2(max(2, self.n))))

    def informed_counts(self) -> Optional[np.ndarray]:
        """Per-trial progress metric (``None`` when not applicable)."""
        return None

    def trial_metadata(self, trial: int) -> dict:
        """Per-trial metadata carried onto the trial's result trace."""
        return {}

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def batch(self) -> NetworkBatch:
        """The bound network batch."""
        if self._batch is None:
            raise RuntimeError(f"{type(self).__name__} is not bound yet")
        return self._batch

    @property
    def rng_source(self) -> BatchRandomSource:
        """The batch random source."""
        if self._rng_source is None:
            raise RuntimeError(f"{type(self).__name__} is not bound yet")
        return self._rng_source

    @property
    def trials(self) -> int:
        """Number of trials in the bound batch."""
        return self.batch.trials

    @property
    def n(self) -> int:
        """Number of nodes per trial."""
        return self.batch.n

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class BatchBroadcastProtocol(BatchProtocol):
    """Broadcasting: one source per trial informs every node.

    The informed set lives in a :class:`~repro.radio.nodesets.NodeSetState`
    next to the ``(R, n)`` informed-round array (trace metadata); a trial
    is complete when every node is informed.
    """

    name = "broadcast"

    def __init__(self, source: int = 0):
        super().__init__()
        self.source = int(source)
        self._members: Optional[NodeSetState] = None
        self._informed_round: Optional[np.ndarray] = None

    def _setup(self) -> None:
        trials, n = self.trials, self.n
        check_node_index(self.source, n, "source")
        self._members = NodeSetState(trials, n)
        self._members.add_flat(
            np.arange(trials, dtype=np.int64) * n + self.source
        )
        self._informed_round = np.full((trials, n), -1, dtype=np.int64)
        self._informed_round[:, self.source] = 0
        self._setup_broadcast()

    def _setup_broadcast(self) -> None:
        """Subclass hook for additional per-run state."""

    def _compact_state(self, keep: np.ndarray) -> None:
        self._members.select_rows(keep)
        self._informed_round = np.ascontiguousarray(self._informed_round[keep])
        self._compact_broadcast(keep)

    def _compact_broadcast(self, keep: np.ndarray) -> None:
        """Subclass hook: row-select additional per-trial broadcast state."""

    @property
    def informed(self) -> np.ndarray:
        """Boolean ``(R, n)`` informed matrix (read-only — do not mutate)."""
        if self._members is None:
            raise RuntimeError("protocol not bound")
        return self._members.mask()

    @property
    def informed_round(self) -> np.ndarray:
        """``(R, n)`` round in which each node was informed (-1 if never)."""
        if self._informed_round is None:
            raise RuntimeError("protocol not bound")
        return self._informed_round

    def informed_counts(self) -> np.ndarray:
        """Per-trial number of informed nodes."""
        return self._members.counts().copy()

    def mark_informed(self, flat_nodes: np.ndarray, round_index: int) -> np.ndarray:
        """Mark flat node ids informed; returns the newly-informed subset.

        The ids are unique (one round's receivers are), as
        :meth:`~repro.radio.nodesets.NodeSetState.add_flat` requires.
        """
        newly = self._members.add_flat(flat_nodes)
        if newly.size:
            self._informed_round.reshape(-1)[newly] = round_index + 1
        return newly

    def listener_interest(self) -> np.ndarray:
        """Deliveries to already-informed nodes carry no new information."""
        return self._members.complement_flat()

    def observe(
        self,
        round_index: int,
        tx_flat: np.ndarray,
        outcome: BatchCollisionOutcome,
        running: np.ndarray,
    ) -> None:
        self.mark_informed(outcome.receiver_flat, round_index)

    def completed(self) -> np.ndarray:
        return self._members.counts() == self.n

    def __repr__(self) -> str:
        return f"{type(self).__name__}(source={self.source})"


class BatchGossipProtocol(BatchProtocol):
    """Gossiping: every node's rumour must reach every node.

    The knowledge lives in a :class:`~repro.radio.nodesets.KnowledgeState`,
    a bit-packed ``(R, n, n)`` relation with ``K[t, v, u]`` true iff node
    ``v`` knows ``u``'s rumour in trial ``t``.  As in the paper, a
    transmission by ``v`` carries every rumour ``v`` knows at the start of
    the round: sender rows are gathered before the merge, so merges always
    see round-start knowledge.
    """

    name = "gossip"
    needs_senders = True

    def __init__(self) -> None:
        super().__init__()
        self._knowledge_state: Optional[KnowledgeState] = None

    def _setup(self) -> None:
        self._knowledge_state = KnowledgeState(self.trials, self.n)
        self._setup_gossip()

    def _setup_gossip(self) -> None:
        """Subclass hook for additional per-run state."""

    def _compact_state(self, keep: np.ndarray) -> None:
        self._knowledge_state.select_rows(keep)
        self._compact_gossip(keep)

    def _compact_gossip(self, keep: np.ndarray) -> None:
        """Subclass hook: row-select additional per-trial gossip state."""

    @property
    def knowledge_state(self) -> KnowledgeState:
        """The knowledge state object."""
        if self._knowledge_state is None:
            raise RuntimeError("protocol not bound")
        return self._knowledge_state

    @property
    def knowledge(self) -> np.ndarray:
        """The ``(R, n, n)`` bool relation (a copy)."""
        return self.knowledge_state.as_dense()

    def knows_rumour(self, rumour: int) -> np.ndarray:
        """``(R, n)`` bool: which nodes currently know ``rumour``."""
        return self.knowledge_state.column(rumour)

    def rumours_known(self) -> np.ndarray:
        """``(R, n)`` per-node count of known rumours."""
        return self.knowledge_state.per_node_counts()

    def merge_deliveries(self, outcome: BatchCollisionOutcome) -> None:
        """Join every delivered rumour set into its receiver's (all trials)."""
        if outcome.receiver_flat.size == 0:
            return
        self.knowledge_state.merge_flat(outcome.sender_flat, outcome.receiver_flat)

    def observe(
        self,
        round_index: int,
        tx_flat: np.ndarray,
        outcome: BatchCollisionOutcome,
        running: np.ndarray,
    ) -> None:
        self.merge_deliveries(outcome)

    def informed_counts(self) -> np.ndarray:
        """Per-trial minimum rumour count (the progress metric)."""
        return self.knowledge_state.min_counts()

    def completed(self) -> np.ndarray:
        return self.knowledge_state.complete()


class PendingTrial:
    """One unit of admissible work for :meth:`BatchEngine.run_continuous`.

    Parameters
    ----------
    network:
        The trial's :class:`RadioNetwork`.  Trials admitted in the same wave
        that share one network *object* keep the shared-topology CSR tiling.
    rng:
        The trial's exact-mode seed/generator.  Required by
        :meth:`BatchEngine.run_continuous`:
        its rows move between waves, which only per-trial streams survive
        unchanged.
    tag:
        Opaque identifier handed to ``result_sink`` with the trial's trace
        (defaults to the admission index).
    """

    __slots__ = ("network", "rng", "tag")

    def __init__(self, network: RadioNetwork, rng: SeedLike = None, tag=None):
        self.network = network
        self.rng = rng
        self.tag = tag


class _Cohort:
    """One admission wave of the round loop.

    Protocols key *all* behaviour on a scalar round index (phase schedules,
    ``O(log n)`` horizons), so trials admitted at global round ``g`` must see
    local round ``0`` while older trials see ``g - start_round``.  Each wave
    therefore keeps its own protocol instance, stacked batch, RNG source,
    accountant and environment; only collision resolution is unioned across
    cohorts per global round.
    """

    __slots__ = (
        "protocol",
        "batch",
        "rng_source",
        "accountant",
        "environment",
        "start_round",
        "horizon",
        "tags",
        "orders",
        "completed",
        "completion_round",
        "rounds_executed",
        "running",
        "row_offset",
        "last_tx",
        "pending_retired",
        "round_log",
    )


def _round_records(round_log: List[dict], trial: int) -> List[RoundRecord]:
    """Trial ``trial``'s per-round records from a cohort's round log."""
    rounds: List[RoundRecord] = []
    for entry in round_log:
        if not entry["running"][trial]:
            continue
        before = entry["informed_before"]
        after = entry["informed_after"]
        deliveries = int(entry["deliveries"][trial])
        # Trials run contiguously from round 0 until they stop, so the
        # per-trial record index equals the cohort's round index.
        rounds.append(
            RoundRecord(
                round_index=len(rounds),
                transmitters=int(entry["transmitters"][trial]),
                deliveries=deliveries,
                newly_informed=(
                    int(after[trial] - before[trial])
                    if after is not None and before is not None
                    else deliveries
                ),
                informed_after=int(after[trial]) if after is not None else -1,
            )
        )
    return rounds


class BatchEngine:
    """Runs batched protocols over stacked trials with one loop of vectorised rounds.

    The round loop: each round asks the protocol for its transmitters,
    resolves collisions (vectorised CSR gather + ``bincount``), feeds the
    outcome back to the protocol and accounts energy.  Per-trial completion
    masking stops each trial on its own: a trial stops when it completes
    (or, under ``run_to_quiescence``, when it goes quiescent), and a
    stopped trial neither transmits nor consumes randomness while its
    siblings continue.  The round horizon is a safety net set above the
    bound an experiment measures.

    :meth:`run` executes one prebuilt batch; :meth:`run_continuous` streams
    trials through the same loop in refilled waves.

    Parameters
    ----------
    collision_model:
        A :class:`~repro.radio.collision.BatchCollisionModel`, or a
        one-network :class:`~repro.radio.collision.CollisionModel` (converted via
        :func:`~repro.radio.collision.as_batch_collision_model`).  Defaults
        to the batched standard model.
    record_rounds:
        Keep a :class:`~repro.radio.trace.RoundRecord` per round and trial
        (the phase-growth and lower-bound experiments need it).
    keep_arrays:
        Keep per-node arrays (transmission counts, informed rounds) on each
        result.
    run_to_quiescence:
        Run each trial until its protocol goes quiescent instead of
        stopping at completion (energy accounting of bounded schedules).
    retire_dead:
        Retire a trial the round it goes *dead* — quiescent (no node will
        ever transmit again) without completing, or environment-doomed
        (crashed forever with no recovery scheduled) — instead of spinning
        it to ``max_rounds``.  A dead trial's outcome can never change, so
        this only shortens ``rounds_executed`` for trials that would have
        burned the round cap (disconnected graphs under sub-threshold
        ``p``).  On by default.
    environment:
        Optional faulty-world layer (an
        :class:`~repro.radio.environment.Environment` or a spec dict) that
        perturbs each round around collision resolution for every trial:
        crashed/asleep radios are gated before energy accounting,
        transmitter-side loss is applied after it (charged but lost),
        deliveries are filtered after resolution.
        An active environment disables interest trimming (it must see the
        full delivery set); a null environment costs nothing.
    """

    def __init__(
        self,
        collision_model: Union[BatchCollisionModel, CollisionModel, None] = None,
        *,
        record_rounds: bool = False,
        keep_arrays: bool = False,
        run_to_quiescence: bool = False,
        retire_dead: bool = True,
        environment=None,
    ):
        if collision_model is None:
            self.collision_model: BatchCollisionModel = BatchStandardCollisionModel()
        else:
            self.collision_model = as_batch_collision_model(collision_model)
        if environment is not None and not isinstance(environment, Environment):
            if not isinstance(environment, Mapping):
                raise TypeError(
                    "environment must be an Environment or a spec dict, "
                    f"got {type(environment).__name__}"
                )
            environment = build_environment(environment)
        self.environment = environment
        self.record_rounds = bool(record_rounds)
        self.keep_arrays = bool(keep_arrays)
        self.run_to_quiescence = bool(run_to_quiescence)
        self.retire_dead = bool(retire_dead)

    def run(
        self,
        networks: Union[NetworkBatch, RadioNetwork, Sequence[RadioNetwork]],
        protocol: BatchProtocol,
        *,
        rng: SeedLike = None,
        rngs: Optional[Sequence[SeedLike]] = None,
        trials: Optional[int] = None,
        max_rounds: Optional[int] = None,
        result_sink=None,
    ) -> List[RunResultTrace]:
        """Run all trials to their individual completion; one trace per trial.

        The batch is one admission wave of the loop behind
        :meth:`run_continuous`, adopted as built; nothing refills it.

        Parameters
        ----------
        networks:
            A :class:`NetworkBatch`, a sequence of equally-sized networks
            (one per trial), or a single network together with ``trials``
            (every trial then shares that topology).
        rng:
            Fast-mode seed/generator: one shared stream serves all trials
            with vectorised draws.  Ignored when ``rngs`` is given.
        rngs:
            Exact mode: one seed/generator per trial; each trial's result
            then depends only on its network and generator.
        max_rounds:
            Per-trial horizon (defaults to the protocol's suggestion).
        result_sink:
            Optional ``(trial_index, trace) -> None`` callback.  When given,
            each trial's trace is handed to it as results are assembled and
            the method returns an empty list — a streaming consumer (the
            sweep aggregation layer) then never holds ``R`` trace objects
            at once.
        """
        batch = self._coerce_batch(networks, trials)
        if rngs is not None:
            if len(rngs) != batch.trials:
                raise ValueError(
                    f"rngs must have one entry per trial "
                    f"({batch.trials}), got {len(rngs)}"
                )
            rng_source = BatchRandomSource.exact(rngs)
        else:
            rng_source = BatchRandomSource.fast(rng)
        return self._run_waves(
            (batch, rng_source, protocol),
            (),
            None,
            capacity=batch.trials,
            watermark=1.0,
            max_rounds=max_rounds,
            result_sink=result_sink,
        )

    def run_continuous(
        self,
        pending,
        protocol_factory,
        *,
        capacity: int,
        watermark: float = 0.75,
        max_rounds: Optional[int] = None,
        rng: SeedLike = None,
        result_sink=None,
    ) -> List[RunResultTrace]:
        """Run a stream of exact-mode trials at near-constant occupancy.

        :meth:`run` pays for every trial until the *slowest* trial in its
        batch finishes.  This method instead retires each trial the round
        it stops, **compacts** the live batch down to surviving rows when
        occupancy drops below ``watermark * capacity`` (or a quarter of the
        rows have died), and **refills** the freed rows from ``pending`` —
        the continuous-batching schedule of inference serving, applied to
        Monte-Carlo trials.

        Trials admitted at global round ``g`` see their protocol's round
        ``0`` at ``g``: each admission wave runs as its own cohort.  Every
        :class:`PendingTrial` carries its own ``rng``, so each trial's
        results are bit-identical to :meth:`run` — per-trial streams are
        position-independent by construction.

        Parameters
        ----------
        pending:
            Iterable of :class:`PendingTrial` (consumed lazily — admission
            pulls only what fits).
        protocol_factory:
            Zero-argument callable producing a fresh protocol per cohort.
        capacity:
            Target row count (the analogue of ``trials`` in :meth:`run`).
        watermark:
            Refill trigger, as a fraction of ``capacity`` (in ``(0, 1]``).
        rng:
            Must be ``None``: a shared fast-mode stream is sized by row
            count, so it cannot follow rows between waves.  Fast mode runs
            one wave through :meth:`run`.
        result_sink:
            Optional ``(tag, trace) -> None`` streaming consumer; the tag is
            the trial's :attr:`PendingTrial.tag` (admission index when
            unset).  With a sink the method returns an empty list.
        """
        if self.record_rounds:
            raise ValueError(
                "record_rounds is incompatible with run_continuous: cohorts "
                "start at different global rounds, so there is no single "
                "per-round log; use run() for instrumented runs"
            )
        if rng is not None:
            raise ValueError(
                "run_continuous runs exact-mode trials only (each "
                "PendingTrial carries its rng); fast mode runs through run()"
            )
        capacity = check_positive_int(capacity, "capacity")
        if not 0.0 < watermark <= 1.0:
            raise ValueError(f"watermark must be in (0, 1], got {watermark}")
        return self._run_waves(
            None,
            pending,
            protocol_factory,
            capacity=capacity,
            watermark=watermark,
            max_rounds=max_rounds,
            result_sink=result_sink,
        )

    # ------------------------------------------------------------------ #
    # The round loop
    # ------------------------------------------------------------------ #
    def _run_waves(
        self,
        first,
        pending,
        protocol_factory,
        *,
        capacity: int,
        watermark: float,
        max_rounds: Optional[int],
        result_sink,
    ) -> List[RunResultTrace]:
        """The one round loop behind :meth:`run` and :meth:`run_continuous`.

        ``first`` is a prebuilt ``(batch, rng_source, protocol)`` wave,
        admitted as is at round 0; otherwise the first wave is stacked from
        ``pending``.  Later waves are stacked from ``pending`` as rows free
        up.  Each trial's trace is built once, when its rows are about to
        move or its cohort leaves the loop.

        Rows move — compaction of stopped trials, refill from ``pending`` —
        only in exact mode without ``record_rounds``.  The rule is derived,
        not configured: exact-mode streams belong to one trial each and do
        not depend on its row, whereas several protocols size their
        fast-mode draws by row count and the per-round log is kept by row.
        """
        if max_rounds is not None:
            max_rounds = check_positive_int(max_rounds, "max_rounds")

        queue: List[PendingTrial] = []
        source = iter(pending)
        exhausted = False

        def _has_more() -> bool:
            nonlocal exhausted
            if queue:
                return True
            if exhausted:
                return False
            try:
                queue.append(next(source))
            except StopIteration:
                exhausted = True
                return False
            return True

        def _pull(limit: int) -> List[PendingTrial]:
            nonlocal exhausted
            items: List[PendingTrial] = []
            while len(items) < limit:
                if queue:
                    items.append(queue.pop(0))
                    continue
                if exhausted:
                    break
                try:
                    items.append(next(source))
                except StopIteration:
                    exhausted = True
                    break
            return items

        if first is not None:
            exact_mode = first[1].exact_mode
            n = first[0].n
        elif _has_more():
            exact_mode = True
            n = queue[0].network.n
        else:
            return []
        environment = self.environment
        if environment is not None and environment.is_null:
            environment = None
        # Trimming drops, inside collision resolution, the deliveries the
        # protocol says it ignores.  The observers that declare an interest
        # use the delivered set only as an index set (a set update, a sort,
        # an index assignment, an order-free frontier admit), so a trimmed
        # outcome changes nothing they do.  It is off when the per-round log
        # records delivery counts, when an environment may act on every
        # delivery, and in exact mode when the model draws per delivered
        # edge: a shorter delivery list would shift its per-trial streams.
        use_interest = (
            not self.record_rounds
            and environment is None
            and not (exact_mode and self.collision_model.draws_per_delivery)
        )
        movable = exact_mode and not self.record_rounds

        cohorts: List[_Cohort] = []
        union_batch: Optional[NetworkBatch] = None
        union_rng: Optional[BatchRandomSource] = None
        union_stale = True
        results: Dict[int, RunResultTrace] = {}
        admitted = 0
        stats = {
            "retired": 0,
            "retired_dead": 0,
            "compactions": 0,
            "refills": 0,
            "trial_rounds": 0,
        }
        retire = False  # set from the admitted protocol's class
        needs_senders = False
        protocol_name = None

        # Telemetry is hoisted once per call: when disabled, the loop pays
        # a few `if tel:` branch checks per round and nothing else.
        tel = telemetry.enabled()
        if tel:
            clock = time.perf_counter
            run_start = clock()
            # Round phases are summed across all rounds rather than one span
            # per round — at thousands of rounds per run, per-round records
            # would dwarf the simulation itself.
            phase_seconds = {"transmit": 0.0, "resolve": 0.0, "observe": 0.0}

        def _note_retired(c: _Cohort, idx: np.ndarray, dead: int = 0) -> None:
            # A retired trial's state is frozen (it neither transmits nor
            # draws randomness again), so building its result trace can wait
            # until its rows are about to move — _flush_retired runs before
            # compaction and at cohort drop, and therefore before the loop
            # returns.  Retiring trials one round at a time would otherwise
            # pay the per-call cost of the energy/percentile pass per round.
            c.pending_retired.extend(int(t) for t in idx)
            stats["retired"] += len(idx)
            stats["retired_dead"] += dead

        def _flush_retired(c: _Cohort) -> None:
            if not c.pending_retired:
                return
            idx = np.sort(np.asarray(c.pending_retired, dtype=np.int64))
            c.pending_retired = []
            _materialize_trials(c, idx)

        def _materialize_trials(c: _Cohort, idx: np.ndarray) -> None:
            informed = c.protocol.informed_counts()
            informed_rounds = (
                c.protocol.informed_round
                if self.keep_arrays
                and isinstance(c.protocol, BatchBroadcastProtocol)
                else None
            )
            energies = c.accountant.reports_for(idx)
            for j, t in enumerate(idx):
                t = int(t)
                if not c.completed[t]:
                    c.completion_round[t] = c.rounds_executed[t]
                result = RunResultTrace(
                    protocol_name=c.protocol.name,
                    network_name=c.batch.networks[t].name,
                    n=n,
                    completed=bool(c.completed[t]),
                    completion_round=int(c.completion_round[t]),
                    rounds_executed=int(c.rounds_executed[t]),
                    energy=energies[j],
                    informed_count=(
                        int(informed[t]) if informed is not None else None
                    ),
                    rounds=_round_records(c.round_log, t),
                    metadata=dict(c.protocol.trial_metadata(t)),
                )
                if self.keep_arrays:
                    result.per_node_transmissions = c.accountant.per_node(t)
                if informed_rounds is not None:
                    result.informed_round = informed_rounds[t].copy()
                if c.environment is not None:
                    result.metadata["environment"] = c.environment.trial_report(t)
                if result_sink is not None:
                    result_sink(c.tags[t], result)
                else:
                    results[c.orders[t]] = result
                stats["trial_rounds"] += int(c.rounds_executed[t])

        def _admit(
            batch: NetworkBatch,
            rng_source: BatchRandomSource,
            protocol: BatchProtocol,
            tags: Optional[List[object]],
            start_round: int,
        ) -> _Cohort:
            nonlocal admitted, retire, needs_senders, protocol_name
            protocol.bind(batch, rng_source)
            cohort_env = None
            if environment is not None:
                # The first wave runs under the engine's own environment;
                # later waves under fresh ones built from its spec.
                cohort_env = (
                    environment
                    if not admitted
                    else build_environment(environment.spec())
                )
                cohort_env.bind(batch, rng_source)
            c = _Cohort()
            c.protocol = protocol
            c.batch = batch
            c.rng_source = rng_source
            c.accountant = BatchEnergyAccountant(batch.trials, batch.n)
            c.environment = cohort_env
            c.start_round = start_round
            c.horizon = (
                max_rounds
                if max_rounds is not None
                else protocol.suggested_max_rounds()
            )
            c.orders = list(range(admitted, admitted + batch.trials))
            c.tags = c.orders if tags is None else tags
            admitted += batch.trials
            c.completed = np.asarray(protocol.completed(), dtype=bool).copy()
            c.completion_round = np.zeros(batch.trials, dtype=np.int64)
            c.rounds_executed = np.zeros(batch.trials, dtype=np.int64)
            # A trial that is already complete enters the loop only under
            # run_to_quiescence (it may still transmit).
            if self.run_to_quiescence:
                c.running = np.ones(batch.trials, dtype=bool)
            else:
                c.running = ~c.completed
            c.row_offset = 0
            c.last_tx = None
            c.pending_retired = []
            c.round_log = []
            # Dead retirement is gated per protocol class: the base
            # ``quiescent`` just mirrors ``completed()``, so probing it every
            # round would cost a vector op to learn nothing.
            retire = (
                self.retire_dead
                and not self.run_to_quiescence
                and type(protocol).quiescent is not BatchProtocol.quiescent
            )
            needs_senders = type(protocol).needs_senders
            if protocol_name is None:
                protocol_name = protocol.name
            cohorts.append(c)
            # Trials complete at bind never enter the loop; retire them on
            # the spot so their rows can be reclaimed.
            at_bind = np.flatnonzero(~c.running)
            if at_bind.size:
                _note_retired(c, at_bind)
            return c

        def _admit_pending(items: List[PendingTrial], start_round: int) -> _Cohort:
            for it in items:
                if it.rng is None:
                    raise ValueError(
                        "run_continuous needs exact-mode trials: every "
                        "PendingTrial must carry an rng"
                    )
                if it.network.n != n:
                    raise ValueError(
                        f"all continuous trials must share n; "
                        f"got {it.network.n} and {n}"
                    )
            return _admit(
                NetworkBatch([it.network for it in items]),
                BatchRandomSource.exact([it.rng for it in items]),
                protocol_factory(),
                [
                    it.tag if it.tag is not None else admitted + i
                    for i, it in enumerate(items)
                ],
                start_round,
            )

        def _compact_cohort(c: _Cohort) -> None:
            _flush_retired(c)
            keep = c.running.copy()
            # Identity-preserving list filter: waves sharing one network
            # object keep the tiled-CSR fast path after compaction.
            nets = [net for net, k in zip(c.batch.networks, keep) if k]
            new_batch = NetworkBatch(nets)
            new_rng = c.rng_source.select_trials(keep)
            c.protocol.compact(keep, new_batch, new_rng)
            c.accountant.select_rows(keep)
            if c.environment is not None:
                c.environment.select_rows(keep, new_rng)
            c.batch = new_batch
            c.rng_source = new_rng
            c.completed = c.completed[keep]
            c.completion_round = c.completion_round[keep]
            c.rounds_executed = c.rounds_executed[keep]
            c.running = c.running[keep]
            c.tags = [tag for tag, k in zip(c.tags, keep) if k]
            c.orders = [o for o, k in zip(c.orders, keep) if k]

        def _rebuild_union() -> None:
            nonlocal union_batch, union_rng
            offset = 0
            for c in cohorts:
                c.row_offset = offset
                offset += c.batch.trials
            if len(cohorts) == 1:
                # Single-wave shortcut: reuse the cohort's own batch (keeps
                # shared-topology tiling) and its rng source directly.
                union_batch = cohorts[0].batch
                union_rng = cohorts[0].rng_source
            else:
                union_batch = NetworkBatch(
                    [net for c in cohorts for net in c.batch.networks]
                )
                union_rng = BatchRandomSource(
                    per_trial=[
                        g for c in cohorts for g in c.rng_source.trial_generators
                    ]
                )

        if first is not None:
            _admit(*first, None, 0)
        else:
            _admit_pending(_pull(capacity), 0)

        global_round = 0
        live = 0
        # Occupancy only moves when a trial retires or a refill lands, so
        # the liveness scan + compaction/refill triggers run only on rounds
        # where something stopped (and once at admission).
        occupancy_dirty = True
        while True:
            if occupancy_dirty:
                occupancy_dirty = False
                # Dropping a cohort whose every trial has stopped costs
                # nothing (no CSR rebuild — the whole block just leaves the
                # union), so it is never gated behind the compaction
                # thresholds.
                if any(not c.running.any() for c in cohorts):
                    for c in cohorts:
                        if not c.running.any():
                            _flush_retired(c)
                    cohorts[:] = [c for c in cohorts if c.running.any()]
                    union_stale = True
                live = sum(int(c.running.sum()) for c in cohorts)
                rows = sum(c.batch.trials for c in cohorts)
                # Anti-thrash: row-level compaction rebuilds CSR + node-set
                # state, so it must either make room for a refill or
                # reclaim rows that will actually repay the rebuild.  While
                # the queue can still refill, a quarter of the rows is
                # enough (freed rows turn into fresh trials).  Once it runs
                # dry the batch is draining and every completion frees more
                # rows for nothing — compacting on each would re-pay the
                # rebuild O(log rows) times — so the trigger waits until
                # dead rows dominate (three quarters, and at least half the
                # configured capacity): one late compaction that collapses
                # a long straggler tail in a single step.
                refill_possible = _has_more()
                refill_needed = live < watermark * capacity and refill_possible
                if refill_possible:
                    dead_floor = max(1, rows // 4)
                else:
                    dead_floor = max(1, (3 * rows) // 4, capacity // 2)
                compact_worth = (
                    movable and rows > 0 and (rows - live) >= dead_floor
                )
                if refill_needed or compact_worth:
                    for c in cohorts:
                        if not c.running.all():
                            _compact_cohort(c)
                    new_rows = sum(c.batch.trials for c in cohorts)
                    if new_rows != rows:
                        union_stale = True
                        stats["compactions"] += 1
                        if tel:
                            telemetry.event(
                                "engine.compaction",
                                round=global_round,
                                rows_before=rows,
                                rows_after=new_rows,
                                live=live,
                            )
                            telemetry.counter_inc("engine.compactions")
                    if refill_needed:
                        items = _pull(capacity - live)
                        if items:
                            c = _admit_pending(items, global_round)
                            live += int(c.running.sum())
                            union_stale = True
                            occupancy_dirty = True
                            stats["refills"] += 1
                            if tel:
                                telemetry.event(
                                    "engine.refill",
                                    round=global_round,
                                    added=len(items),
                                    occupancy=live / capacity,
                                )
                                telemetry.counter_inc("engine.refills")
            if not cohorts:
                if _has_more():
                    # Capacity is free but the watermark test above already
                    # admitted what it could; loop to admit the rest.
                    occupancy_dirty = True
                    continue
                break
            if union_stale:
                _rebuild_union()
                union_stale = False
                if tel:
                    telemetry.gauge_set("engine.occupancy", live / capacity)
            elif tel and global_round % 64 == 0:
                telemetry.gauge_set("engine.occupancy", live / capacity)

            if tel:
                t_mark = clock()
            air_parts: List[np.ndarray] = []
            for c in cohorts:
                local = global_round - c.start_round
                tx = np.asarray(
                    c.protocol.transmit_flat(local, c.running), dtype=np.int64
                )
                if c.environment is not None:
                    c.environment.begin_round(local, c.running)
                    # Gated radios (crashed/asleep) are not energy-charged;
                    # in-flight loss below is charged-but-lost, and
                    # ``observe`` still sees the pre-loss (gated) transmit set.
                    tx = c.environment.gate_transmit_flat(local, tx, c.running)
                c.accountant.record_flat(tx)
                air = tx
                if c.environment is not None:
                    air = c.environment.perturb_transmissions(
                        local, tx, c.running
                    )
                c.last_tx = tx
                if c.row_offset:
                    air = air + np.int64(c.row_offset) * n
                air_parts.append(air)
            air_union = (
                air_parts[0]
                if len(air_parts) == 1
                else np.concatenate(air_parts)
            )

            listener_filter = None
            if use_interest:
                interests = [c.protocol.listener_interest() for c in cohorts]
                if all(i is not None for i in interests):
                    listener_filter = (
                        interests[0]
                        if len(interests) == 1
                        else np.concatenate(interests)
                    )

            if tel:
                now = clock()
                phase_seconds["transmit"] += now - t_mark
                t_mark = now
            outcome = self.collision_model.resolve(
                union_batch, air_union, union_rng, listener_filter=listener_filter
            )
            with_senders = environment is not None or needs_senders
            if tel:
                now = clock()
                phase_seconds["resolve"] += now - t_mark
                t_mark = now

            for c in cohorts:
                local = global_round - c.start_round
                if len(cohorts) == 1:
                    out_c = outcome
                else:
                    out_c = _slice_outcome_rows(
                        outcome,
                        c.row_offset,
                        c.row_offset + c.batch.trials,
                        with_senders=with_senders,
                    )
                if c.environment is not None:
                    out_c = c.environment.filter_deliveries(
                        local, out_c, c.running
                    )
                informed_before = (
                    c.protocol.informed_counts() if self.record_rounds else None
                )
                c.protocol.observe(local, c.last_tx, out_c, c.running)
                if self.record_rounds:
                    c.round_log.append(
                        {
                            "running": c.running.copy(),
                            "transmitters": np.bincount(
                                c.last_tx // n, minlength=c.batch.trials
                            ),
                            "deliveries": out_c.receiver_counts,
                            "informed_before": informed_before,
                            "informed_after": c.protocol.informed_counts(),
                        }
                    )

                # The per-trial bookkeeping below runs every round, so the
                # common round (nobody stops) costs a handful of vector ops:
                # completion rounds and rounds executed are written only for
                # the trials that stop.
                completed_now = c.protocol.completed()
                if self.run_to_quiescence:
                    # A complete trial runs on until quiescent, so completion
                    # is recorded apart from stopping.
                    newly = c.running & completed_now & ~c.completed
                    if newly.any():
                        c.completion_round[newly] = local + 1
                        c.completed |= newly
                    stop = c.running & c.protocol.quiescent(local + 1)
                else:
                    stop = c.running & completed_now
                    if retire:
                        # Dead retirement: quiescent-but-incomplete trials
                        # can never change outcome — cut them loose now
                        # instead of spinning them to the round cap.
                        stop |= c.running & c.protocol.quiescent(local + 1)
                if c.environment is not None and self.retire_dead:
                    doomed = c.environment.doomed_trials(local)
                    if doomed is not None:
                        stop |= c.running & doomed
                at_horizon = local + 1 >= c.horizon
                if at_horizon or stop.any():
                    dead = 0
                    if not self.run_to_quiescence:
                        # A running trial is not complete yet, so the
                        # stopping trials that completed now are the new
                        # completions and the others are dead.
                        newly = stop & completed_now
                        c.completion_round[newly] = local + 1
                        c.completed |= newly
                        dead = int((stop & ~completed_now).sum())
                    if at_horizon:
                        stop = stop | c.running
                    c.rounds_executed[stop] = local + 1
                    c.running = c.running & ~stop
                    idx = np.flatnonzero(stop)
                    if idx.size:
                        _note_retired(c, idx, dead=dead)
                        occupancy_dirty = True
            if tel:
                phase_seconds["observe"] += clock() - t_mark
            global_round += 1

        if tel:
            total_seconds = clock() - run_start
            for phase, seconds in phase_seconds.items():
                telemetry.aggregate_span(
                    "round-phase", phase, seconds, rounds=global_round
                )
            moved = (
                {
                    "capacity": capacity,
                    "compactions": stats["compactions"],
                    "refills": stats["refills"],
                }
                if stats["compactions"] or stats["refills"]
                else {}
            )
            telemetry.event(
                "engine.run",
                protocol=protocol_name,
                trials=stats["retired"],
                n=n,
                rounds=global_round,
                trial_rounds=stats["trial_rounds"],
                seconds=total_seconds,
                **moved,
            )
            telemetry.counter_inc("engine.runs")
            telemetry.counter_inc("engine.trials", stats["retired"])
            telemetry.counter_inc("engine.trial_rounds", stats["trial_rounds"])
            telemetry.histogram_observe("engine.run_seconds", total_seconds)
            if stats["retired_dead"]:
                telemetry.counter_inc(
                    "engine.retired_dead", stats["retired_dead"]
                )
        if result_sink is not None:
            return []
        return [results[i] for i in sorted(results)]

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _coerce_batch(networks, trials: Optional[int]) -> NetworkBatch:
        if isinstance(networks, NetworkBatch):
            return networks
        if isinstance(networks, RadioNetwork):
            if trials is None:
                raise ValueError(
                    "pass trials=R when running a batch on a single network"
                )
            return NetworkBatch.shared(networks, trials)
        return NetworkBatch(networks)


def run_protocol_batch(
    networks: Union[NetworkBatch, RadioNetwork, Sequence[RadioNetwork]],
    protocol: BatchProtocol,
    *,
    rng: SeedLike = None,
    rngs: Optional[Sequence[SeedLike]] = None,
    trials: Optional[int] = None,
    max_rounds: Optional[int] = None,
    collision_model: Union[BatchCollisionModel, CollisionModel, None] = None,
    record_rounds: bool = False,
    keep_arrays: bool = False,
    run_to_quiescence: bool = False,
    retire_dead: bool = True,
    environment=None,
) -> List[RunResultTrace]:
    """Convenience wrapper: build a :class:`BatchEngine` and run once.

    Examples
    --------
    >>> from repro.graphs import random_digraph
    >>> from repro.core import EnergyEfficientBroadcast
    >>> net = random_digraph(256, 0.05, rng=1)
    >>> results = run_protocol_batch(
    ...     net, EnergyEfficientBroadcast(0.05), trials=8, rng=2
    ... )
    >>> max(r.energy.max_per_node for r in results) <= 1
    True
    """
    engine = BatchEngine(
        collision_model,
        record_rounds=record_rounds,
        keep_arrays=keep_arrays,
        run_to_quiescence=run_to_quiescence,
        retire_dead=retire_dead,
        environment=environment,
    )
    return engine.run(
        networks,
        protocol,
        rng=rng,
        rngs=rngs,
        trials=trials,
        max_rounds=max_rounds,
    )
