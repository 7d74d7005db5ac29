"""Collision semantics for the synchronous radio round.

The paper uses the standard radio-network collision rule: a node receives a
message in a round iff **exactly one** of its in-neighbours transmits, and
cannot distinguish a collision (two or more transmitters) from silence.

Two additional models are provided for ablations and the geometric-graph
extension experiment:

* :class:`WithCollisionDetectionModel` — receivers can tell "collision"
  apart from "silence" (they still receive no payload on a collision).
* :class:`ErasureCollisionModel` — standard rule, but each otherwise
  successful delivery is independently erased with a fixed probability
  (a crude model of fading).

All models operate on whole rounds at once and are fully vectorised.

The engine runs the batched models (:class:`BatchCollisionModel` and
subclasses), which resolve the rounds of ``R`` independent trials in a
single flattened gather plus one count over ``trial * n + listener`` ids.
Because the trials of a :class:`~repro.radio.batch.NetworkBatch` are
stacked block-diagonally, the gather machinery
(:meth:`BatchCollisionModel._gather_listener_edges`) applies verbatim to the
stacked CSR — no edge crosses a trial boundary, so per-trial semantics are
preserved exactly.  The one-network models above stay as the single-network
form of each rule; :func:`as_batch_collision_model` maps them to their
batched counterparts, which is how the engines accept them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro._util.validation import check_probability
from repro.radio.network import RadioNetwork

__all__ = [
    "CollisionOutcome",
    "CollisionModel",
    "StandardCollisionModel",
    "WithCollisionDetectionModel",
    "ErasureCollisionModel",
    "BatchCollisionOutcome",
    "BatchCollisionModel",
    "BatchStandardCollisionModel",
    "BatchWithCollisionDetectionModel",
    "BatchErasureCollisionModel",
    "as_batch_collision_model",
]


@dataclass(frozen=True)
class CollisionOutcome:
    """The resolved result of one synchronous round.

    Attributes
    ----------
    receivers:
        1-D array of node ids that successfully received a message this round.
    senders:
        1-D array (same length) with the unique transmitting in-neighbour that
        delivered to the corresponding receiver.
    hear_counts:
        ``n``-vector of how many in-neighbours of each node transmitted
        (before any erasure).  ``hear_counts[v] >= 2`` means ``v`` experienced
        a collision.
    collision_flags:
        ``n``-bool vector; under models with collision detection this marks
        the nodes that *detected* a collision.  All-``False`` under the
        standard model (nodes cannot detect collisions).
    """

    receivers: np.ndarray
    senders: np.ndarray
    hear_counts: np.ndarray
    collision_flags: np.ndarray


class CollisionModel:
    """Base class: resolve which transmissions are received in a round."""

    #: Whether receivers learn that a collision happened.
    detects_collisions: bool = False

    def resolve(
        self,
        network: RadioNetwork,
        transmit_mask: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> CollisionOutcome:
        """Resolve one round.

        Parameters
        ----------
        network:
            The radio network.
        transmit_mask:
            Boolean ``n``-vector; ``True`` where the node transmits this round.
        rng:
            Random generator (only used by stochastic models).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Shared vectorised machinery
    # ------------------------------------------------------------------ #
    @staticmethod
    def _hear_counts_and_unique_sender(
        network: RadioNetwork, transmit_mask: np.ndarray
    ) -> tuple:
        """Return (hear_counts, receivers, senders) under the exactly-one rule.

        ``receivers`` are the nodes with exactly one transmitting in-neighbour
        and ``senders[i]`` is that unique in-neighbour of ``receivers[i]``.
        """
        n = network.n
        transmit_mask = np.asarray(transmit_mask, dtype=bool)
        if transmit_mask.shape != (n,):
            raise ValueError(
                f"transmit_mask must have shape ({n},), got {transmit_mask.shape}"
            )
        tx_nodes = np.flatnonzero(transmit_mask)
        return CollisionModel._hear_counts_from_transmitters(
            n, network.out_indptr, network.out_indices, tx_nodes
        )

    @staticmethod
    def _hear_counts_from_transmitters(
        n: int, indptr: np.ndarray, indices: np.ndarray, tx_nodes: np.ndarray
    ) -> tuple:
        """Exactly-one-rule resolution from a sorted transmitter-id array.

        The sparse core shared by the scalar and the batched models: cost is
        O(edges out of transmitters), independent of ``n`` except for the
        final ``bincount``.
        """
        listeners, edge_ends = (
            BatchCollisionModel._gather_listener_edges(indptr, indices, tx_nodes)
            if tx_nodes.size
            else (indices[:0], None)
        )
        if listeners.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return np.zeros(n, dtype=np.int64), empty, empty

        hear_counts = np.bincount(listeners, minlength=n)
        # Deliveries are usually far rarer than edges, so the senders are
        # recovered only for delivered edges (searchsorted on the per-row
        # edge offsets) instead of materialising a full per-edge sender array.
        delivered_edges = np.flatnonzero(hear_counts[listeners] == 1)
        receivers = listeners[delivered_edges].astype(np.int64, copy=False)
        senders = tx_nodes[np.searchsorted(edge_ends, delivered_edges, side="right")]
        return hear_counts, receivers, senders


class StandardCollisionModel(CollisionModel):
    """The paper's model: receive iff exactly one in-neighbour transmits."""

    detects_collisions = False

    def resolve(
        self,
        network: RadioNetwork,
        transmit_mask: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> CollisionOutcome:
        hear_counts, receivers, senders = self._hear_counts_and_unique_sender(
            network, transmit_mask
        )
        return CollisionOutcome(
            receivers=receivers,
            senders=senders,
            hear_counts=hear_counts,
            collision_flags=np.zeros(network.n, dtype=bool),
        )

    def __repr__(self) -> str:
        return "StandardCollisionModel()"


class WithCollisionDetectionModel(CollisionModel):
    """Receivers can distinguish collision (>= 2 transmitters heard) from silence."""

    detects_collisions = True

    def resolve(
        self,
        network: RadioNetwork,
        transmit_mask: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> CollisionOutcome:
        hear_counts, receivers, senders = self._hear_counts_and_unique_sender(
            network, transmit_mask
        )
        return CollisionOutcome(
            receivers=receivers,
            senders=senders,
            hear_counts=hear_counts,
            collision_flags=hear_counts >= 2,
        )

    def __repr__(self) -> str:
        return "WithCollisionDetectionModel()"


class ErasureCollisionModel(CollisionModel):
    """Standard rule plus i.i.d. erasure of successful deliveries.

    Parameters
    ----------
    erasure_probability:
        Probability that an otherwise successful delivery is lost.
    """

    detects_collisions = False

    def __init__(self, erasure_probability: float):
        self.erasure_probability = check_probability(
            erasure_probability, "erasure_probability"
        )

    def resolve(
        self,
        network: RadioNetwork,
        transmit_mask: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> CollisionOutcome:
        if rng is None:
            raise ValueError("ErasureCollisionModel requires an rng")
        hear_counts, receivers, senders = self._hear_counts_and_unique_sender(
            network, transmit_mask
        )
        if receivers.size and self.erasure_probability > 0.0:
            keep = rng.random(receivers.size) >= self.erasure_probability
            receivers = receivers[keep]
            senders = senders[keep]
        return CollisionOutcome(
            receivers=receivers,
            senders=senders,
            hear_counts=hear_counts,
            collision_flags=np.zeros(network.n, dtype=bool),
        )

    def __repr__(self) -> str:
        return f"ErasureCollisionModel(erasure_probability={self.erasure_probability})"


# --------------------------------------------------------------------------- #
# Batched collision resolution (R trials per round)
# --------------------------------------------------------------------------- #
class BatchCollisionOutcome:
    """The resolved result of one synchronous round across ``R`` trials.

    Receivers and senders are stored as *flat* node ids ``trial * n + node``
    in trial-major order (all of trial 0's deliveries, then trial 1's, …).
    In an unfiltered outcome the order within a trial is the one-network
    models' transmitter-major edge order, the same whatever the batch, so
    exact-mode draws made per delivery (the erasure model's) do not depend
    on the batch a trial runs in.  An outcome resolved with a listener filter
    holds the same deliveries restricted to the filter, in edge order or
    sorted by id; the engine passes a filter only where the observer does
    not depend on the order.  An outcome covers one
    :class:`~repro.radio.batch.NetworkBatch`: the engine resolves each
    admission cohort of a continuous run on its own batch, so no outcome is
    ever split between cohorts.

    Everything beyond ``receiver_flat`` is derived lazily: the batch engine's
    broadcast hot path only reads the receivers, so the unique senders, the
    per-trial delivery counts and the dense hear-count matrix are computed on
    first access (gossip reads the senders, the erasure model the counts, and
    only diagnostics the dense matrices).

    Attributes
    ----------
    receiver_flat:
        1-D array of flat ids of nodes that received a message this round.
    sender_flat:
        1-D array (same length) with the flat id of the unique transmitting
        in-neighbour that delivered to the corresponding receiver (lazy).
    receiver_counts:
        ``R``-vector with the number of deliveries per trial (lazy).
    hear_counts:
        ``(R, n)`` matrix of how many in-neighbours of each node transmitted
        (lazy).
    collision_flags:
        ``(R, n)`` bool matrix of detected collisions (all-``False`` unless
        the model detects collisions; lazy).
    """

    __slots__ = (
        "receiver_flat",
        "trials",
        "n",
        "detects_collisions",
        "_receiver_counts",
        "_sender_flat",
        "_listeners",
        "_edge_ends",
        "_tx_flat",
        "_delivered_mask",
        "_hear_dense",
        "_trial_offsets",
    )

    def __init__(
        self,
        *,
        receiver_flat: np.ndarray,
        trials: int,
        n: int,
        listeners: Optional[np.ndarray] = None,
        edge_ends: Optional[np.ndarray] = None,
        tx_flat: Optional[np.ndarray] = None,
        delivered_mask: Optional[np.ndarray] = None,
        receiver_counts: Optional[np.ndarray] = None,
        sender_flat: Optional[np.ndarray] = None,
        hear_dense: Optional[np.ndarray] = None,
        detects_collisions: bool = False,
    ):
        self.receiver_flat = receiver_flat
        self.trials = trials
        self.n = n
        self.detects_collisions = detects_collisions
        self._receiver_counts = receiver_counts
        self._sender_flat = sender_flat
        self._listeners = listeners
        self._edge_ends = edge_ends
        self._tx_flat = tx_flat
        self._delivered_mask = delivered_mask
        self._hear_dense = hear_dense
        self._trial_offsets = None

    @property
    def receiver_counts(self) -> np.ndarray:
        """Per-trial delivery counts (computed on first access)."""
        if self._receiver_counts is None:
            self._receiver_counts = np.bincount(
                self.receiver_flat // self.n, minlength=self.trials
            )
        return self._receiver_counts

    @receiver_counts.setter
    def receiver_counts(self, value: np.ndarray) -> None:
        self._receiver_counts = value
        self._trial_offsets = None

    @property
    def sender_flat(self) -> np.ndarray:
        """Flat ids of the unique delivering senders (computed on first access)."""
        if self._sender_flat is None:
            if self._tx_flat is None or self._listeners is None:
                self._sender_flat = np.empty(0, dtype=np.int64)
                return self._sender_flat
            mask = self._delivered_mask
            if mask is None:
                # Dense-scan path: rebuild the per-edge delivery mask from
                # the (immutable) receiver set — not from the listener
                # filter, which the protocol may have mutated since the
                # round was resolved — then align the senders with the
                # (sorted) receiver order.  Every receiver is heard exactly
                # once, so membership alone identifies its delivering edge.
                receivers = self.receiver_flat
                positions = np.searchsorted(receivers, self._listeners)
                positions[positions == receivers.size] = max(receivers.size - 1, 0)
                mask = (
                    receivers[positions] == self._listeners
                    if receivers.size
                    else np.zeros(self._listeners.size, dtype=bool)
                )
                delivered_edges = np.flatnonzero(mask)
                senders = self._tx_flat[
                    np.searchsorted(self._edge_ends, delivered_edges, side="right")
                ]
                receivers_edge_order = self._listeners[delivered_edges]
                self._sender_flat = senders[np.argsort(receivers_edge_order)]
            else:
                delivered_edges = np.flatnonzero(mask)
                self._sender_flat = self._tx_flat[
                    np.searchsorted(self._edge_ends, delivered_edges, side="right")
                ]
        return self._sender_flat

    @sender_flat.setter
    def sender_flat(self, value: np.ndarray) -> None:
        self._sender_flat = value

    @property
    def hear_counts(self) -> np.ndarray:
        """Dense ``(R, n)`` hear counts (built on first access)."""
        if self._hear_dense is None:
            total = self.trials * self.n
            if self._listeners is None or self._listeners.size == 0:
                dense = np.zeros(total, dtype=np.int64)
            else:
                dense = np.bincount(self._listeners, minlength=total)
            self._hear_dense = dense.reshape(self.trials, self.n)
        return self._hear_dense

    @property
    def collision_flags(self) -> np.ndarray:
        """Dense ``(R, n)`` detected-collision flags."""
        if not self.detects_collisions:
            return np.zeros((self.trials, self.n), dtype=bool)
        return self.hear_counts >= 2

    def receivers_of(self, trial: int) -> np.ndarray:
        """Local node ids of ``trial``'s receivers (scalar-model order)."""
        start, stop = self._trial_slice(trial)
        return self.receiver_flat[start:stop] - trial * self.n

    def senders_of(self, trial: int) -> np.ndarray:
        """Local node ids of ``trial``'s delivering senders."""
        start, stop = self._trial_slice(trial)
        return self.sender_flat[start:stop] - trial * self.n

    def _trial_slice(self, trial: int) -> tuple:
        # receiver_flat is immutable once handed out per trial, so the prefix
        # sums are computed once and reused by all R receivers_of/senders_of
        # calls (the setter above invalidates them if the counts are rebound).
        if self._trial_offsets is None:
            self._trial_offsets = np.concatenate(
                [[0], np.cumsum(self.receiver_counts)]
            )
        offsets = self._trial_offsets
        return int(offsets[trial]), int(offsets[trial + 1])


class BatchCollisionModel:
    """Base class: resolve ``R`` trials\' rounds in one vectorised pass.

    Subclasses mirror the scalar models one-to-one; the mapping is available
    via :func:`as_batch_collision_model`.
    """

    detects_collisions: bool = False

    #: Whether the model draws randomness per delivered edge.  Trimming
    #: deliveries the protocol ignores would then shift the model's streams,
    #: so the engine passes no listener filter to such a model in exact mode.
    draws_per_delivery: bool = False

    def resolve(
        self,
        batch,  # NetworkBatch (duck-typed to avoid an import cycle with batch.py)
        transmitters: np.ndarray,
        rng_source=None,
        listener_filter: Optional[np.ndarray] = None,
    ) -> BatchCollisionOutcome:
        """Resolve one round for every trial.

        Parameters
        ----------
        batch:
            A :class:`~repro.radio.batch.NetworkBatch`.
        transmitters:
            Either a sorted 1-D array of flat transmitter ids
            (``trial * n + node`` — the fast path the batch engine uses) or a
            boolean ``(R, n)`` matrix.
        rng_source:
            A :class:`~repro.radio.batch.BatchRandomSource` (only used by
            stochastic models).
        listener_filter:
            Optional flat bool vector (``R * n``); deliveries to nodes where
            it is ``False`` are dropped from the outcome.  The engine passes
            the protocol's interest set (e.g. the still-uninformed nodes of a
            broadcast) so rounds don't pay for deliveries the protocol would
            ignore.  Collision *counting* always uses every transmission, and
            the kept deliveries may come out sorted by id instead of in edge
            order.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Shared vectorised machinery
    # ------------------------------------------------------------------ #
    #: Below this many gathered edges the listener counts come from an
    #: argsort of the edges instead of a full-width bincount — late broadcast
    #: rounds have a handful of transmitters, and a dense count would touch
    #: the whole ``R * n`` id space every round.  An unfiltered round also
    #: counts densely once its edges reach an eighth of the id space, where
    #: one bincount is cheaper than the sort (both scans give the same
    #: unfiltered outcome).
    _SPARSE_EDGE_THRESHOLD = 8192

    @staticmethod
    def _gather_listener_edges(
        indptr: np.ndarray, indices: np.ndarray, tx_nodes: np.ndarray
    ) -> tuple:
        """Flat gather of all (transmitter -> listener) pairs of a round.

        Returns ``(listeners, edge_ends)`` where ``listeners`` holds every
        edge's listener in transmitter order (rows in CSR order) and
        ``edge_ends`` is the *inclusive* cumulative edge count per
        transmitter (``cumsum(lengths)``) — edge ``j`` belongs to the row
        found by ``searchsorted(edge_ends, j, side="right")``.
        """
        starts = indptr[tx_nodes]
        lengths = indptr[tx_nodes + 1] - starts
        total = int(lengths.sum())
        if total == 0:
            return indices[:0], lengths
        edge_ends = np.cumsum(lengths)
        # position of edge j within the flat gather: arange(total) plus the
        # per-row shift from the row's CSR start (one repeat, one add).
        shift = starts - (edge_ends - lengths)
        flat_edges = np.arange(total, dtype=np.int64) + np.repeat(shift, lengths)
        return indices[flat_edges], edge_ends

    def _batch_exactly_one_rule(
        self, batch, transmitters, listener_filter=None
    ) -> "BatchCollisionOutcome":
        """Resolve all ``R`` trials\' rounds with one flattened gather.

        Lowers the transmitters of all trials onto the stacked
        block-diagonal CSR (:meth:`_gather_listener_edges`) and counts
        hearers over ``trial * n + listener`` ids — by one ``bincount`` when
        the round is dense, or by an argsort of the gathered edges when it
        is sparse.  Without a listener filter both scans yield receivers in
        the scalar models\' edge order, which the exact-equivalence mode
        relies on.  With a filter the sparse scan sorts only the edges into
        interesting listeners and keeps edge order, while the dense scan
        yields sorted ids.
        """
        trials, n = batch.trials, batch.n
        transmitters = np.asarray(transmitters)
        if transmitters.ndim == 2:
            if transmitters.shape != (trials, n):
                raise ValueError(
                    f"transmit masks must have shape ({trials}, {n}), "
                    f"got {transmitters.shape}"
                )
            tx_flat = np.flatnonzero(transmitters.reshape(-1))
        else:
            tx_flat = transmitters.astype(np.int64, copy=False)

        listeners, edge_ends = (
            self._gather_listener_edges(
                batch.out_indptr, batch.out_indices, tx_flat
            )
            if tx_flat.size
            else (batch.out_indices[:0], None)
        )
        total_edges = listeners.size
        if total_edges == 0:
            return BatchCollisionOutcome(
                receiver_flat=np.empty(0, dtype=np.int64),
                trials=trials,
                n=n,
                receiver_counts=np.zeros(trials, dtype=np.int64),
                sender_flat=np.empty(0, dtype=np.int64),
            )

        hear_dense = None
        delivered_mask = None
        if total_edges >= BatchCollisionModel._SPARSE_EDGE_THRESHOLD or (
            listener_filter is None and 8 * total_edges >= batch.total_nodes
        ):
            flat_counts = np.bincount(listeners, minlength=batch.total_nodes)
            hear_dense = flat_counts.reshape(trials, n)
            if listener_filter is not None:
                # Dense scan: with an interest filter the receivers are just
                # the ids heard exactly once that the protocol still cares
                # about — no per-edge gather or compress at all.  The ids
                # come out sorted rather than in edge order; the engine
                # passes a filter only to observers that ignore the order.
                receiver_flat = np.flatnonzero(
                    (flat_counts == 1) & listener_filter
                )
            else:
                # take/compress rather than fancy and boolean indexing:
                # the same elements in the same order, at a fraction of
                # the per-call cost on these edge-sized int32 arrays.
                delivered_mask = np.take(flat_counts, listeners) == 1
                receiver_flat = np.compress(delivered_mask, listeners).astype(
                    np.int64, copy=False
                )
        else:
            # Sparse scan: sort the edges by listener and keep the runs of
            # length one.  A filter drops the edges into uninteresting
            # listeners before the sort.  All edges into one listener share
            # its fate, so every kept listener's run is whole and the
            # receivers stay in edge order.
            if listener_filter is None:
                kept = None
                scanned = listeners
            else:
                kept = np.flatnonzero(listener_filter[listeners])
                scanned = listeners[kept]
            hits = np.zeros(scanned.size, dtype=bool)
            if scanned.size:
                order = np.argsort(scanned, kind="stable")
                sorted_listeners = scanned[order]
                run_first = np.empty(scanned.size, dtype=bool)
                run_last = np.empty(scanned.size, dtype=bool)
                run_first[0] = True
                run_first[1:] = sorted_listeners[1:] != sorted_listeners[:-1]
                run_last[-1] = True
                run_last[:-1] = run_first[1:]
                hits[order] = run_first & run_last
            receiver_flat = scanned[hits].astype(np.int64, copy=False)
            if kept is None:
                delivered_mask = hits
            else:
                delivered_mask = np.zeros(total_edges, dtype=bool)
                delivered_mask[kept[hits]] = True
        return BatchCollisionOutcome(
            receiver_flat=receiver_flat,
            trials=trials,
            n=n,
            listeners=listeners,
            edge_ends=edge_ends,
            tx_flat=tx_flat,
            delivered_mask=delivered_mask,
            hear_dense=hear_dense,
        )


class BatchStandardCollisionModel(BatchCollisionModel):
    """Batched :class:`StandardCollisionModel`."""

    detects_collisions = False

    def resolve(
        self,
        batch,
        transmitters: np.ndarray,
        rng_source=None,
        listener_filter: Optional[np.ndarray] = None,
    ) -> BatchCollisionOutcome:
        return self._batch_exactly_one_rule(
            batch, transmitters, listener_filter
        )

    def __repr__(self) -> str:
        return "BatchStandardCollisionModel()"


class BatchWithCollisionDetectionModel(BatchCollisionModel):
    """Batched :class:`WithCollisionDetectionModel`."""

    detects_collisions = True

    def resolve(
        self,
        batch,
        transmitters: np.ndarray,
        rng_source=None,
        listener_filter: Optional[np.ndarray] = None,
    ) -> BatchCollisionOutcome:
        outcome = self._batch_exactly_one_rule(
            batch, transmitters, listener_filter
        )
        outcome.detects_collisions = True
        return outcome

    def __repr__(self) -> str:
        return "BatchWithCollisionDetectionModel()"


class BatchErasureCollisionModel(BatchCollisionModel):
    """Batched :class:`ErasureCollisionModel`.

    In exact mode the keep/erase draws come one trial at a time from that
    trial's own generator (``rng.random(receivers)`` per trial), so a
    trial's erasures do not depend on its batch.
    """

    detects_collisions = False
    draws_per_delivery = True

    def __init__(self, erasure_probability: float):
        self.erasure_probability = check_probability(
            erasure_probability, "erasure_probability"
        )

    def resolve(
        self,
        batch,
        transmitters: np.ndarray,
        rng_source=None,
        listener_filter: Optional[np.ndarray] = None,
    ) -> BatchCollisionOutcome:
        if rng_source is None:
            raise ValueError("BatchErasureCollisionModel requires an rng_source")
        outcome = self._batch_exactly_one_rule(
            batch, transmitters, listener_filter
        )
        if outcome.receiver_flat.size and self.erasure_probability > 0.0:
            keep = (
                rng_source.uniforms_for_counts(outcome.receiver_counts)
                >= self.erasure_probability
            )
            # Materialise the senders against the pre-erasure receivers
            # before reassigning receiver_flat — the lazy getter derives
            # them from the receiver set, which is about to shrink.
            senders = outcome.sender_flat
            outcome.receiver_flat = outcome.receiver_flat[keep]
            outcome.sender_flat = senders[keep]
            outcome.receiver_counts = np.bincount(
                outcome.receiver_flat // batch.n, minlength=batch.trials
            )
        return outcome

    def __repr__(self) -> str:
        return (
            f"BatchErasureCollisionModel("
            f"erasure_probability={self.erasure_probability})"
        )


def as_batch_collision_model(model: CollisionModel) -> BatchCollisionModel:
    """Map a scalar collision model to its batched counterpart."""
    if isinstance(model, BatchCollisionModel):
        return model
    if isinstance(model, ErasureCollisionModel):
        return BatchErasureCollisionModel(model.erasure_probability)
    if isinstance(model, WithCollisionDetectionModel):
        return BatchWithCollisionDetectionModel()
    if isinstance(model, StandardCollisionModel):
        return BatchStandardCollisionModel()
    raise TypeError(
        f"no batched counterpart registered for {type(model).__name__}"
    )
