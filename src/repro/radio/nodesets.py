"""Pluggable node-set state backends for the simulation engines.

Every protocol in this repository is a *set dynamic*: broadcasts grow an
informed set, gossip grows per-node rumour sets, Decay and flooding walk a
transmit frontier with per-node quotas.  This module extracts that state out
of the protocol classes into a small kernel API with three interchangeable
backends, so the representation can be chosen per workload without touching
any protocol logic:

``dense``
    The original representation — boolean ``(R, n)`` masks and ``(R, n, n)``
    knowledge tensors, dense per-node quota/budget arrays.  Fastest at small
    scales and the bit-for-bit reference the other backends are tested
    against.

``bitset``
    Node sets packed into ``np.uint64`` words (64 set members per word) with
    popcount-based counts.  The headline win is the gossip knowledge tensor:
    ``(R, n, ceil(n / 64))`` words instead of ``R * n**2`` bool bytes — an
    ~8x memory lift that moves the practical gossip batch ceiling from
    ``R * n**2 ~ 1e8`` bool cells to ~1e9, and makes the per-round
    completion scan 8x smaller.

``sparse``
    Frontier state kept as index pools (flat node ids plus per-node
    quota/budget), tracking only the nodes that can still transmit.  Aimed
    at the collision-edge-bound regimes of Decay and flooding at large
    ``n``: within a Decay phase the surviving frontier halves every round,
    so the pool shrinks geometrically while a dense mask comparison keeps
    paying ``O(R * n)`` per round.  Membership sets stay dense under this
    backend (both transmit rules and the collision listener filter consume
    them as masks) and the knowledge tensor falls back to the bitset
    packing.

Backends are bundled by :class:`NodeSetKernel` (one factory per state kind)
and chosen by :func:`select_backend` from ``(R, n, density)`` plus the
protocol's declared *state profile*.  Sweeps always take that choice;
``BatchEngine(state_backend=...)`` forces a backend for the equivalence
tests and the backend benchmarks.  Every backend is bit-identical to
``dense`` under ``batch_mode="exact"`` — ``tests/test_nodesets.py`` pins
this for the whole protocol registry.

Packing layout: node ``m`` of a row lives in word ``m // 64`` at bit
``m % 64`` (``np.packbits(..., bitorder="little")`` on a little-endian
host, which is what the NumPy wheels this project targets run on).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import telemetry

__all__ = [
    "STATE_BACKENDS",
    "NodeSetKernel",
    "resolve_kernel",
    "select_backend",
    "words_for",
    "pack_bool_rows",
    "unpack_bool_rows",
    "popcount",
    "NodeSetState",
    "DenseNodeSet",
    "BitsetNodeSet",
    "KnowledgeState",
    "DenseKnowledge",
    "BitsetKnowledge",
    "QuotaFrontier",
    "DenseQuotaFrontier",
    "SparseQuotaFrontier",
    "BudgetFrontier",
    "DenseBudgetFrontier",
    "SparseBudgetFrontier",
]

#: Valid ``BatchEngine(state_backend=...)`` values ("auto" resolves via
#: :func:`select_backend`; the rest name a concrete backend).
STATE_BACKENDS = ("auto", "dense", "bitset", "sparse")

_WORD_BITS = 64


# --------------------------------------------------------------------------- #
# Bit-packing primitives
# --------------------------------------------------------------------------- #
def words_for(n: int) -> int:
    """Number of ``uint64`` words needed for an ``n``-bit row."""
    return (int(n) + _WORD_BITS - 1) // _WORD_BITS


def pack_bool_rows(mask: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(..., n)`` array into ``(..., words_for(n))`` uint64."""
    mask = np.ascontiguousarray(mask, dtype=bool)
    n = mask.shape[-1]
    n_words = words_for(n)
    packed = np.packbits(mask, axis=-1, bitorder="little")
    pad = n_words * 8 - packed.shape[-1]
    if pad:
        packed = np.concatenate(
            [packed, np.zeros(mask.shape[:-1] + (pad,), dtype=np.uint8)],
            axis=-1,
        )
    return np.ascontiguousarray(packed).view(np.uint64)


def unpack_bool_rows(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_bool_rows`: ``(..., W)`` uint64 -> ``(..., n)`` bool."""
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little", count=n)
    return bits.astype(bool)


if hasattr(np, "bitwise_count"):  # NumPy >= 2.0

    def popcount(words: np.ndarray) -> np.ndarray:
        """Per-word population count (same shape as ``words``)."""
        return np.bitwise_count(words)

else:  # pragma: no cover - exercised only on NumPy < 2.0
    _POPCOUNT8 = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)

    def popcount(words: np.ndarray) -> np.ndarray:
        """Per-word population count (same shape as ``words``)."""
        as_bytes = np.ascontiguousarray(words).view(np.uint8)
        per_byte = _POPCOUNT8[as_bytes].reshape(words.shape + (8,))
        return per_byte.sum(axis=-1, dtype=np.int64)


# --------------------------------------------------------------------------- #
# Membership sets (one node set per trial)
# --------------------------------------------------------------------------- #
class NodeSetState(abc.ABC):
    """``R`` per-trial node sets over flat ids ``trial * n + node``.

    The contract every backend honours (and the equivalence tests pin):

    * :meth:`add_flat` returns the not-yet-member subset of its input, in
      input order — exactly what the dense ``mask[ids]`` membership test
      yields;
    * :meth:`counts` is maintained incrementally, so reading it is ``O(R)``;
    * :meth:`mask` / :meth:`complement_flat` expose dense boolean views for
      the transmit rules and the collision listener filter.  ``dense``
      returns live arrays; packed backends materialise on demand (cached
      until the next mutation).
    """

    __slots__ = ("trials", "n", "_counts")

    def __init__(self, trials: int, n: int):
        self.trials = int(trials)
        self.n = int(n)
        self._counts = np.zeros(self.trials, dtype=np.int64)

    def counts(self) -> np.ndarray:
        """Per-trial member counts (live array — copy before mutating)."""
        return self._counts

    def select_rows(self, keep: np.ndarray) -> None:
        """Shrink to the trials where ``keep`` is True (compaction repack).

        ``keep`` is a boolean ``(R,)`` mask; surviving trials keep their
        relative order, so trial ``t``'s state lands in the row
        ``keep[:t].sum()`` — the same remapping the engine applies to its
        stacked CSR and every other per-trial array.
        """
        keep = np.asarray(keep, dtype=bool)
        self._counts = self._counts[keep].copy()
        self.trials = int(self._counts.size)
        self._select_rows(keep)

    @abc.abstractmethod
    def _select_rows(self, keep: np.ndarray) -> None:
        """Backend hook: repack per-trial state down to ``keep`` rows."""

    @abc.abstractmethod
    def add_flat(self, flat_ids: np.ndarray) -> np.ndarray:
        """Add flat ids; return the newly added subset (input order)."""

    @abc.abstractmethod
    def mask(self) -> np.ndarray:
        """Dense boolean ``(R, n)`` membership matrix (do not mutate)."""

    @abc.abstractmethod
    def complement_flat(self) -> np.ndarray:
        """Dense boolean ``(R * n,)`` non-membership vector (do not mutate)."""


class DenseNodeSet(NodeSetState):
    """Boolean-mask membership — the original representation."""

    __slots__ = ("_mask", "_flat", "_complement_flat")

    def __init__(self, trials: int, n: int):
        super().__init__(trials, n)
        self._mask = np.zeros((self.trials, self.n), dtype=bool)
        self._flat = self._mask.reshape(-1)
        self._complement_flat = ~self._flat

    def _select_rows(self, keep: np.ndarray) -> None:
        # _flat / _complement_flat are views of / derived from _mask — both
        # must be rebuilt against the repacked array.
        self._mask = np.ascontiguousarray(self._mask[keep])
        self._flat = self._mask.reshape(-1)
        self._complement_flat = ~self._flat

    def add_flat(self, flat_ids: np.ndarray) -> np.ndarray:
        flat_ids = np.asarray(flat_ids, dtype=np.int64)
        if flat_ids.size == 0:
            return flat_ids
        newly = flat_ids[~self._flat[flat_ids]]
        if newly.size:
            self._flat[newly] = True
            self._complement_flat[newly] = False
            self._counts += np.bincount(newly // self.n, minlength=self.trials)
        return newly

    def mask(self) -> np.ndarray:
        return self._mask

    def complement_flat(self) -> np.ndarray:
        return self._complement_flat


class BitsetNodeSet(NodeSetState):
    """Membership packed into ``(R, words_for(n))`` uint64 words.

    Dense views are unpacked on demand and cached until the next
    :meth:`add_flat`, so the steady-state cost is one unpack per round —
    the same order of work a dense mask read performs — while the resident
    set state is 8x smaller.
    """

    __slots__ = ("_words", "_mask_cache", "_complement_cache")

    def __init__(self, trials: int, n: int):
        super().__init__(trials, n)
        self._words = np.zeros((self.trials, words_for(self.n)), dtype=np.uint64)
        self._mask_cache: Optional[np.ndarray] = None
        self._complement_cache: Optional[np.ndarray] = None

    def _select_rows(self, keep: np.ndarray) -> None:
        self._words = np.ascontiguousarray(self._words[keep])
        self._mask_cache = None
        self._complement_cache = None

    def add_flat(self, flat_ids: np.ndarray) -> np.ndarray:
        flat_ids = np.asarray(flat_ids, dtype=np.int64)
        if flat_ids.size == 0:
            return flat_ids
        rows = flat_ids // self.n
        cols = flat_ids - rows * self.n
        word = cols >> 6
        bit = (cols & 63).astype(np.uint64)
        present = (self._words[rows, word] >> bit) & np.uint64(1)
        keep = present == 0
        newly = flat_ids[keep]
        if newly.size:
            # bitwise_or.at: several new members can land in the same word,
            # which buffered fancy assignment would collapse to one.
            np.bitwise_or.at(
                self._words,
                (rows[keep], word[keep]),
                np.uint64(1) << bit[keep],
            )
            self._counts += np.bincount(newly // self.n, minlength=self.trials)
            self._mask_cache = None
            self._complement_cache = None
        return newly

    def mask(self) -> np.ndarray:
        if self._mask_cache is None:
            self._mask_cache = unpack_bool_rows(self._words, self.n)
        return self._mask_cache

    def complement_flat(self) -> np.ndarray:
        if self._complement_cache is None:
            self._complement_cache = ~self.mask().reshape(-1)
        return self._complement_cache


# --------------------------------------------------------------------------- #
# Gossip knowledge tensors
# --------------------------------------------------------------------------- #
class KnowledgeState(abc.ABC):
    """``R`` per-trial ``(n, n)`` rumour-knowledge relations.

    Row ``(t, v)`` is the set of rumours node ``v`` of trial ``t`` knows;
    rows only ever grow (the join model), which is what lets the packed
    backend stay bit-compatible with the dense one.
    """

    __slots__ = ("trials", "n")

    def __init__(self, trials: int, n: int):
        self.trials = int(trials)
        self.n = int(n)

    def select_rows(self, keep: np.ndarray) -> None:
        """Shrink to the trials where ``keep`` is True (compaction repack)."""
        keep = np.asarray(keep, dtype=bool)
        self.trials = int(keep.sum())
        self._select_rows(keep)

    @abc.abstractmethod
    def _select_rows(self, keep: np.ndarray) -> None:
        """Backend hook: repack per-trial state down to ``keep`` rows."""

    @abc.abstractmethod
    def merge_flat(self, sender_flat: np.ndarray, receiver_flat: np.ndarray) -> None:
        """OR each (unique) receiver row with its sender's round-start row."""

    @abc.abstractmethod
    def per_node_counts(self) -> np.ndarray:
        """``(R, n)`` number of rumours each node knows."""

    @abc.abstractmethod
    def complete(self) -> np.ndarray:
        """Per-trial bool vector: every node knows every rumour."""

    @abc.abstractmethod
    def column(self, rumour: int) -> np.ndarray:
        """``(R, n)`` bool: which nodes know ``rumour``."""

    @abc.abstractmethod
    def as_dense(self) -> np.ndarray:
        """Materialise the ``(R, n, n)`` bool tensor (dense: live view)."""

    def min_counts(self) -> np.ndarray:
        """Per-trial minimum rumour count (the gossip progress metric)."""
        return self.per_node_counts().min(axis=1)


class DenseKnowledge(KnowledgeState):
    """Boolean ``(R, n, n)`` tensor — the original representation."""

    __slots__ = ("_tensor",)

    def __init__(self, trials: int, n: int):
        super().__init__(trials, n)
        self._tensor = np.broadcast_to(
            np.eye(n, dtype=bool), (self.trials, n, n)
        ).copy()

    def _select_rows(self, keep: np.ndarray) -> None:
        # merge_flat reshapes the tensor, which needs contiguity.
        self._tensor = np.ascontiguousarray(self._tensor[keep])

    def merge_flat(self, sender_flat: np.ndarray, receiver_flat: np.ndarray) -> None:
        if receiver_flat.size == 0:
            return
        flat = self._tensor.reshape(self.trials * self.n, self.n)
        payloads = flat[sender_flat]  # fancy indexing copies round-start rows
        flat[receiver_flat] |= payloads

    def per_node_counts(self) -> np.ndarray:
        return self._tensor.sum(axis=2)

    def complete(self) -> np.ndarray:
        return self._tensor.all(axis=(1, 2))

    def column(self, rumour: int) -> np.ndarray:
        return self._tensor[:, :, rumour]

    def as_dense(self) -> np.ndarray:
        return self._tensor


class BitsetKnowledge(KnowledgeState):
    """Knowledge packed into ``(R, n, words_for(n))`` uint64 words.

    8x smaller than the dense tensor; rumour counts and completion are
    maintained *incrementally* from merge deltas: each merge popcounts only
    the receiver rows it touched, so reading :meth:`per_node_counts` is a
    copy and :meth:`complete` is an ``O(R)`` comparison — the per-round
    full-tensor completion scan the dense backend pays is gone entirely.
    Rows only ever grow (the join model), which is what makes the delta
    bookkeeping exact.
    """

    __slots__ = ("_words", "_node_counts", "_full_rows")

    def __init__(self, trials: int, n: int):
        super().__init__(trials, n)
        self._words = np.zeros((self.trials, n, words_for(n)), dtype=np.uint64)
        idx = np.arange(n)
        self._words[:, idx, idx >> 6] = np.uint64(1) << (idx & 63).astype(np.uint64)
        # Every node starts knowing exactly its own rumour.
        self._node_counts = np.ones((self.trials, n), dtype=np.int64)
        # A row is "full" when it holds all n rumours; with n == 1 every row
        # (and therefore every trial) is complete from the start.
        self._full_rows = np.full(self.trials, n if n == 1 else 0, dtype=np.int64)

    def _select_rows(self, keep: np.ndarray) -> None:
        self._words = np.ascontiguousarray(self._words[keep])
        self._node_counts = np.ascontiguousarray(self._node_counts[keep])
        self._full_rows = self._full_rows[keep].copy()

    def merge_flat(self, sender_flat: np.ndarray, receiver_flat: np.ndarray) -> None:
        if receiver_flat.size == 0:
            return
        flat = self._words.reshape(self.trials * self.n, -1)
        payloads = flat[sender_flat]
        flat[receiver_flat] |= payloads
        # Incremental completion tracking: re-popcount only the rows this
        # merge touched (receivers are unique by the merge contract).
        new_counts = popcount(flat[receiver_flat]).sum(axis=-1, dtype=np.int64)
        counts_flat = self._node_counts.reshape(-1)
        newly_full = receiver_flat[
            (new_counts == self.n) & (counts_flat[receiver_flat] != self.n)
        ]
        counts_flat[receiver_flat] = new_counts
        if newly_full.size:
            self._full_rows += np.bincount(
                newly_full // self.n, minlength=self.trials
            )

    def per_node_counts(self) -> np.ndarray:
        return self._node_counts.copy()

    def complete(self) -> np.ndarray:
        return self._full_rows == self.n

    def column(self, rumour: int) -> np.ndarray:
        rumour = int(rumour)
        word = self._words[:, :, rumour >> 6]
        return ((word >> np.uint64(rumour & 63)) & np.uint64(1)).astype(bool)

    def as_dense(self) -> np.ndarray:
        return unpack_bool_rows(self._words, self.n)


# --------------------------------------------------------------------------- #
# Transmit frontiers
# --------------------------------------------------------------------------- #
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
class QuotaFrontier(abc.ABC):
    """Per-phase transmission quotas (the Decay frontier).

    :meth:`begin_phase` installs one quota per participating node (values in
    trial-major ascending node-id order — the order the phase draws are
    made in); :meth:`transmitters` yields the sorted flat ids with
    ``quota > within`` in running trials.  Quotas are monotone in ``within``
    within a phase, which is what lets the sparse backend prune its pool as
    the phase plays out.
    """

    __slots__ = ("trials", "n")

    def __init__(self, trials: int, n: int):
        self.trials = int(trials)
        self.n = int(n)

    def select_rows(self, keep: np.ndarray) -> None:
        """Shrink to the trials where ``keep`` is True (compaction repack)."""
        keep = np.asarray(keep, dtype=bool)
        self.trials = int(keep.sum())
        self._select_rows(keep)

    @abc.abstractmethod
    def _select_rows(self, keep: np.ndarray) -> None:
        """Backend hook: repack per-trial state down to ``keep`` rows."""

    @abc.abstractmethod
    def begin_phase(self, participating: np.ndarray, values: np.ndarray) -> None:
        """Install quotas: ``participating`` is ``(R, n)`` bool, ``values``
        one quota per ``True`` cell in trial-major ascending order."""

    @abc.abstractmethod
    def transmitters(self, within: int, running: np.ndarray) -> np.ndarray:
        """Sorted flat ids with remaining quota ``> within`` in running trials."""


class DenseQuotaFrontier(QuotaFrontier):
    """Quotas in a dense ``(R, n)`` array; one mask comparison per round."""

    __slots__ = ("_quota",)

    def __init__(self, trials: int, n: int):
        super().__init__(trials, n)
        self._quota = np.zeros((self.trials, self.n), dtype=np.int64)

    def _select_rows(self, keep: np.ndarray) -> None:
        self._quota = np.ascontiguousarray(self._quota[keep])

    def begin_phase(self, participating: np.ndarray, values: np.ndarray) -> None:
        quota = np.zeros((self.trials, self.n), dtype=np.int64)
        quota[participating] = values
        self._quota = quota

    def transmitters(self, within: int, running: np.ndarray) -> np.ndarray:
        mask = self._quota > within
        if not running.all():
            mask &= running[:, None]
        return np.flatnonzero(mask.reshape(-1))

    def quota_matrix(self) -> np.ndarray:
        """The dense quota matrix (diagnostics)."""
        return self._quota


class SparseQuotaFrontier(QuotaFrontier):
    """Quotas as a (sorted flat id, value) pool pruned as the phase decays.

    A Decay quota is ``min(Geometric(1/2), k)``, so the surviving pool
    halves every round of the phase; per-round cost is ``O(|pool|)`` and
    the tail rounds of a phase — the majority, at ``k = 2 log2 n`` rounds
    per phase — touch almost nothing, where a dense comparison keeps paying
    ``O(R * n)``.
    """

    __slots__ = ("_ids", "_values")

    def __init__(self, trials: int, n: int):
        super().__init__(trials, n)
        self._ids = np.empty(0, dtype=np.int64)
        self._values = np.empty(0, dtype=np.int64)

    def _select_rows(self, keep: np.ndarray) -> None:
        alive, new_ids = _remap_flat_pool(self._ids, keep, self.n)
        self._ids = new_ids
        self._values = self._values[alive]

    def begin_phase(self, participating: np.ndarray, values: np.ndarray) -> None:
        # flatnonzero of the trial-major mask is exactly the draw order.
        self._ids = np.flatnonzero(np.asarray(participating).reshape(-1))
        self._values = np.asarray(values, dtype=np.int64)

    def transmitters(self, within: int, running: np.ndarray) -> np.ndarray:
        alive = self._values > within
        if not alive.all():
            # Quotas only ever compare against growing `within`, so dropping
            # exhausted entries now can never change a later round.
            self._ids = self._ids[alive]
            self._values = self._values[alive]
        out = self._ids
        if not running.all():
            out = out[running[out // self.n]]
        return out


class BudgetFrontier(abc.ABC):
    """Admitted nodes each holding a transmission budget (flooding frontier).

    A node transmits every round its trial is running until its budget is
    exhausted, then leaves the frontier for good.
    """

    __slots__ = ("trials", "n")

    def __init__(self, trials: int, n: int):
        self.trials = int(trials)
        self.n = int(n)

    def select_rows(self, keep: np.ndarray) -> None:
        """Shrink to the trials where ``keep`` is True (compaction repack)."""
        keep = np.asarray(keep, dtype=bool)
        self.trials = int(keep.sum())
        self._select_rows(keep)

    @abc.abstractmethod
    def _select_rows(self, keep: np.ndarray) -> None:
        """Backend hook: repack per-trial state down to ``keep`` rows."""

    @abc.abstractmethod
    def admit(self, flat_ids: np.ndarray, budget: int) -> None:
        """Admit (unique, never-before-admitted) flat ids with this budget.

        Input order does not matter; backends keep their own order.
        """

    @abc.abstractmethod
    def transmitters(self, running: np.ndarray) -> np.ndarray:
        """Sorted flat ids transmitting this round (their budgets decrement;
        exhausted nodes are evicted)."""

    @abc.abstractmethod
    def counts(self) -> np.ndarray:
        """Per-trial number of nodes still holding budget.

        A trial with zero holders is *quiescent*: nobody transmits, so
        nobody new is ever informed and nobody is ever re-admitted — the
        engines use this to retire deadlocked flooding trials early.
        """


class DenseBudgetFrontier(BudgetFrontier):
    """Budgets in a dense ``(R * n,)`` array; one mask comparison per round."""

    __slots__ = ("_remaining",)

    def __init__(self, trials: int, n: int):
        super().__init__(trials, n)
        self._remaining = np.zeros((self.trials, self.n), dtype=np.int64)

    def _select_rows(self, keep: np.ndarray) -> None:
        self._remaining = np.ascontiguousarray(self._remaining[keep])

    def admit(self, flat_ids: np.ndarray, budget: int) -> None:
        flat_ids = np.asarray(flat_ids, dtype=np.int64)
        if flat_ids.size:
            self._remaining.reshape(-1)[flat_ids] = int(budget)

    def transmitters(self, running: np.ndarray) -> np.ndarray:
        mask = self._remaining > 0
        if not running.all():
            mask &= running[:, None]
        out = np.flatnonzero(mask.reshape(-1))
        if out.size:
            self._remaining.reshape(-1)[out] -= 1
        return out

    def counts(self) -> np.ndarray:
        return (self._remaining > 0).sum(axis=1)


class SparseBudgetFrontier(BudgetFrontier):
    """Budgets as a sorted (flat id, remaining) pool.

    Per-round cost is ``O(|pool|)``; a flooded-out node costs nothing after
    eviction, where the dense mask keeps scanning all ``R * n`` cells.
    """

    __slots__ = ("_ids", "_remaining")

    def __init__(self, trials: int, n: int):
        super().__init__(trials, n)
        self._ids = np.empty(0, dtype=np.int64)
        self._remaining = np.empty(0, dtype=np.int64)

    def _select_rows(self, keep: np.ndarray) -> None:
        alive, new_ids = _remap_flat_pool(self._ids, keep, self.n)
        self._ids = new_ids
        self._remaining = self._remaining[alive]

    def admit(self, flat_ids: np.ndarray, budget: int) -> None:
        flat_ids = np.asarray(flat_ids, dtype=np.int64)
        if flat_ids.size == 0:
            return
        merged = np.concatenate([self._ids, np.sort(flat_ids)])
        remaining = np.concatenate(
            [self._remaining, np.full(flat_ids.size, int(budget), dtype=np.int64)]
        )
        order = np.argsort(merged, kind="stable")
        self._ids = merged[order]
        self._remaining = remaining[order]

    def transmitters(self, running: np.ndarray) -> np.ndarray:
        if self._ids.size == 0:
            return self._ids
        if running.all():
            out = self._ids.copy()
            self._remaining -= 1
        else:
            live = running[self._ids // self.n]
            out = self._ids[live]
            self._remaining[live] -= 1
        exhausted = self._remaining == 0
        if exhausted.any():
            keep = ~exhausted
            self._ids = self._ids[keep]
            self._remaining = self._remaining[keep]
        return out

    def counts(self) -> np.ndarray:
        return np.bincount(self._ids // self.n, minlength=self.trials)


# --------------------------------------------------------------------------- #
# Kernel: backend bundle + selection heuristic
# --------------------------------------------------------------------------- #
#: Dense knowledge tensors above this many bool cells (~128 MiB) switch the
#: auto heuristic to the bitset packing.
_DENSE_KNOWLEDGE_CEILING = 1 << 27

#: Frontier protocols switch to sparse pools once the per-round dense state
#: work (``R * n`` cells) clears this floor; below it the pool bookkeeping
#: costs more than the mask comparison it replaces.
_SPARSE_FRONTIER_FLOOR = 1 << 16


def select_backend(
    trials: int,
    n: int,
    *,
    profile: str = "plain",
    density: Optional[float] = None,
) -> str:
    """Pick a concrete backend for a ``(R, n, density)`` workload.

    ``profile`` is the protocol's declared state shape:

    * ``"knowledge"`` (gossip) — memory-bound by the ``(R, n, n)`` tensor:
      pack to bitset words once the dense tensor would clear ~128 MiB.
    * ``"frontier"`` (Decay, deterministic flooding) — bound by per-round
      frontier bookkeeping: use sparse index pools once the dense mask work
      ``R * n`` clears the floor.  Denser graphs inform (and therefore
      re-fill the frontier) faster, so the bar doubles above 10% density.
    * anything else — dense boolean state, the reference representation.
    """
    trials, n = int(trials), int(n)
    if profile == "knowledge":
        return "bitset" if trials * n * n >= _DENSE_KNOWLEDGE_CEILING else "dense"
    if profile == "frontier":
        floor = _SPARSE_FRONTIER_FLOOR
        if density is not None and density > 0.1:
            floor *= 2
        return "sparse" if trials * n >= floor else "dense"
    return "dense"


@dataclass(frozen=True)
class NodeSetKernel:
    """A resolved backend bundle: one factory per state kind.

    Not every backend specialises every state kind — the mapping is:

    =========== ============= ============= ==============
    backend     membership    knowledge     frontiers
    =========== ============= ============= ==============
    ``dense``   dense mask    dense tensor  dense arrays
    ``bitset``  packed words  packed words  dense arrays
    ``sparse``  dense mask    packed words  index pools
    =========== ============= ============= ==============

    (Sparse membership/knowledge would not help: membership is consumed as
    dense masks by transmit rules and the collision listener filter, and
    gossip knowledge saturates — the packed tensor is the compact choice.)
    """

    backend: str

    def __post_init__(self) -> None:
        if self.backend not in ("dense", "bitset", "sparse"):
            raise ValueError(
                f"backend must be 'dense', 'bitset' or 'sparse', "
                f"got {self.backend!r} (resolve 'auto' via resolve_kernel)"
            )

    def node_set(self, trials: int, n: int) -> NodeSetState:
        """A membership set (e.g. a broadcast's informed set)."""
        if self.backend == "bitset":
            return BitsetNodeSet(trials, n)
        return DenseNodeSet(trials, n)

    def knowledge(self, trials: int, n: int) -> KnowledgeState:
        """A gossip rumour-knowledge tensor."""
        if self.backend == "dense":
            return DenseKnowledge(trials, n)
        return BitsetKnowledge(trials, n)

    def quota_frontier(self, trials: int, n: int) -> QuotaFrontier:
        """A per-phase quota frontier (Decay)."""
        if self.backend == "sparse":
            return SparseQuotaFrontier(trials, n)
        return DenseQuotaFrontier(trials, n)

    def budget_frontier(self, trials: int, n: int) -> BudgetFrontier:
        """A per-node transmission-budget frontier (deterministic flooding)."""
        if self.backend == "sparse":
            return SparseBudgetFrontier(trials, n)
        return DenseBudgetFrontier(trials, n)


def resolve_kernel(
    state_backend: str,
    trials: int,
    n: int,
    *,
    profile: str = "plain",
    density: Optional[float] = None,
) -> NodeSetKernel:
    """Resolve a ``state_backend`` value into a concrete kernel."""
    if state_backend not in STATE_BACKENDS:
        known = ", ".join(STATE_BACKENDS)
        raise ValueError(
            f"unknown state backend {state_backend!r}; known: {known}"
        )
    requested = state_backend
    if state_backend == "auto":
        state_backend = select_backend(trials, n, profile=profile, density=density)
    if telemetry.enabled():
        telemetry.counter_inc(f"nodesets.backend.{state_backend}")
        if requested == "auto":
            telemetry.counter_inc("nodesets.auto_selected")
    return NodeSetKernel(backend=state_backend)
