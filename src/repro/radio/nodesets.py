"""Node-set state for the simulation engine: one class per contract.

Every protocol in this repository is a *set dynamic*: broadcasts grow an
informed set, gossip grows per-node rumour sets, Decay and flooding walk a
transmit frontier with per-node quotas or budgets.  This module keeps that
state out of the protocol classes, in one class per state kind:

* :class:`NodeSetState` — ``R`` membership sets, a boolean ``(R, n)`` mask
  with per-trial counts kept incrementally;
* :class:`KnowledgeState` — ``R`` rumour-knowledge relations, ``(R, n)``
  rows of 64-bit words with per-row "full" flags kept incrementally;
* :class:`QuotaFrontier` — per-phase transmission quotas (Decay), an
  ``(R, n)`` integer array;
* :class:`BudgetFrontier` — per-node transmission budgets (deterministic
  flooding), an ``(R, n)`` integer array.

Nodes are addressed by flat id ``trial * n + node``.  Every class supports
``select_rows``, the compaction repack the continuous engine applies to
every per-trial array.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NodeSetState",
    "KnowledgeState",
    "QuotaFrontier",
    "BudgetFrontier",
]


class NodeSetState:
    """``R`` per-trial node sets over flat ids ``trial * n + node``.

    * :meth:`add_flat` returns the not-yet-member subset of its input, in
      input order;
    * :meth:`counts` is maintained incrementally, so reading it is ``O(R)``;
    * :meth:`mask` / :meth:`complement_flat` are live boolean views for the
      transmit rules and the collision listener filter.
    """

    __slots__ = ("trials", "n", "_counts", "_mask", "_flat", "_complement_flat")

    def __init__(self, trials: int, n: int):
        self.trials = int(trials)
        self.n = int(n)
        self._counts = np.zeros(self.trials, dtype=np.int64)
        self._set_mask(np.zeros((self.trials, self.n), dtype=bool))

    def _set_mask(self, mask: np.ndarray) -> None:
        # _flat is a view of _mask and _complement_flat is derived from it,
        # so both are rebuilt whenever the mask array is replaced.
        self._mask = mask
        self._flat = mask.reshape(-1)
        self._complement_flat = ~self._flat

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
        self._set_mask(np.ascontiguousarray(self._mask[keep]))

    def add_flat(self, flat_ids: np.ndarray) -> np.ndarray:
        """Add flat ids; return the newly added subset (input order).

        The ids are unique: a repeated id would be counted twice.  Callers
        pass one round's receivers, each heard from exactly one
        transmitter, so no per-round dedup is paid for.
        """
        flat_ids = np.asarray(flat_ids, dtype=np.int64)
        if flat_ids.size == 0:
            return flat_ids
        newly = flat_ids[~self._flat[flat_ids]]
        if newly.size:
            self._flat[newly] = True
            self._complement_flat[newly] = False
            self._counts += np.bincount(newly // self.n, minlength=self.trials)
        return newly

    def counts(self) -> np.ndarray:
        """Per-trial member counts (live array — copy before mutating)."""
        return self._counts

    def mask(self) -> np.ndarray:
        """Boolean ``(R, n)`` membership matrix (live — do not mutate)."""
        return self._mask

    def complement_flat(self) -> np.ndarray:
        """Boolean ``(R * n,)`` non-membership vector (live — do not mutate)."""
        return self._complement_flat


class KnowledgeState:
    """``R`` per-trial ``(n, n)`` rumour-knowledge relations, bit-packed.

    Row ``(t, v)`` is the set of rumours node ``v`` of trial ``t`` knows;
    every node starts knowing its own rumour, and rows only ever grow (the
    join model).  Each row is stored as ``ceil(n / 64)`` 64-bit words
    (rumour ``u`` is bit ``u % 64`` of word ``u // 64``), so a merge moves an
    eighth of the bytes of a boolean row.  Whether a row is full is kept
    incrementally, so :meth:`complete` reads ``R * n`` flags instead of the
    whole relation.
    """

    __slots__ = ("trials", "n", "_words", "_full_row", "_row_full")

    def __init__(self, trials: int, n: int):
        self.trials = int(trials)
        self.n = int(n)
        nodes = np.arange(self.n)
        words = np.zeros((self.n, _words_for(self.n)), dtype=np.uint64)
        words[nodes, nodes >> 6] = _bits_at(nodes)
        self._words = np.broadcast_to(words, (self.trials,) + words.shape).copy()
        self._full_row = words.sum(axis=0, dtype=np.uint64)  # disjoint bits
        self._row_full = np.full((self.trials, self.n), self.n == 1)

    def select_rows(self, keep: np.ndarray) -> None:
        """Shrink to the trials where ``keep`` is True (compaction repack)."""
        keep = np.asarray(keep, dtype=bool)
        self.trials = int(keep.sum())
        # merge_flat reshapes the arrays, which needs contiguity.
        self._words = np.ascontiguousarray(self._words[keep])
        self._row_full = np.ascontiguousarray(self._row_full[keep])

    def merge_flat(self, sender_flat: np.ndarray, receiver_flat: np.ndarray) -> None:
        """OR each (unique) receiver row with its sender's round-start row."""
        if receiver_flat.size == 0:
            return
        flat = self._words.reshape(self.trials * self.n, -1)
        # Both gathers copy before the scatter, so every merge sees
        # round-start rows.
        merged = np.take(flat, receiver_flat, axis=0)
        merged |= np.take(flat, sender_flat, axis=0)
        # Scatter and compare whole rows as single fixed-size items: numpy's
        # per-row loops over a short word axis cost more than the merge.
        row = np.dtype((np.void, flat.shape[1] * flat.itemsize))
        merged_rows = merged.view(row).reshape(-1)
        flat.view(row).reshape(-1)[receiver_flat] = merged_rows
        self._row_full.reshape(-1)[receiver_flat] = (
            merged_rows == self._full_row.view(row)
        )

    def per_node_counts(self) -> np.ndarray:
        """``(R, n)`` number of rumours each node knows."""
        return _POPCOUNT8[self._words.view(np.uint8)].sum(axis=2, dtype=np.int64)

    def min_counts(self) -> np.ndarray:
        """Per-trial minimum rumour count (the gossip progress metric)."""
        return self.per_node_counts().min(axis=1)

    def complete(self) -> np.ndarray:
        """Per-trial bool vector: every node knows every rumour."""
        return self._row_full.all(axis=1)

    def column(self, rumour: int) -> np.ndarray:
        """``(R, n)`` bool: which nodes know ``rumour``."""
        return (self._words[:, :, rumour >> 6] & _bits_at(rumour)) != 0

    def as_dense(self) -> np.ndarray:
        """The ``(R, n, n)`` bool relation (a copy)."""
        # Little-endian bytes of a word hold its bits in ascending order.
        octets = self._words.astype("<u8", copy=False).view(np.uint8)
        return np.unpackbits(octets, axis=2, count=self.n, bitorder="little").view(bool)


def _words_for(n: int) -> int:
    """64-bit words per packed row of ``n`` bits."""
    return max(1, (n + 63) // 64)


def _bits_at(positions) -> np.ndarray:
    """The single-bit word of each position within its 64-bit word."""
    return np.left_shift(
        np.uint64(1), np.asarray(positions, dtype=np.uint64) & np.uint64(63)
    )


#: Set bits per byte value (a popcount that needs no NumPy 2 ufunc).
_POPCOUNT8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


class QuotaFrontier:
    """Per-phase transmission quotas (the Decay frontier).

    :meth:`begin_phase` installs one quota per participating node (values in
    trial-major ascending node-id order — the order the phase draws are
    made in); :meth:`transmitters` yields the sorted flat ids with
    ``quota > within`` in running trials.
    """

    __slots__ = ("trials", "n", "_quota")

    def __init__(self, trials: int, n: int):
        self.trials = int(trials)
        self.n = int(n)
        self._quota = np.zeros((self.trials, self.n), dtype=np.int64)

    def select_rows(self, keep: np.ndarray) -> None:
        """Shrink to the trials where ``keep`` is True (compaction repack)."""
        keep = np.asarray(keep, dtype=bool)
        self.trials = int(keep.sum())
        self._quota = np.ascontiguousarray(self._quota[keep])

    def begin_phase(self, participating: np.ndarray, values: np.ndarray) -> None:
        """Install quotas: ``participating`` is ``(R, n)`` bool, ``values``
        one quota per ``True`` cell in trial-major ascending order."""
        quota = np.zeros((self.trials, self.n), dtype=np.int64)
        quota[participating] = values
        self._quota = quota

    def transmitters(self, within: int, running: np.ndarray) -> np.ndarray:
        """Sorted flat ids with remaining quota ``> within`` in running trials."""
        mask = self._quota > within
        if not running.all():
            mask &= running[:, None]
        return np.flatnonzero(mask.reshape(-1))


class BudgetFrontier:
    """Admitted nodes each holding a transmission budget (flooding frontier).

    A node transmits every round its trial is running until its budget is
    exhausted, then leaves the frontier for good.
    """

    __slots__ = ("trials", "n", "_remaining")

    def __init__(self, trials: int, n: int):
        self.trials = int(trials)
        self.n = int(n)
        self._remaining = np.zeros((self.trials, self.n), dtype=np.int64)

    def select_rows(self, keep: np.ndarray) -> None:
        """Shrink to the trials where ``keep`` is True (compaction repack)."""
        keep = np.asarray(keep, dtype=bool)
        self.trials = int(keep.sum())
        self._remaining = np.ascontiguousarray(self._remaining[keep])

    def admit(self, flat_ids: np.ndarray, budget: int) -> None:
        """Admit (unique, never-before-admitted) flat ids with this budget."""
        flat_ids = np.asarray(flat_ids, dtype=np.int64)
        if flat_ids.size:
            self._remaining.reshape(-1)[flat_ids] = int(budget)

    def transmitters(self, running: np.ndarray) -> np.ndarray:
        """Sorted flat ids transmitting this round; their budgets decrement."""
        mask = self._remaining > 0
        if not running.all():
            mask &= running[:, None]
        out = np.flatnonzero(mask.reshape(-1))
        if out.size:
            self._remaining.reshape(-1)[out] -= 1
        return out

    def counts(self) -> np.ndarray:
        """Per-trial number of nodes still holding budget.

        A trial with zero holders is *quiescent*: nobody transmits, so
        nobody new is ever informed and nobody is ever re-admitted — the
        engines use this to retire deadlocked flooding trials early.
        """
        return (self._remaining > 0).sum(axis=1)
