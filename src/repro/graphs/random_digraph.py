"""Directed Erdős–Rényi random graphs ``G(n, p)``.

The paper (Section 1.2) uses the *directed* version of the standard
Erdős–Rényi model: each ordered pair ``(u, v)`` with ``u != v`` is an edge
independently with probability ``p``; ``d = n p`` is the expected in- and
out-degree.  The regime of interest is ``p > delta * log n / n`` for a large
constant ``delta``, which makes the graph strongly connected with diameter
``ceil(log n / log d)`` w.h.p. (Lemma 3.1).

Sampling is sparse: instead of flipping ``n^2`` coins we draw, for each
source block, the number of out-edges from a binomial and then sample the
targets without replacement — O(m) work and memory.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro._util.rng import SeedLike, as_generator
from repro._util.validation import check_positive_int, check_probability
from repro.radio.network import RadioNetwork

__all__ = [
    "random_digraph",
    "random_undirected_radio_network",
    "connectivity_threshold_probability",
]


def random_digraph(
    n: int,
    p: float,
    *,
    rng: SeedLike = None,
    name: Optional[str] = None,
) -> RadioNetwork:
    """Sample a directed ``G(n, p)`` radio network.

    Parameters
    ----------
    n:
        Number of nodes.
    p:
        Independent probability of each ordered pair ``(u, v)``, ``u != v``,
        being an edge.
    rng:
        Seed or generator.
    name:
        Network name; defaults to ``"gnp(n=..., p=...)"``.

    Returns
    -------
    RadioNetwork
    """
    n = check_positive_int(n, "n")
    p = check_probability(p, "p")
    generator = as_generator(rng)
    if name is None:
        name = f"gnp(n={n}, p={p:.6g})"

    if n == 1 or p == 0.0:
        return RadioNetwork(n, np.empty((0, 2), dtype=np.int64), name=name)
    if p == 1.0:
        from repro.graphs.structured import complete_network

        return complete_network(n).with_name(name)

    # Per-source binomial counts, then sample distinct targets per source —
    # fully array-based: draw every edge's target uniformly at once and
    # reject within-source duplicates until each source's draw is distinct.
    counts = generator.binomial(n - 1, p, size=n)
    sources = np.repeat(np.arange(n, dtype=np.int64), counts)
    draws = _distinct_targets(n, counts, sources, generator)
    # Draws live in {0..n-2}; shift to skip the source itself.  The shift is
    # monotone within a source, so the rows stay sorted: the edges are
    # distinct, loop-free and in range, and already form the out-CSR.
    targets = (draws + (draws >= sources)).astype(np.int32)
    return RadioNetwork._from_csr(n, counts, targets, name=name)


#: Rejection rounds before falling back to per-source distinct sampling.
_MAX_REJECTION_ROUNDS = 64


def _distinct_targets(
    n: int, counts: np.ndarray, sources: np.ndarray, generator: np.random.Generator
) -> np.ndarray:
    """Distinct values in ``{0..n-2}`` per source block, sorted within each
    block, without Python loops.

    All edges draw uniformly in one vectorised call; within-source duplicates
    are redrawn until none remain.  Each draw is packed with its source into
    the key ``source (n-1) + draw``, so source ``u``'s keys fill the range
    ``[u (n-1), (u+1)(n-1))``: sorting keeps every block in place, two keys
    clash only inside one block, and ``keys - offsets`` decodes them.

    * **First pass.**  One in-place value sort of all keys (no permutation)
      finds the clashing keys; ``key // (n-1)`` maps them to their source
      blocks.
    * **Rescans.**  Only the keys of blocks that hold a clash are
      stable-argsorted (:func:`_rescan_blocks`) and written back into the
      sorted array; the redraw positions are all but the first copy of each
      repeated key, in that stable order.  Each later round rescans only the
      blocks whose entries were just redrawn, since no other block changed.

    The redraws are those of a stable argsort of *all* keys every round:
    blocks are contiguous key ranges, so the stable order of the rescanned
    blocks is the global stable order restricted to them, and blocks left
    out hold no clash.  The redraw positions come out in the same order and
    ``generator`` receives the same calls.  In the sparse regimes this
    repository simulates (``k_u ~ d << n``) the expected number of clashes
    is ``O(k² / n)`` per source, so a few rounds over a shrinking set of
    blocks finish the job.  Sources whose blocks still clash after
    ``_MAX_REJECTION_ROUNDS`` (only plausible for ``p`` near 1, where almost
    every slot is taken) fall back, in ascending order, to
    ``generator.choice(..., replace=False)`` for just those blocks, and the
    keys are sorted once more.
    """
    total = int(counts.sum())
    targets = generator.integers(0, n - 1, size=total)
    if total == 0:
        return targets
    offsets = sources * np.int64(n - 1)
    sorted_keys = offsets + targets
    sorted_keys.sort()
    clashes = sorted_keys[1:][sorted_keys[1:] == sorted_keys[:-1]]
    if clashes.size == 0:
        return sorted_keys - offsets
    block_ends = np.cumsum(counts)
    blocks = np.unique(clashes // np.int64(n - 1))

    def rescan():
        # Redraw positions among ``blocks``; their sorted keys go back in place.
        lengths = counts[blocks]
        ends = np.cumsum(lengths)
        positions = np.arange(ends[-1]) + np.repeat(block_ends[blocks] - ends, lengths)
        return _rescan_blocks(sorted_keys, positions, offsets[positions] + targets[positions])

    for _ in range(_MAX_REJECTION_ROUNDS):
        redraw = rescan()
        if redraw.size == 0:
            return sorted_keys - offsets
        targets[redraw] = generator.integers(0, n - 1, size=redraw.size)
        blocks = np.unique(sources[redraw])
    # Fallback: per-source distinct sampling for the (rare) stubborn blocks.
    for u in np.unique(sources[rescan()]):
        k = int(counts[u])
        targets[block_ends[u] - k : block_ends[u]] = generator.choice(
            n - 1, size=k, replace=False
        )
    return np.sort(offsets + targets) - offsets


def _rescan_blocks(
    sorted_keys: np.ndarray, positions: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    """Stable-sort ``keys``, the keys at ``positions`` (whole source blocks,
    ascending), and write them back there in ``sorted_keys``.  Returns the
    positions of all but the first copy of each repeated key, in that sorted
    order."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    sorted_keys[positions] = keys
    return positions[order[1:][keys[1:] == keys[:-1]]]


def random_undirected_radio_network(
    n: int,
    p: float,
    *,
    rng: SeedLike = None,
    name: Optional[str] = None,
) -> RadioNetwork:
    """Sample an undirected ``G(n, p)`` and return the symmetric radio network.

    Each unordered pair is an edge with probability ``p``; both directions
    are added (equal communication ranges).
    """
    n = check_positive_int(n, "n")
    p = check_probability(p, "p")
    generator = as_generator(rng)
    if name is None:
        name = f"gnp-undirected(n={n}, p={p:.6g})"
    if n == 1 or p == 0.0:
        return RadioNetwork(n, np.empty((0, 2), dtype=np.int64), name=name)

    # Sample the upper triangle sparsely by geometric skipping.
    edges = []
    total_pairs = n * (n - 1) // 2
    if p >= 1.0:
        idx = np.arange(total_pairs)
    else:
        idx = _sample_bernoulli_indices(total_pairs, p, generator)
    if idx.size:
        rows, cols = _triu_unrank(idx, n)
        fwd = np.column_stack([rows, cols])
        bwd = np.column_stack([cols, rows])
        edges = np.vstack([fwd, bwd])
    else:
        edges = np.empty((0, 2), dtype=np.int64)
    return RadioNetwork(n, edges, name=name)


def connectivity_threshold_probability(n: int, delta: float = 4.0) -> float:
    """``p = delta * log n / n`` — the paper's "sufficiently large constant" regime.

    For ``delta`` comfortably above 1 the directed ``G(n, p)`` is strongly
    connected w.h.p.; the paper assumes ``p > delta log n / n`` for a
    sufficiently large constant ``delta`` throughout Sections 2–3.  The
    default ``delta = 4`` keeps small experiment sizes (n of a few hundred)
    reliably connected.  The value is clamped to 1.0 for tiny ``n``.
    """
    n = check_positive_int(n, "n", minimum=2)
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return min(1.0, delta * math.log2(n) / n)


# --------------------------------------------------------------------------- #
# Sparse Bernoulli-index sampling helpers
# --------------------------------------------------------------------------- #
def _sample_bernoulli_indices(
    total: int, p: float, generator: np.random.Generator
) -> np.ndarray:
    """Indices of successes among ``total`` independent Bernoulli(p) trials.

    Uses geometric skip sampling so the cost is O(number of successes).
    """
    if total <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    # Expected successes + slack; loop in blocks in the (rare) case of underdraw.
    out = []
    position = -1
    log_q = math.log1p(-p)
    expected = int(total * p)
    block = max(1024, int(1.2 * expected) + 16)
    while position < total:
        draws = generator.random(block)
        skips = np.floor(np.log(draws) / log_q).astype(np.int64) + 1
        positions = position + np.cumsum(skips)
        inside = positions < total
        out.append(positions[inside])
        if not inside.all():
            break
        position = int(positions[-1])
    if not out:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(out)


def _triu_unrank(idx: np.ndarray, n: int) -> tuple:
    """Map linear indices over the strict upper triangle of an n x n matrix to (row, col)."""
    # Row r owns (n-1-r) entries; find r by inverting the cumulative count.
    counts = np.arange(n - 1, 0, -1, dtype=np.int64)
    ends = np.cumsum(counts)
    rows = np.searchsorted(ends, idx, side="right")
    starts = ends - counts
    cols = rows + 1 + (idx - starts[rows])
    return rows.astype(np.int64), cols.astype(np.int64)
