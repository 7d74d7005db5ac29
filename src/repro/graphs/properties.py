"""Graph-property helpers used by the experiments and tests.

Everything here works on the directed :class:`RadioNetwork` CSR arrays
directly (no networkx in the hot path).  :func:`bfs_distances` and
:func:`source_eccentricity` are the single-source API.
:func:`diameter_estimate` runs one bit-parallel BFS from all of its sources
at once — every source for small graphs (exact), a random sample plus node 0
for large ones — with each node holding a ``uint64`` bitset over the sources,
so its cost is one pass over the in-edges per BFS level, not one Python-level
BFS per source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro._util.rng import SeedLike, as_generator
from repro._util.validation import check_node_index
from repro.radio.network import RadioNetwork

__all__ = [
    "bfs_distances",
    "bfs_layers",
    "source_eccentricity",
    "reachable_from",
    "is_strongly_connected",
    "diameter_estimate",
    "degree_statistics",
    "DegreeStatistics",
]


def bfs_distances(network: RadioNetwork, source: int) -> np.ndarray:
    """Directed BFS distances from ``source`` (-1 for unreachable nodes)."""
    n = network.n
    source = check_node_index(source, n, "source")
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    indptr = network.out_indptr
    indices = network.out_indices
    level = 0
    while frontier.size:
        level += 1
        starts = indptr[frontier]
        ends = indptr[frontier + 1]
        lengths = ends - starts
        total = int(lengths.sum())
        if total == 0:
            break
        origin = np.repeat(starts, lengths)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(lengths) - lengths, lengths
        )
        neighbours = indices[origin + within].astype(np.int64, copy=False)
        fresh = np.unique(neighbours[dist[neighbours] < 0])
        if fresh.size == 0:
            break
        dist[fresh] = level
        frontier = fresh
    return dist


def bfs_layers(network: RadioNetwork, source: int) -> List[np.ndarray]:
    """Nodes grouped by BFS distance from ``source`` (unreachable nodes omitted)."""
    dist = bfs_distances(network, source)
    max_dist = int(dist.max())
    return [np.flatnonzero(dist == level) for level in range(max_dist + 1)]


def source_eccentricity(network: RadioNetwork, source: int) -> int:
    """Largest finite BFS distance from ``source``.

    Raises ``ValueError`` when some node is unreachable from ``source`` —
    broadcasting from ``source`` is then impossible, which the caller should
    treat explicitly rather than silently.
    """
    dist = bfs_distances(network, source)
    if np.any(dist < 0):
        raise _unreachable_error(int((dist < 0).sum()), source)
    return int(dist.max())


def _unreachable_error(unreachable: int, source: int) -> ValueError:
    return ValueError(
        f"{unreachable} nodes are unreachable from source {source}; "
        "broadcast cannot complete on this network"
    )


def reachable_from(network: RadioNetwork, source: int) -> np.ndarray:
    """Boolean mask of nodes reachable from ``source`` (including itself)."""
    return bfs_distances(network, source) >= 0


def is_strongly_connected(network: RadioNetwork) -> bool:
    """True iff every node reaches every other node (directed)."""
    if network.n <= 1:
        return True
    if not reachable_from(network, 0).all():
        return False
    return bool((bfs_distances(network.reverse(), 0) >= 0).all())


def diameter_estimate(
    network: RadioNetwork,
    *,
    exact_threshold: int = 600,
    samples: int = 16,
    rng: SeedLike = None,
) -> int:
    """Directed diameter (exact for small graphs, sampled lower bound otherwise).

    For ``n <= exact_threshold`` the sources are all nodes (exact).  For
    larger graphs they are ``samples - 1`` random nodes plus node 0, and the
    result — the largest eccentricity seen — is a lower bound that is exact
    w.h.p. for the highly symmetric families used in the experiments.

    Raises ``ValueError`` if a source cannot reach every node, naming the
    smallest such source (as :func:`source_eccentricity` would).
    """
    n = network.n
    if n <= 1:
        return 0
    if n <= exact_threshold:
        sources = np.arange(n, dtype=np.int64)
    else:
        generator = as_generator(rng)
        extra = generator.integers(0, n, size=max(0, samples - 1))
        sources = np.unique(np.concatenate([[0], extra]))
    return _max_eccentricity(network, sources)


def _max_eccentricity(network: RadioNetwork, sources: np.ndarray) -> int:
    """Largest eccentricity among the ascending ``sources``, by one BFS from all.

    ``reached[v]`` is a bitset over the sources (bit ``i`` of word ``i // 64``
    for ``sources[i]``) and ``frontier[v]`` holds the bits ``v`` gained at the
    last level.  Each level ORs the frontier words of every node's
    in-neighbours.  A source's eccentricity is the last level at which its
    bit was new anywhere, so the largest is the last level at which any bit
    was.
    """
    n, count = network.n, sources.size
    bit_word = np.arange(count) // 64
    bit = np.left_shift(np.uint64(1), (np.arange(count) % 64).astype(np.uint64))
    reached = np.zeros((n, -(-count // 64)), dtype=np.uint64)
    reached[sources, bit_word] = bit
    frontier = reached.copy()
    in_indptr, in_indices = network.in_indptr, network.in_indices
    # reduceat over an empty row would return the next row's first element,
    # so only rows with in-edges take part.
    listens = np.flatnonzero(np.diff(in_indptr))
    starts = in_indptr[listens]
    depth = 0
    while listens.size:
        fresh = _or_in_neighbours(frontier, in_indices, starts) & ~reached[listens]
        if not fresh.any():
            break
        depth += 1
        reached[listens] |= fresh
        frontier[:] = 0
        frontier[listens] = fresh
    complete = np.bitwise_and.reduce(reached, axis=0)
    missing = (complete[bit_word] & bit) == 0
    if missing.any():
        i = int(np.argmax(missing))
        seen = int(np.count_nonzero(reached[:, bit_word[i]] & bit[i]))
        raise _unreachable_error(n - seen, int(sources[i]))
    return depth


def _or_in_neighbours(
    frontier: np.ndarray, in_indices: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """One BFS level: each listening row's OR of its in-neighbours' words."""
    return np.bitwise_or.reduceat(frontier[in_indices], starts, axis=0)


@dataclass(frozen=True)
class DegreeStatistics:
    """Summary of in/out degree distributions."""

    mean_out: float
    mean_in: float
    min_out: int
    max_out: int
    min_in: int
    max_in: int
    std_out: float
    std_in: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "mean_out": self.mean_out,
            "mean_in": self.mean_in,
            "min_out": self.min_out,
            "max_out": self.max_out,
            "min_in": self.min_in,
            "max_in": self.max_in,
            "std_out": self.std_out,
            "std_in": self.std_in,
        }


def degree_statistics(network: RadioNetwork) -> DegreeStatistics:
    """Compute degree summary statistics for ``network``."""
    out_deg = network.out_degrees()
    in_deg = network.in_degrees()
    return DegreeStatistics(
        mean_out=float(out_deg.mean()) if out_deg.size else 0.0,
        mean_in=float(in_deg.mean()) if in_deg.size else 0.0,
        min_out=int(out_deg.min()) if out_deg.size else 0,
        max_out=int(out_deg.max()) if out_deg.size else 0,
        min_in=int(in_deg.min()) if in_deg.size else 0,
        max_in=int(in_deg.max()) if in_deg.size else 0,
        std_out=float(out_deg.std()) if out_deg.size else 0.0,
        std_in=float(in_deg.std()) if in_deg.size else 0.0,
    )
