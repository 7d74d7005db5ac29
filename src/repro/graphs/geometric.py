"""Random geometric radio networks.

Section 5 of the paper names random geometric graphs as the natural next
model for AdHoc networks ("the Erdős–Rényi model … appears to be somewhat
unrealistic for practical AdHoc networks.  We can consider other alternative
models for random graphs, such as the random geometric graphs").  This module
implements that extension:

* :func:`geometric_digraph` — ``n`` nodes uniform in the unit square, an edge
  ``(u, v)`` whenever ``dist(u, v) <= radius`` (symmetric unit-disk model);
* :func:`heterogeneous_geometric_digraph` — per-node listening radii, which
  produces genuinely **asymmetric** links exactly as the paper's model allows
  ("one device may be able to listen to messages sent out by a node in its
  communication range, but not vice-versa");
* :func:`geometric_digraph_from_positions` — build from given positions
  (used by the mobility model in :mod:`repro.radio.dynamics`).

Distance computations use a cKDTree so construction is ``O(n log n + m)``;
``scipy.spatial`` is imported on first use, not with the package.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro._util.rng import SeedLike, as_generator
from repro._util.validation import check_positive, check_positive_int
from repro.radio.network import RadioNetwork

__all__ = [
    "geometric_digraph",
    "geometric_digraph_from_positions",
    "heterogeneous_geometric_digraph",
    "connectivity_radius",
]


def connectivity_radius(n: int, safety: float = 1.5) -> float:
    """A radius that keeps a uniform unit-square geometric graph connected w.h.p.

    The classical threshold is ``r = sqrt(log n / (pi n))``; ``safety`` scales
    it up so small experiment sizes stay connected reliably.
    """
    n = check_positive_int(n, "n", minimum=2)
    return float(safety * np.sqrt(np.log(n) / (np.pi * n)))


def geometric_digraph(
    n: int,
    radius: float,
    *,
    rng: SeedLike = None,
    name: Optional[str] = None,
    return_positions: bool = False,
):
    """Uniform random geometric radio network on the unit square.

    Every pair at distance at most ``radius`` is connected in both directions
    (all devices share the same range).

    Parameters
    ----------
    n, radius:
        Node count and shared communication radius.
    return_positions:
        When True, return ``(network, positions)``.
    """
    n = check_positive_int(n, "n")
    radius = check_positive(radius, "radius")
    generator = as_generator(rng)
    positions = generator.random((n, 2))
    if name is None:
        name = f"rgg(n={n}, r={radius:.4g})"
    network = geometric_digraph_from_positions(positions, radius, name=name)
    if return_positions:
        return network, positions
    return network


def geometric_digraph_from_positions(
    positions: np.ndarray,
    radius: float,
    *,
    name: str = "rgg",
) -> RadioNetwork:
    """Symmetric unit-disk network induced by ``positions`` and a shared ``radius``."""
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"positions must have shape (n, 2), got {positions.shape}")
    radius = check_positive(radius, "radius")
    n = positions.shape[0]
    if n == 1:
        return RadioNetwork(1, np.empty((0, 2), dtype=np.int64), name=name)
    from scipy.spatial import cKDTree  # deferred: scipy.spatial is slow to import

    tree = cKDTree(positions)
    pairs = tree.query_pairs(r=radius, output_type="ndarray")
    if pairs.size == 0:
        edges = np.empty((0, 2), dtype=np.int64)
    else:
        edges = np.vstack([pairs, pairs[:, ::-1]]).astype(np.int64)
    return RadioNetwork(n, edges, name=name)


def heterogeneous_geometric_digraph(
    n: int,
    radius_low: float,
    radius_high: float,
    *,
    rng: SeedLike = None,
    name: Optional[str] = None,
    return_positions: bool = False,
):
    """Geometric network with per-node listening radii (asymmetric links).

    Node ``v`` draws a listening radius uniformly from
    ``[radius_low, radius_high]``; an edge ``(u, v)`` exists whenever ``u``
    lies within ``v``'s listening radius.  Because radii differ, ``(u, v)``
    may exist without ``(v, u)`` — the asymmetric situation the paper's model
    explicitly permits (and which rules out acknowledgement-based protocols).
    """
    n = check_positive_int(n, "n")
    radius_low = check_positive(radius_low, "radius_low")
    radius_high = check_positive(radius_high, "radius_high")
    if radius_high < radius_low:
        raise ValueError(
            f"radius_high ({radius_high}) must be >= radius_low ({radius_low})"
        )
    generator = as_generator(rng)
    positions = generator.random((n, 2))
    radii = generator.uniform(radius_low, radius_high, size=n)
    if name is None:
        name = f"rgg-hetero(n={n}, r=[{radius_low:.3g},{radius_high:.3g}])"

    if n == 1:
        network = RadioNetwork(1, np.empty((0, 2), dtype=np.int64), name=name)
        return (network, positions) if return_positions else network

    from scipy.spatial import cKDTree  # deferred: scipy.spatial is slow to import

    tree = cKDTree(positions)
    sources_list = []
    targets_list = []
    # For each listener v, every u within radii[v] can be heard by v: edge (u, v).
    neighbor_lists = tree.query_ball_point(positions, r=radii)
    for v, neighbours in enumerate(neighbor_lists):
        for u in neighbours:
            if u != v:
                sources_list.append(u)
                targets_list.append(v)
    if sources_list:
        edges = np.column_stack(
            [np.asarray(sources_list, dtype=np.int64), np.asarray(targets_list, dtype=np.int64)]
        )
    else:
        edges = np.empty((0, 2), dtype=np.int64)
    network = RadioNetwork(n, edges, name=name)
    if return_positions:
        return network, positions
    return network
