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

All three share one numpy pair finder, :func:`_pairs_within`: points are
bucketed into x-strips at least as wide as the largest radius and sorted by
(strip, y), so each point's candidates are three contiguous runs — strips
``s - 1 .. s + 1`` over a y-window — and construction stays near-linear for
the radii used here.  A pair is kept iff ``dx*dx + dy*dy <= reach**2``, the
same test and arithmetic as a kd-tree query, so the edge sets match one
exactly.  The pairs come out sorted by (source, target), so the builders
hand them to the trusted :meth:`RadioNetwork._from_csr` without the
validating constructor's dedup sort.
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
    n = check_positive_int(positions.shape[0], "n")
    return _network_from_pairs(n, positions, np.full(n, radius), name)


def _pairs_within(
    positions: np.ndarray, reach: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Every ordered pair ``(u, v)``, ``u != v``, with ``u`` in ``v``'s reach.

    Returns ``(sources, targets)`` sorted by ``(source, target)``: the
    out-CSR of the network, ready for :meth:`RadioNetwork._from_csr`.

    ``u`` is in reach when ``dx*dx + dy*dy <= reach[v] ** 2``.  That test
    alone decides; the strips and y-windows only gather candidates, so they
    are padded by a margin far above any rounding of the coordinates.
    """
    n = positions.shape[0]
    x, y = positions[:, 0], positions[:, 1]
    reach_max = float(reach.max())
    reach_max += 1e-9 * (reach_max + float(np.abs(positions).max()))
    # A floor on the width keeps the strip count (and its key) bounded.
    width = max(reach_max, 1e-6 * (float(x.max()) - float(x.min())))
    strip = np.floor((x - x.min()) / width).astype(np.int64)
    y_sorted = np.sort(y)
    y_rank = np.empty(n, dtype=np.int64)
    y_rank[np.argsort(y, kind="stable")] = np.arange(n)
    # Sorted (strip, y) keys: a strip's points in a y-window form one run.
    key = strip * (n + 1) + y_rank
    order = np.argsort(key)
    key = key[order]
    low = np.searchsorted(y_sorted, y - reach_max, side="left")
    high = np.searchsorted(y_sorted, y + reach_max, side="right")
    offsets = (strip[:, None] + np.arange(-1, 2)) * (n + 1)
    first = np.searchsorted(key, offsets + low[:, None]).ravel()
    last = np.searchsorted(key, offsets + high[:, None]).ravel()
    counts = last - first
    speaker = np.repeat(np.repeat(np.arange(n), 3), counts)
    run_start = np.repeat(first - (np.cumsum(counts) - counts), counts)
    listener = order[run_start + np.arange(int(counts.sum()))]
    dx = x[speaker] - x[listener]
    dy = y[speaker] - y[listener]
    keep = (dx * dx + dy * dy <= reach[listener] ** 2) & (speaker != listener)
    # The pairs come out grouped by speaker; one sort of the packed keys
    # orders each speaker's listeners too.
    key = speaker[keep] * n + listener[keep]
    key.sort()
    return key // n, key % n


def _network_from_pairs(
    n: int, positions: np.ndarray, reach: np.ndarray, name: str
) -> RadioNetwork:
    """The network of :func:`_pairs_within`, through the trusted CSR constructor."""
    sources, targets = _pairs_within(positions, reach)
    return RadioNetwork._from_csr(
        n, np.bincount(sources, minlength=n), targets.astype(np.int32), name=name
    )


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

    network = _network_from_pairs(n, positions, radii, name)
    if return_positions:
        return network, positions
    return network
