"""The :class:`RadioNetwork` digraph container.

A :class:`RadioNetwork` stores a directed graph in compressed-sparse-row
(CSR) form:

* the *out*-adjacency (``u -> set of listeners``), which the simulation
  engine reads to scatter a transmission by ``u`` to everyone who can hear
  it, is built with the network;
* the *in*-adjacency (``v -> set of stations v can hear``), which nothing
  on the simulation path reads, is derived from the out-CSR on first access
  (for analysis: in-neighbourhoods, reverse reachability, …) and cached.

Edge direction follows the paper's Section 1.2: an edge ``(u, v)`` means a
message transmitted by ``u`` may be received by ``v``.  Asymmetric links
(``(u, v)`` present but ``(v, u)`` absent) model devices with different
communication ranges and are fully supported.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro._util.validation import check_node_index, check_positive_int

__all__ = ["RadioNetwork"]


class RadioNetwork:
    """A fixed directed radio network on nodes ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of nodes.
    edges:
        Either a ``(m, 2)`` integer array / sequence of ``(u, v)`` pairs, or a
        pair ``(sources, targets)`` of equal-length integer arrays.  Duplicate
        edges are collapsed; self-loops are rejected (a radio cannot usefully
        transmit to itself and the paper's model excludes them).
    name:
        Optional human-readable name (topology family + parameters); carried
        through traces and experiment results.

    Notes
    -----
    Instances are immutable; all mutating topology operations return new
    networks.  The underlying arrays are exposed read-only for the simulation
    engine.
    """

    __slots__ = (
        "_n",
        "_out_indptr",
        "_out_indices",
        "_in_indptr",
        "_in_indices",
        "_name",
    )

    def __init__(
        self,
        n: int,
        edges: "np.ndarray | Sequence[Tuple[int, int]] | Tuple[np.ndarray, np.ndarray]",
        *,
        name: str = "",
    ):
        self._n = check_positive_int(n, "n")
        sources, targets = _coerce_edges(edges)
        if sources.size:
            if sources.min() < 0 or targets.min() < 0:
                raise ValueError("edge endpoints must be non-negative")
            if sources.max() >= n or targets.max() >= n:
                raise ValueError(
                    f"edge endpoint out of range for n={n}: "
                    f"max source {sources.max()}, max target {targets.max()}"
                )
            if np.any(sources == targets):
                raise ValueError("self-loops are not allowed in the radio model")
            # Deduplicate: sort lexicographically by (source, target).
            order = np.lexsort((targets, sources))
            sources = sources[order]
            targets = targets[order]
            keep = np.ones(sources.size, dtype=bool)
            keep[1:] = (sources[1:] != sources[:-1]) | (targets[1:] != targets[:-1])
            sources = sources[keep]
            targets = targets[keep]

        # The edges are now sorted by (source, target): they are the out-CSR.
        self._set_csr(np.bincount(sources, minlength=self._n), targets.astype(np.int32), name)

    @classmethod
    def _from_csr(
        cls, n: int, out_degrees: np.ndarray, out_indices: np.ndarray, *, name: str = ""
    ) -> "RadioNetwork":
        """Trusted constructor from an out-CSR given by its row lengths.

        ``out_indices`` (int32) lists each node's out-neighbours, node by
        node, and ``out_degrees`` says how many belong to each node.  The
        edges must be distinct, loop-free and in range, with every row sorted;
        nothing is checked.  Generators that guarantee this by construction,
        such as :func:`repro.graphs.random_digraph`, use it to skip the
        validation and sorts of ``__init__``.  ``out_indices`` is adopted, not
        copied, and made read-only; the in-CSR is left to first access.
        """
        net = cls.__new__(cls)
        net._n = n
        net._set_csr(out_degrees, out_indices, name)
        return net

    def _set_csr(self, out_degrees: np.ndarray, out_indices: np.ndarray, name: str) -> None:
        """Adopt the out-CSR, the only adjacency built with the network.

        The in-CSR is derived on first access by :meth:`_build_in_csr`: the
        engine and the samplers read only the out-CSR.
        """
        self._out_indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(out_degrees, out=self._out_indptr[1:])
        self._out_indices = out_indices
        for arr in (self._out_indptr, self._out_indices):
            arr.setflags(write=False)
        self._in_indptr = self._in_indices = None
        self._name = str(name)

    def _build_in_csr(self) -> None:
        """Derive and cache the in-CSR from the out-CSR: the one in-CSR builder.

        The rows of the out-CSR list sources in ascending order, so one stable
        argsort of the targets orders the edges by (target, source).  When
        node ids fit 16 bits the sort key is narrowed to ``uint16``, which
        numpy sorts stably with a radix sort — the same permutation, faster.
        """
        n = self._n
        sources = np.repeat(np.arange(n, dtype=np.int32), self.out_degrees())
        key = self._out_indices.astype(np.uint16) if n <= 1 << 16 else self._out_indices
        in_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.in_degrees(), out=in_indptr[1:])
        in_indices = sources[np.argsort(key, kind="stable")]
        for arr in (in_indptr, in_indices):
            arr.setflags(write=False)
        self._in_indptr, self._in_indices = in_indptr, in_indices

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def num_nodes(self) -> int:
        """Alias for :attr:`n`."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of directed edges (after deduplication)."""
        return int(self._out_indices.size)

    @property
    def name(self) -> str:
        """Human-readable topology name (may be empty)."""
        return self._name

    @property
    def out_indptr(self) -> np.ndarray:
        """CSR row pointer of the out-adjacency (read-only)."""
        return self._out_indptr

    @property
    def out_indices(self) -> np.ndarray:
        """CSR column indices of the out-adjacency (read-only)."""
        return self._out_indices

    @property
    def in_indptr(self) -> np.ndarray:
        """CSR row pointer of the in-adjacency (read-only; built on first use)."""
        if self._in_indptr is None:
            self._build_in_csr()
        return self._in_indptr

    @property
    def in_indices(self) -> np.ndarray:
        """CSR column indices of the in-adjacency (read-only; built on first use)."""
        if self._in_indices is None:
            self._build_in_csr()
        return self._in_indices

    # ------------------------------------------------------------------ #
    # Degrees and neighbourhoods
    # ------------------------------------------------------------------ #
    def out_degrees(self) -> np.ndarray:
        """Array of out-degrees (how many listeners each node reaches)."""
        return np.diff(self._out_indptr)

    def in_degrees(self) -> np.ndarray:
        """Array of in-degrees (how many stations each node can hear)."""
        return np.bincount(self._out_indices, minlength=self._n)

    def out_neighbors(self, node: int) -> np.ndarray:
        """Nodes that can hear ``node``."""
        node = check_node_index(node, self._n)
        return self._out_indices[self._out_indptr[node] : self._out_indptr[node + 1]]

    def in_neighbors(self, node: int) -> np.ndarray:
        """Nodes that ``node`` can hear."""
        node = check_node_index(node, self._n)
        indptr = self.in_indptr
        return self.in_indices[indptr[node] : indptr[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """True iff a transmission by ``u`` can reach ``v``."""
        u = check_node_index(u, self._n, "u")
        v = check_node_index(v, self._n, "v")
        row = self._out_indices[self._out_indptr[u] : self._out_indptr[u + 1]]
        idx = np.searchsorted(row, v)
        return bool(idx < row.size and row[idx] == v)

    def edge_list(self) -> np.ndarray:
        """Return the ``(m, 2)`` array of directed edges ``(u, v)``."""
        sources = np.repeat(np.arange(self._n, dtype=np.int64), self.out_degrees())
        return np.column_stack([sources, self._out_indices.astype(np.int64)])

    # ------------------------------------------------------------------ #
    # Structure queries / transforms
    # ------------------------------------------------------------------ #
    def is_symmetric(self) -> bool:
        """True iff every edge has its reverse (an undirected radio network)."""
        edges = self.edge_list()
        if edges.size == 0:
            return True
        fwd = set(map(tuple, edges.tolist()))
        return all((v, u) in fwd for (u, v) in fwd)

    def reverse(self) -> "RadioNetwork":
        """Network with every edge reversed."""
        edges = self.edge_list()
        return RadioNetwork(
            self._n,
            (edges[:, 1], edges[:, 0]) if edges.size else (np.empty(0, np.int64),) * 2,
            name=f"{self._name}(reversed)" if self._name else "reversed",
        )

    def symmetrized(self) -> "RadioNetwork":
        """Network with each edge and its reverse (models equal ranges)."""
        edges = self.edge_list()
        if edges.size == 0:
            return RadioNetwork(self._n, np.empty((0, 2), np.int64), name=self._name)
        both = np.vstack([edges, edges[:, ::-1]])
        return RadioNetwork(self._n, both, name=f"{self._name}(sym)" if self._name else "sym")

    def with_name(self, name: str) -> "RadioNetwork":
        """Return a copy that carries ``name`` (the topology is shared-by-value)."""
        return RadioNetwork._from_csr(self._n, self.out_degrees(), self._out_indices, name=name)

    # ------------------------------------------------------------------ #
    # Interop
    # ------------------------------------------------------------------ #
    @classmethod
    def from_networkx(cls, graph, *, name: str = "") -> "RadioNetwork":
        """Build from a :mod:`networkx` graph.

        Undirected graphs become symmetric radio networks.  Node labels must
        be hashable; they are relabelled to ``0..n-1`` in sorted order when
        they are not already a contiguous integer range.
        """
        import networkx as nx

        nodes = list(graph.nodes())
        n = len(nodes)
        if sorted(nodes) == list(range(n)):
            mapping = {u: u for u in nodes}
        else:
            mapping = {u: i for i, u in enumerate(sorted(nodes, key=repr))}
        edges = []
        for u, v in graph.edges():
            edges.append((mapping[u], mapping[v]))
            if not graph.is_directed():
                edges.append((mapping[v], mapping[u]))
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        return cls(n, arr, name=name or getattr(graph, "name", "") or "")

    def to_networkx(self):
        """Export as a :class:`networkx.DiGraph`."""
        import networkx as nx

        g = nx.DiGraph(name=self._name)
        g.add_nodes_from(range(self._n))
        g.add_edges_from(map(tuple, self.edge_list().tolist()))
        return g

    # ------------------------------------------------------------------ #
    # Dunder
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RadioNetwork):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._out_indptr, other._out_indptr)
            and np.array_equal(self._out_indices, other._out_indices)
        )

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key in hot paths
        return hash((self._n, self._out_indices.tobytes(), self._out_indptr.tobytes()))

    def __repr__(self) -> str:
        label = f" name={self._name!r}" if self._name else ""
        return f"RadioNetwork(n={self._n}, m={self.num_edges}{label})"


# ---------------------------------------------------------------------- #
# Helpers
# ---------------------------------------------------------------------- #
def _coerce_edges(edges) -> Tuple[np.ndarray, np.ndarray]:
    """Normalise the accepted edge formats into (sources, targets) int64 arrays."""
    if isinstance(edges, tuple) and len(edges) == 2 and not _looks_like_pair(edges):
        sources = np.asarray(edges[0], dtype=np.int64).ravel()
        targets = np.asarray(edges[1], dtype=np.int64).ravel()
        if sources.shape != targets.shape:
            raise ValueError(
                f"sources and targets must have equal length, got {sources.size} and {targets.size}"
            )
        return sources, targets
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edges must be an (m, 2) array of (u, v) pairs, got shape {arr.shape}")
    return arr[:, 0].copy(), arr[:, 1].copy()


def _looks_like_pair(edges: tuple) -> bool:
    """True when a 2-tuple is a single edge ``(u, v)`` rather than two arrays."""
    return all(isinstance(x, (int, np.integer)) for x in edges)

