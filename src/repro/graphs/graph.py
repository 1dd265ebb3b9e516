"""Core graph type used throughout the library.

The paper works with simple undirected graphs presented as streams of
edges.  This module provides the in-memory representation used by the
generators, the exact counters (ground truth) and the stream sources.

Vertices are hashable objects; the generators produce integer vertices.
Edges are canonicalized to ``(min(u, v), max(u, v))`` tuples so that an
edge has exactly one representation and can be used as a dictionary key.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Set, Tuple

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]


def normalize_edge(u: Vertex, v: Vertex) -> Edge:
    """Return the canonical representation of the undirected edge ``{u, v}``.

    The canonical form orders the two endpoints, so ``normalize_edge(3, 1)``
    and ``normalize_edge(1, 3)`` both return ``(1, 3)``.

    Raises:
        ValueError: if ``u == v`` (self loops are not part of the model).
    """
    if u == v:
        raise ValueError(f"self loop {u!r}-{v!r} is not a valid edge")
    try:
        ordered = u <= v  # type: ignore[operator]
    except TypeError:
        ordered = repr(u) <= repr(v)
    return (u, v) if ordered else (v, u)


def wedge_pairs(neighbors: Iterable[Vertex]) -> List[Edge]:
    """The ``C(d, 2)`` canonical neighbour pairs of one adjacency block.

    These are the wedge-vector coordinates the block increments, in a
    fixed order (neighbours sorted by ``repr``, then pairs ``i < j``),
    so every consumer sees one deterministic sequence.
    """
    ordered = sorted(neighbors, key=repr)
    return [normalize_edge(u, v) for i, u in enumerate(ordered) for v in ordered[i + 1 :]]


class Graph:
    """A simple undirected graph stored as adjacency sets.

    The class intentionally exposes a small, explicit API: the algorithms
    in :mod:`repro.core` never touch a ``Graph`` directly (they only see
    streams), so this type only needs to support construction, queries
    and iteration for the generators, oracles and tests.
    """

    def __init__(self) -> None:
        self._adj: Dict[Vertex, Set[Vertex]] = {}
        self._num_edges = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[Vertex, Vertex]]) -> "Graph":
        """Build a graph from an iterable of ``(u, v)`` pairs.

        Duplicate edges are ignored (the graph is simple); self loops
        raise :class:`ValueError`.
        """
        graph = cls()
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    def add_vertex(self, v: Vertex) -> None:
        """Ensure ``v`` exists in the graph (isolated if no edges added)."""
        self._adj.setdefault(v, set())

    def add_edge(self, u: Vertex, v: Vertex) -> bool:
        """Insert the undirected edge ``{u, v}``.

        Returns:
            ``True`` if the edge was new, ``False`` if it already existed.
        """
        if u == v:
            raise ValueError(f"self loop {u!r}-{v!r} is not a valid edge")
        neighbors_u = self._adj.setdefault(u, set())
        self._adj.setdefault(v, set())
        if v in neighbors_u:
            return False
        neighbors_u.add(v)
        self._adj[v].add(u)
        self._num_edges += 1
        return True

    def remove_edge(self, u: Vertex, v: Vertex) -> bool:
        """Delete the edge ``{u, v}`` if present; return whether it existed."""
        if u in self._adj and v in self._adj[u]:
            self._adj[u].discard(v)
            self._adj[v].discard(u)
            self._num_edges -= 1
            return True
        return False

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices (isolated vertices included)."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of edges ``m``."""
        return self._num_edges

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return u in self._adj and v in self._adj[u]

    def degree(self, v: Vertex) -> int:
        """Degree of ``v``; vertices not in the graph have degree 0."""
        neighbors = self._adj.get(v)
        return 0 if neighbors is None else len(neighbors)

    def max_degree(self) -> int:
        """The maximum degree Delta, or 0 for the empty graph."""
        if not self._adj:
            return 0
        return max(len(neighbors) for neighbors in self._adj.values())

    def neighbors(self, v: Vertex) -> Set[Vertex]:
        """The neighbor set of ``v`` (a live view; do not mutate)."""
        return self._adj.get(v, set())

    def vertices(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate every edge exactly once, in canonical form."""
        for u, neighbors in self._adj.items():
            for v in neighbors:
                edge = normalize_edge(u, v)
                if edge[0] == u:
                    yield edge

    def edge_list(self) -> List[Edge]:
        """All edges as a list (canonical form, deterministic order)."""
        return sorted(self.edges())

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        clone = Graph()
        clone._adj = {v: set(neighbors) for v, neighbors in self._adj.items()}
        clone._num_edges = self._num_edges
        return clone

    def relabeled(self, mapping: Dict[Vertex, Vertex]) -> "Graph":
        """Return a copy with vertices renamed through ``mapping``.

        Vertices absent from ``mapping`` keep their name.  The mapping
        must be injective on the vertex set.
        """
        clone = Graph()
        for v in self._adj:
            clone.add_vertex(mapping.get(v, v))
        for u, v in self.edges():
            clone.add_edge(mapping.get(u, u), mapping.get(v, v))
        if clone.num_vertices != self.num_vertices:
            raise ValueError("relabeling mapping is not injective on vertices")
        return clone

    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"

    def to_networkx(self):  # pragma: no cover - convenience for notebooks
        """Convert to a ``networkx.Graph`` (requires networkx installed)."""
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(self._adj)
        nx_graph.add_edges_from(self.edges())
        return nx_graph
