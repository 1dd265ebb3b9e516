"""The three graph stream models of the paper.

* :class:`ArbitraryOrderStream` — edges in a fixed, adversary-chosen
  order (Section 5).
* :class:`RandomOrderStream` — a uniformly random permutation of the
  edges (Section 2).  The permutation is drawn once per stream
  *instance*; a multi-pass algorithm replays the same permutation each
  pass, matching the model's semantics.
* :class:`AdjacencyListStream` — every edge appears twice, grouped by
  endpoint (Section 4): first inside the adjacency list of the endpoint
  whose list comes earlier, then again in the other endpoint's list.

All sources are re-iterable.  :meth:`StreamSource.edges` and
:meth:`StreamSource.adjacency_lists` are the only way a pass starts:
they count it (``passes_taken``, ``stream.passes``,
``stream.edges_consumed``) and test :attr:`~StreamSource.provides_adjacency`.
:meth:`StreamSource.edge_chunks` groups the tokens of an
:meth:`~StreamSource.edges` pass into lists.
A source only supplies the raw items of one pass (``_tokens``, and
``_blocks`` for adjacency sources); a :class:`StreamDecorator`
(validation, fault injection) only transforms its wrapped source's raw
items, so decorators stack in any order.

The models are strict: the paper's streams carry a simple graph, so a
self loop or duplicate edge in the input raises
:class:`~repro.streams.policies.StreamFaultError` at construction.
Dirty input is repaired or skipped by wrapping a source in
:class:`~repro.streams.validation.ValidatedStream`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import islice
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..graphs.graph import Edge, Graph, Vertex, normalize_edge
from ..seeding import component_rng
from .. import obs as _obs
from .policies import StreamFaultError, reject_self_loops

#: Edge tokens per list yielded by :meth:`StreamSource.edge_chunks`.
EDGE_CHUNK = 4096


def _chunked(edges: Iterator[Edge]) -> Iterator[List[Edge]]:
    while True:
        chunk = list(islice(edges, EDGE_CHUNK))
        if not chunk:
            return
        yield chunk


def _counted(items: Iterator, metrics: Any, blocks: bool) -> Iterator:
    """Yield ``items`` while counting the tokens they carry.

    A block ``(vertex, neighbors)`` carries ``len(neighbors)`` tokens.
    The count is emitted once, in a ``finally`` block, so the per-item
    cost is a bare integer increment and early-terminated passes (an
    algorithm breaking out of the stream) still report what they read.
    """
    consumed = 0
    try:
        if blocks:
            for item in items:
                consumed += len(item[1])
                yield item
        else:
            for item in items:
                consumed += 1
                yield item
    finally:
        metrics.inc("stream.edges_consumed", consumed)


class StreamSource(ABC):
    """A re-iterable source of edge tokens over a fixed graph."""

    def __init__(self) -> None:
        self._passes = 0

    @property
    @abstractmethod
    def num_vertices(self) -> int:
        """Number of vertices ``n`` of the underlying graph."""

    @property
    @abstractmethod
    def num_edges(self) -> int:
        """Number of edges ``m`` of the underlying graph.

        Knowing ``m`` up front is the standard convention the paper
        adopts (prefix lengths such as ``q_i * m`` depend on it).
        """

    @property
    def stream_length(self) -> int:
        """Number of tokens in one pass (``m``, or ``2m`` for adjacency)."""
        return self.num_edges

    @property
    def passes_taken(self) -> int:
        """How many passes have been started on this source."""
        return self._passes

    @property
    def provides_adjacency(self) -> bool:
        """Whether this source yields vertex-grouped adjacency blocks.

        Section 4 algorithms require adjacency semantics; decorators
        (fault injection, validation) forward their base's answer, so
        this — not an ``isinstance`` check — is the one model test.
        """
        return False

    @abstractmethod
    def _tokens(self) -> Iterator[Edge]:
        """Yield the edge tokens of a single pass, in stream order."""

    def _blocks(self) -> Iterator[Tuple[Vertex, List[Vertex]]]:
        """Yield the ``(vertex, neighbor_list)`` blocks of a single pass."""
        raise TypeError(f"{type(self).__name__} is not an adjacency-list source")

    def _pass(self, items: Iterator, blocks: bool = False) -> Iterator:
        """Count one pass over ``items``; with telemetry on, also count
        its tokens (``len(neighbors)`` per block when ``blocks``)."""
        self._passes += 1
        telemetry = _obs.current()
        if not telemetry.enabled:
            return items
        telemetry.metrics.inc("stream.passes")
        return _counted(items, telemetry.metrics, blocks)

    def edges(self) -> Iterator[Edge]:
        """Begin a new pass and iterate its edge tokens."""
        return self._pass(self._tokens())

    def edge_chunks(self) -> Iterator[List[Edge]]:
        """Begin a new pass and yield its edge tokens in stream order, in
        lists of at most :data:`EDGE_CHUNK`.

        The pass is :meth:`edges`' own, so it is counted (and its tokens
        reported) exactly as a token-at-a-time pass.  An algorithm whose
        per-edge tests are stateless hashes evaluates them once per list
        with the array kernels, then walks the list in order.
        """
        return _chunked(self.edges())

    def adjacency_lists(self) -> Iterator[Tuple[Vertex, List[Vertex]]]:
        """Begin a new pass and yield ``(vertex, neighbor_list)`` blocks.

        This is the natural access pattern for Section 4 algorithms; the
        neighbor list of each block is complete (degree-many entries).
        Raises :class:`TypeError` unless :attr:`provides_adjacency`.
        """
        if not self.provides_adjacency:
            raise TypeError(f"{type(self).__name__} is not an adjacency-list source")
        return self._pass(self._blocks(), blocks=True)

    def materialize(self) -> List[Edge]:
        """The token sequence of one pass, as a list (counts as a pass)."""
        return list(self.edges())


class ArbitraryOrderStream(StreamSource):
    """Edges presented in exactly the order given at construction.

    A self loop or duplicate edge raises :class:`StreamFaultError`.
    """

    def __init__(self, edges: Iterable[Tuple[Vertex, Vertex]]) -> None:
        super().__init__()
        self._edges: List[Edge] = []
        seen = set()
        vertices = set()
        for u, v in edges:
            if u == v:
                raise StreamFaultError(
                    f"self loop {u!r}-{u!r} in arbitrary-order stream"
                )
            edge = normalize_edge(u, v)
            if edge in seen:
                raise StreamFaultError(
                    f"duplicate edge {edge!r} in arbitrary-order stream"
                )
            seen.add(edge)
            self._edges.append(edge)
            vertices.add(u)
            vertices.add(v)
        self._num_vertices = len(vertices)

    @classmethod
    def from_graph(cls, graph: Graph) -> "ArbitraryOrderStream":
        """Stream a graph's edges in a deterministic (sorted) order."""
        source = cls(graph.edge_list())
        source._num_vertices = graph.num_vertices
        return source

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def _tokens(self) -> Iterator[Edge]:
        return iter(self._edges)


class RandomOrderStream(StreamSource):
    """A uniformly random permutation of the graph's edges.

    The permutation is sampled once, at construction, from ``seed``;
    every pass replays it.  Use :meth:`reshuffled` to get an independent
    instance (a fresh permutation) for repeated trials.

    A self loop in a hand-built adjacency structure raises
    :class:`StreamFaultError` at construction.
    """

    def __init__(self, graph: Graph, seed: int = 0) -> None:
        super().__init__()
        self._graph = graph
        self._seed = seed
        reject_self_loops(graph)
        self._edges = graph.edge_list()
        component_rng("stream:random-order", seed=seed).shuffle(self._edges)

    @property
    def num_vertices(self) -> int:
        return self._graph.num_vertices

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def seed(self) -> int:
        return self._seed

    def reshuffled(self, seed: int) -> "RandomOrderStream":
        """An independent random-order instance of the same graph."""
        return RandomOrderStream(self._graph, seed=seed)

    def _tokens(self) -> Iterator[Edge]:
        return iter(self._edges)


class AdjacencyListStream(StreamSource):
    """Adjacency-list (vertex-grouped) stream: each edge appears twice.

    The vertex order is either supplied explicitly or drawn uniformly
    from ``seed``.  Within a list, neighbors appear in a deterministic
    shuffled order (also derived from ``seed``) — the model makes no
    promise about intra-list order, and algorithms must not rely on it.
    A self loop in a hand-built adjacency structure raises
    :class:`StreamFaultError` at construction.
    """

    def __init__(
        self,
        graph: Graph,
        vertex_order: Optional[Sequence[Vertex]] = None,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self._graph = graph
        reject_self_loops(graph)
        rng = component_rng("stream:adjacency-list", seed=seed)
        if vertex_order is None:
            order = sorted(graph.vertices(), key=repr)
            rng.shuffle(order)
        else:
            order = list(vertex_order)
            if set(order) != set(graph.vertices()):
                raise ValueError("vertex_order must be a permutation of the vertices")
        self._order: List[Vertex] = order
        # Pre-shuffle every list once so passes replay identical tokens.
        self._lists: List[Tuple[Vertex, List[Vertex]]] = []
        for v in order:
            neighbors = sorted(graph.neighbors(v), key=repr)
            rng.shuffle(neighbors)
            self._lists.append((v, neighbors))

    @property
    def num_vertices(self) -> int:
        return self._graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self._graph.num_edges

    @property
    def stream_length(self) -> int:
        return 2 * self._graph.num_edges

    @property
    def provides_adjacency(self) -> bool:
        return True

    @property
    def vertex_order(self) -> List[Vertex]:
        """The order in which adjacency lists appear (a copy)."""
        return list(self._order)

    def _tokens(self) -> Iterator[Edge]:
        for v, neighbors in self._lists:
            for u in neighbors:
                yield normalize_edge(v, u)

    def _blocks(self) -> Iterator[Tuple[Vertex, List[Vertex]]]:
        for v, neighbors in self._lists:
            yield v, list(neighbors)

    # perfbench/tracing.py patches this class's own ``adjacency_lists``
    # entry, so the inherited method is also bound in this class body.
    adjacency_lists = StreamSource.adjacency_lists

    def reshuffled(self, seed: int) -> "AdjacencyListStream":
        """An independent adjacency-order instance of the same graph."""
        return AdjacencyListStream(self._graph, seed=seed)


class StreamDecorator(StreamSource):
    """A source that transforms another source's raw tokens and blocks.

    It forwards the wrapped source's declared shape; a subclass defines
    only :meth:`_tokens` and :meth:`_blocks` over ``self._source``.
    Passes are counted on the decorator, never on the wrapped source.
    """

    def __init__(self, source: StreamSource) -> None:
        super().__init__()
        self._source = source

    @property
    def source(self) -> StreamSource:
        return self._source

    @property
    def num_vertices(self) -> int:
        return self._source.num_vertices

    @property
    def num_edges(self) -> int:
        return self._source.num_edges

    @property
    def stream_length(self) -> int:
        return self._source.stream_length

    @property
    def provides_adjacency(self) -> bool:
        return self._source.provides_adjacency
