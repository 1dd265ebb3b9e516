"""Streaming a graph straight off disk.

The in-memory stream sources (:mod:`repro.streams.models`) materialize
the edge list; that is fine for experiments but defeats the point of a
streaming algorithm on data larger than memory.  ``FileEdgeStream``
iterates an edge-list file directly: one pass reads the file once, and
the only O(m) state is a duplicate filter that can be switched off for
pre-deduplicated data (the common case for published datasets).

The file's line order is the arrival order — i.e. this is an
*arbitrary order* stream.  For the random-order model, shuffle the
file once offline (``repro.graphs.io.write_edge_list`` after a
permutation) rather than in memory.

Malformed lines are repaired: self loops and (when ``deduplicate``)
repeated edges are dropped and counted into the active telemetry as
``stream.faults.<kind>``, and endpoints are canonicalized.  For strict
or skip handling, wrap the stream in
:class:`~repro.streams.validation.ValidatedStream`.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Set

from ..graphs.graph import Edge, normalize_edge
from ..graphs.io import PathLike, iter_edge_list
from .models import StreamSource
from .policies import emit_fault_counts


class FileEdgeStream(StreamSource):
    """An arbitrary-order stream backed by an edge-list file.

    Args:
        path: edge-list file (see :mod:`repro.graphs.io` for the format).
        deduplicate: drop repeated edges while streaming.  Requires
            O(m) memory for the filter; turn off for clean data to
            stream in O(1) memory.
        precounted: optional ``(num_vertices, num_edges)`` if known,
            avoiding the initial counting pass.

    The constructor takes one scan to count vertices/edges (algorithms
    need ``m`` up front, per the paper's convention) unless
    ``precounted`` is given.
    """

    def __init__(
        self,
        path: PathLike,
        deduplicate: bool = True,
        precounted: Optional[tuple] = None,
    ) -> None:
        super().__init__()
        self._path = path
        self._deduplicate = deduplicate
        if precounted is not None:
            self._num_vertices, self._num_edges = precounted
        else:
            vertices = set()
            count = 0
            for edge in self._repaired({}):
                count += 1
                vertices.update(edge)
            self._num_vertices, self._num_edges = len(vertices), count

    def _repaired(self, counts: Dict[str, int]) -> Iterator[Edge]:
        """The file's edges, canonicalized, minus self loops and (when
        deduplicating) repeats; dropped lines are tallied in ``counts``."""
        seen: Optional[Set[Edge]] = set() if self._deduplicate else None
        for u, v in iter_edge_list(self._path):
            if u == v:
                counts["self_loop"] = counts.get("self_loop", 0) + 1
                continue
            edge = normalize_edge(u, v)
            if seen is not None:
                if edge in seen:
                    counts["duplicate"] = counts.get("duplicate", 0) + 1
                    continue
                seen.add(edge)
            yield edge

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def path(self) -> PathLike:
        return self._path

    def _tokens(self) -> Iterator[Edge]:
        counts: Dict[str, int] = {}
        try:
            yield from self._repaired(counts)
        finally:
            emit_fault_counts(counts)
