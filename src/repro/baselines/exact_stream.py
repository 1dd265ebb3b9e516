"""Store-everything exact streaming counters.

The trivial upper end of the space spectrum: buffer the whole stream
(m words) and count exactly.  Used as ground truth inside streaming
experiments and as the space ceiling in the frontier plots.
"""

from __future__ import annotations

from ..core.result import EstimateResult
from ..core.skeleton import finish, pass_span
from ..graphs import four_cycle_count, triangle_count
from ..graphs.graph import Graph
from ..streams.meter import SpaceMeter
from ..streams.models import StreamSource


class _ExactStream:
    """Shared buffering and counting for the two exact counters."""

    _count = None  # graph -> exact count, set per subclass

    def run(self, stream: StreamSource) -> EstimateResult:
        meter = SpaceMeter()
        graph = Graph()
        with pass_span("pass1:buffer", meter):
            for u, v in stream.edges():
                if graph.add_edge(u, v):
                    meter.add("stored_edges")
        count = float(self._count(graph))
        details = {"stored_edges": graph.num_edges}
        return finish(self.name, count, stream.passes_taken, meter, details)


class ExactTriangleStream(_ExactStream):
    """One pass, m words, exact triangle count."""

    name = "exact-triangles"
    _count = staticmethod(triangle_count)


class ExactFourCycleStream(_ExactStream):
    """One pass, m words, exact four-cycle count.

    In the adjacency list model each edge arrives twice; duplicates are
    ignored, so the space is still m words.
    """

    name = "exact-fourcycles"
    _count = staticmethod(four_cycle_count)
