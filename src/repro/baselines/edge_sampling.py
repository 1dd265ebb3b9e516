"""Naive independent edge sampling — the sanity-floor baseline.

Sample every edge independently with probability ``p`` (hash-defined),
count the target subgraphs that survive entirely, and scale by
``p^-3`` (triangles) or ``p^-4`` (four-cycles).  Unbiased but with
variance ``~ T / p^k``: to concentrate it needs ``p^3 T >> 1``, i.e.
space ``m / T^{1/3}`` for triangles and ``m / T^{1/4}`` for four-cycles
— and far worse on graphs where counts concentrate on few edges.  The
paper's algorithms beat it exactly where it is weak, which is what the
frontier experiment (E13) shows.
"""

from __future__ import annotations

from ..core.result import EstimateResult
from ..core.skeleton import finish, pass_span
from ..graphs import four_cycle_count, triangle_count
from ..graphs.graph import Graph, normalize_edge
from ..sketches.hashing import KWiseHash
from ..streams.meter import SpaceMeter
from ..streams.models import StreamSource


class _EdgeSampling:
    """Shared sampling and scaling: ``_count(sample) / p^_order``."""

    _count = None  # graph -> exact count, set per subclass
    _order = 0  # edges per counted subgraph

    def __init__(self, p: float, seed: int = 0) -> None:
        if not 0 < p <= 1:
            raise ValueError(f"sampling probability must be in (0, 1], got {p}")
        self.p = p
        self.seed = seed

    def run(self, stream: StreamSource) -> EstimateResult:
        meter = SpaceMeter()
        sample_hash = KWiseHash(k=2, seed=self.seed, namespace="edge-sampling.sample")
        graph = Graph()
        with pass_span("pass1:sample", meter):
            for u, v in stream.edges():
                if sample_hash.bernoulli(normalize_edge(u, v), self.p):
                    if graph.add_edge(u, v):
                        meter.add("sampled_edges")
        surviving = self._count(graph)
        estimate = surviving / self.p**self._order
        details = {"surviving": surviving, "p": self.p, "sampled_edges": graph.num_edges}
        return finish(self.name, estimate, stream.passes_taken, meter, details)


class EdgeSamplingTriangles(_EdgeSampling):
    """T_hat = (surviving triangles) / p^3."""

    name = "edge-sampling-triangles"
    _count = staticmethod(triangle_count)
    _order = 3


class EdgeSamplingFourCycles(_EdgeSampling):
    """T_hat = (surviving four-cycles) / p^4."""

    name = "edge-sampling-fourcycles"
    _count = staticmethod(four_cycle_count)
    _order = 4
