"""The edge-sampling baselines' chunked pass 1 against the scalar path.

Pass 1 hashes each :meth:`~repro.streams.StreamSource.edge_chunks` list
with one ``bernoulli_array`` call.  The references below are the
edge-at-a-time loops it replaced, one scalar ``bernoulli`` per edge;
every output must match them exactly.
"""

import math

import pytest

from repro.baselines import EdgeSamplingFourCycles, EdgeSamplingTriangles, TwoPassTriangles
from repro.core.skeleton import finish
from repro.graphs import Graph, planted_diamonds, planted_triangles
from repro.graphs.graph import normalize_edge
from repro.sketches.hashing import KWiseHash
from repro.streams import ArbitraryOrderStream, RandomOrderStream, SpaceMeter


def _scalar_edge_sampling(algorithm, stream):
    meter = SpaceMeter()
    sample_hash = KWiseHash(k=2, seed=algorithm.seed, namespace="edge-sampling.sample")
    graph = Graph()
    for u, v in stream.edges():
        if sample_hash.bernoulli(normalize_edge(u, v), algorithm.p):
            if graph.add_edge(u, v):
                meter.add("sampled_edges")
    surviving = algorithm._count(graph)
    details = {"surviving": surviving, "p": algorithm.p, "sampled_edges": graph.num_edges}
    estimate = surviving / algorithm.p**algorithm._order
    return finish(algorithm.name, estimate, stream.passes_taken, meter, details)


def _scalar_two_pass(algorithm, stream):
    meter = SpaceMeter()
    p = min(1.0, algorithm.c / (algorithm.epsilon * math.sqrt(algorithm.t_guess)))
    sample_hash = KWiseHash(k=2, seed=algorithm.seed, namespace="mvv-twopass.sample")
    sampled, by_endpoint = set(), {}
    for u, v in stream.edges():
        edge = normalize_edge(u, v)
        if sample_hash.bernoulli(edge, p):
            sampled.add(edge)
            by_endpoint.setdefault(u, []).append(edge)
            by_endpoint.setdefault(v, []).append(edge)
            meter.add("sampled_edges")
    half_wedges, triangle_hits = set(), {}
    for a, b in stream.edges():
        for endpoint, other in ((a, b), (b, a)):
            for edge in by_endpoint.get(endpoint, ()):
                if other in edge:
                    continue
                key = (edge, other)
                if key in half_wedges:
                    triangle_hits[edge] = triangle_hits.get(edge, 0) + 1
                else:
                    half_wedges.add(key)
                    meter.add("half_wedges")
    total_hits = sum(triangle_hits.values())
    details = {
        "p": p,
        "sampled_edges": len(sampled),
        "triangle_hits": total_hits,
        "edges_in_triangles": len(triangle_hits),
    }
    return finish(algorithm.name, total_hits / (3.0 * p), stream.passes_taken, meter, details)


def _graphs():
    # "triangles" spans two 4,096-edge chunks
    triangles = planted_triangles(4000, 1200, extra_edges=1500, seed=3)
    diamonds = planted_diamonds(400, [6] * 10, extra_edges=200, seed=5)
    return {
        "triangles-int": triangles,
        "triangles-str": triangles.relabeled({v: f"v{v}" for v in triangles.vertices()}),
        "diamonds-negint": diamonds.relabeled({v: -(v + 1) for v in diamonds.vertices()}),
    }


def _observe(result):
    space = result.space
    return (
        result.estimate,
        result.passes,
        result.details,
        space.peak,
        space.mutations,
        space.breakdown(),
        space.timeline(),
    )


@pytest.mark.parametrize("graph_name", ["triangles-int", "triangles-str", "diamonds-negint"])
@pytest.mark.parametrize("seed", [0, 5])
def test_edge_sampling_matches_scalar(graph_name, seed):
    graph = _graphs()[graph_name]
    assert graph.num_edges > 0
    for cls in (EdgeSamplingTriangles, EdgeSamplingFourCycles):
        for p in (0.05, 0.4, 1.0):
            algorithm = cls(p=p, seed=seed)
            batched = algorithm.run(RandomOrderStream(graph, seed=seed))
            scalar = _scalar_edge_sampling(algorithm, RandomOrderStream(graph, seed=seed))
            assert _observe(batched) == _observe(scalar)


@pytest.mark.parametrize("graph_name", ["triangles-int", "triangles-str", "diamonds-negint"])
@pytest.mark.parametrize("seed", [0, 5])
def test_two_pass_matches_scalar(graph_name, seed):
    graph = _graphs()[graph_name]
    for c in (0.3, 3.0, 1e6):  # the last saturates p at 1
        algorithm = TwoPassTriangles(t_guess=1000, epsilon=0.3, c=c, seed=seed)
        batched = algorithm.run(ArbitraryOrderStream.from_graph(graph))
        scalar = _scalar_two_pass(algorithm, ArbitraryOrderStream.from_graph(graph))
        assert _observe(batched) == _observe(scalar)
