"""Theorem 2.1's pass against its edge-at-a-time form, kept here as the oracle.

:class:`~repro.core.TriangleRandomOrder` keeps the non-oracle levels in
one level-mask map, tests a candidate with one intersection against the
levels past their prefix, and charges the meter per chunk.  The
reference below walks the stream one edge at a time with one adjacency
per level, asks each level's hash per edge, and charges every stored
item with its own ``meter.add``.  Both must agree on the estimate,
``details``, the peak, ``breakdown()`` (key order included), the
mutation count and the full timeline.
"""

import math
from typing import Dict, List, Set

import pytest

from repro.core import TriangleRandomOrder
from repro.graphs import (
    barabasi_albert,
    erdos_renyi,
    heavy_edge_graph,
    normalize_edge,
    planted_triangles,
    triangle_count,
)
from repro.resilience.faults import FaultPlan, FaultyStream
from repro.sketches.hashing import KWiseHash
from repro.streams import RandomOrderStream, SpaceMeter
from repro.streams.validation import ValidatedStream


def _adj_add(adj, u, v):
    adj.setdefault(u, set()).add(v)
    adj.setdefault(v, set()).add(u)


def _common_neighbors(adj, u, v) -> List:
    set_u = adj.get(u)
    set_v = adj.get(v)
    if not set_u or not set_v:
        return []
    if len(set_u) > len(set_v):
        set_u, set_v = set_v, set_u
    return [w for w in set_u if w in set_v]


def _reference_run(algorithm: TriangleRandomOrder, stream):
    """``algorithm.run(stream)`` as (estimate, details, meter), edge at a time."""
    n = max(2, stream.num_vertices)
    m = stream.num_edges
    meter = SpaceMeter()
    if m == 0:
        return 0.0, {"empty": True}, meter
    sqrt_t = math.sqrt(algorithm.t_guess)
    num_levels = max(0, math.ceil(math.log2(sqrt_t))) if sqrt_t > 1 else 0
    levels = [] if algorithm.disable_heavy_path else list(range(num_levels + 1))
    log_factor = math.log2(n) if algorithm.use_log_factor else 1.0
    sample_const = 10.0 * algorithm.c * log_factor / (algorithm.epsilon**2)
    level_prob = [min(1.0, sample_const / (2**i)) for i in levels]
    prefix_len = [min(m, math.floor(m * (2**i) / sqrt_t)) for i in levels]
    if levels:
        prefix_len[-1] = m
        oracle_prob = level_prob[-1]
    else:
        oracle_prob = 1.0
    level_hash = [
        KWiseHash(
            k=8, seed=algorithm.seed, namespace=f"triangle-random-order.level[{i}]"
        )
        for i in levels
    ]
    level_adj: List[Dict] = [dict() for _ in levels]
    r = min(1.0, algorithm.c / (algorithm.epsilon * sqrt_t))
    s_len = max(1, math.ceil(r * m))
    r_effective = s_len / m
    s_adj: Dict = {}
    s_edges: List = []
    candidates_c: Set = set()
    potential_p: Set = set()

    for pos, (u, v) in enumerate(stream.edges(), start=1):
        edge = normalize_edge(u, v)
        for i in levels:
            if pos <= prefix_len[i]:
                if level_hash[i].bernoulli(u, level_prob[i]) or level_hash[i].bernoulli(
                    v, level_prob[i]
                ):
                    _adj_add(level_adj[i], u, v)
                    meter.add(f"level_{i}_edges")
            elif edge not in potential_p and _common_neighbors(level_adj[i], u, v):
                potential_p.add(edge)
                meter.add("potential_heavy_P")
        if pos <= s_len:
            _adj_add(s_adj, u, v)
            s_edges.append(edge)
            meter.add("prefix_S")
        elif edge not in candidates_c and _common_neighbors(s_adj, u, v):
            candidates_c.add(edge)
            meter.add("candidates_C")
    for u, v in s_edges:
        edge = (u, v)
        if edge not in candidates_c and _common_neighbors(s_adj, u, v):
            candidates_c.add(edge)
            meter.add("candidates_C")

    oracle_adj = level_adj[-1] if level_adj else {}
    heavy_threshold = oracle_prob * sqrt_t
    heavy_cache: Dict = {}
    oracle_calls = 0

    def is_heavy(u, v):
        nonlocal oracle_calls
        edge = normalize_edge(u, v)
        if edge not in heavy_cache:
            oracle_calls += 1
            heavy_cache[edge] = (
                len(_common_neighbors(oracle_adj, u, v)) >= heavy_threshold
            )
        return heavy_cache[edge]

    light_wedge_pairs = 0
    for u, v in candidates_c:
        if is_heavy(u, v):
            continue
        for w in _common_neighbors(s_adj, u, v):
            if not is_heavy(u, w) and not is_heavy(v, w):
                light_wedge_pairs += 1
    t0_hat = light_wedge_pairs / (3.0 * r_effective**2)

    with_j = [0, 0, 0]  # triangles of caught heavy edges, by other heavy edges
    heavy_caught = 0
    for u, v in potential_p:
        if not is_heavy(u, v):
            continue
        heavy_caught += 1
        for w in _common_neighbors(oracle_adj, u, v):
            with_j[int(is_heavy(u, w)) + int(is_heavy(v, w))] += 1
    heavy_hat = (with_j[0] + with_j[1] / 2 + with_j[2] / 3) / oracle_prob

    details = {
        "t0_hat": t0_hat,
        "heavy_hat": heavy_hat,
        "num_levels": len(levels),
        "oracle_prob": oracle_prob,
        "heavy_threshold": heavy_threshold,
        "prefix_fraction_r": r_effective,
        "size_S": len(s_edges),
        "size_C": len(candidates_c),
        "size_P": len(potential_p),
        "heavy_edges_caught": heavy_caught,
        "oracle_calls": oracle_calls,
        "level_edge_counts": [
            sum(len(neigh) for neigh in adj.values()) // 2 for adj in level_adj
        ],
    }
    return t0_hat + heavy_hat, details, meter


def _space(meter):
    return (
        meter.peak,
        list(meter.breakdown().items()),
        meter.mutations,
        meter.timeline(),
    )


def _assert_same(algorithm, make_stream):
    result = algorithm.run(make_stream())
    estimate, details, meter = _reference_run(algorithm, make_stream())
    assert result.estimate == estimate
    assert result.details == details
    assert _space(result.space) == _space(meter)
    return result


def _as_str(graph):
    return graph.relabeled({v: f"v{v}" for v in graph.vertices()})


_GRAPHS = {
    "er": lambda: erdos_renyi(120, 0.12, seed=3),
    "ba": lambda: barabasi_albert(300, 6, seed=4),
    "planted": lambda: planted_triangles(400, 120, extra_edges=300, seed=5),
    "heavy": lambda: heavy_edge_graph(
        300, heavy_triangles=80, light_triangles=30, seed=6
    ),
}

# (t_guess scale, kwargs): one level (T <= 4), a few, many; levels that
# sample (p < 1) and levels saturated at p = 1; the heavy path off
_SETTINGS = {
    "one-level": (lambda t: 2, dict(epsilon=0.5, c=0.05, use_log_factor=False)),
    "sampling": (lambda t: t, dict(epsilon=0.7, c=0.1, use_log_factor=False)),
    "saturated": (lambda t: t, dict(epsilon=0.3, c=1.0)),
    "many-levels": (lambda t: 10**12, dict(epsilon=0.5, c=10**4, use_log_factor=False)),
    "no-heavy-path": (
        lambda t: t,
        dict(epsilon=0.5, c=0.2, use_log_factor=False, disable_heavy_path=True),
    ),
}


@pytest.mark.parametrize("setting", sorted(_SETTINGS))
@pytest.mark.parametrize("relabel", ["int", "str"])
@pytest.mark.parametrize("graph_name", sorted(_GRAPHS))
def test_matches_edge_at_a_time_pass(graph_name, relabel, setting):
    graph = _GRAPHS[graph_name]()
    if relabel == "str":
        graph = _as_str(graph)
    t_guess, kwargs = _SETTINGS[setting]
    truth = max(1, triangle_count(graph))
    for seed in (1, 2):
        algorithm = TriangleRandomOrder(t_guess=t_guess(truth), seed=seed, **kwargs)
        _assert_same(algorithm, lambda: RandomOrderStream(graph, seed=seed + 10))


def test_sampling_cases_sample():
    """The "sampling" setting really runs below p = 1 with heavy edges,
    and "many-levels" leaves the low levels with empty prefixes."""
    graph = _GRAPHS["heavy"]()
    truth = triangle_count(graph)
    t_guess, kwargs = _SETTINGS["sampling"]
    result = _assert_same(
        TriangleRandomOrder(t_guess=t_guess(truth), seed=1, **kwargs),
        lambda: RandomOrderStream(graph, seed=11),
    )
    assert result.details["oracle_prob"] < 1
    assert result.details["heavy_hat"] > 0
    t_guess, kwargs = _SETTINGS["many-levels"]
    result = TriangleRandomOrder(t_guess=t_guess(truth), seed=1, **kwargs).run(
        RandomOrderStream(graph, seed=11)
    )
    assert result.details["num_levels"] > 20
    assert result.details["level_edge_counts"][0] == 0


def test_matches_across_chunks():
    """A stream longer than one 4,096-edge chunk, thinning the timeline."""
    graph = barabasi_albert(700, 8, seed=9)
    assert graph.num_edges > 4096
    truth = triangle_count(graph)
    for kwargs in (
        dict(epsilon=0.7, c=0.3, use_log_factor=False),
        dict(epsilon=0.5, c=0.02, use_log_factor=False),
    ):
        result = _assert_same(
            TriangleRandomOrder(t_guess=truth, seed=3, **kwargs),
            lambda: RandomOrderStream(graph, seed=5),
        )
        assert len(result.space.timeline()) < result.space.mutations


@pytest.mark.parametrize(
    "plan",
    [
        FaultPlan(duplicate_rate=0.2, reverse_rate=0.3),
        FaultPlan(duplicate_rate=0.1, drop_rate=0.1),
    ],
)
def test_matches_on_faulty_streams(plan):
    """Repeated tokens run past the declared ``m``, so the oracle level
    also passes its prefix; dropped tokens end the stream early."""
    graph = _GRAPHS["heavy"]()
    for seed in (1, 2):
        algorithm = TriangleRandomOrder(
            t_guess=400, seed=seed, epsilon=0.3, c=0.05, use_log_factor=False
        )
        _assert_same(
            algorithm,
            lambda: FaultyStream(RandomOrderStream(graph, seed=4), plan, seed=seed),
        )


def test_self_loops_fail_alike():
    """A raw self-loop token is rejected by both; skipped, the rest agree."""
    graph = _GRAPHS["heavy"]()
    plan = FaultPlan(duplicate_rate=0.1, self_loop_rate=0.05)
    algorithm = TriangleRandomOrder(
        t_guess=400, seed=1, epsilon=0.3, c=0.05, use_log_factor=False
    )

    def faulty():
        return FaultyStream(RandomOrderStream(graph, seed=4), plan, seed=5)

    with pytest.raises(ValueError, match="self loop") as raised:
        algorithm.run(faulty())
    with pytest.raises(ValueError, match="self loop") as expected:
        _reference_run(algorithm, faulty())
    assert str(raised.value) == str(expected.value)
    _assert_same(algorithm, lambda: ValidatedStream(faulty(), "skip"))
