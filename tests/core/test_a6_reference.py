"""Theorem 5.3's pass 3 against its one-Useful-run-per-oracle form, kept here as the oracle.

:class:`~repro.core.FourCycleArbitraryThreePass` counts every heavy-edge
oracle's Useful quantities together, as integer counts over observation
arrays.  The reference below is the scalar path it replaced: one
:class:`_EdgeOracle` per edge of a stored cycle, each with its own
:class:`~repro.core.useful.UsefulAlgorithm`, fed token by token with
float weights.  It takes the place of ``_count_oracles`` in an otherwise
unchanged run, so both share pass 1, pass 2 and the selection, and must
agree on the estimate, ``details``, the peak, ``breakdown()`` (key order
included), the mutation count and the full timeline.
"""

from typing import Dict, List, Set, Tuple

import numpy as np
import pytest

import repro.core.fourcycle_arbitrary_threepass as threepass
import repro.streams.models as models
from repro.core import FourCycleArbitraryThreePass
from repro.core.useful import UsefulAlgorithm
from repro.graphs import (
    Edge,
    Vertex,
    complete_bipartite,
    disjoint_union,
    four_cycle_count,
    normalize_edge,
    planted_diamonds,
)
from repro.resilience.faults import FaultPlan, FaultyStream
from repro.streams import ArbitraryOrderStream, RandomOrderStream
from repro.streams.models import StreamDecorator
from repro.streams.validation import ValidatedStream

# Selected H_e vertices of one sample copy, by the endpoint x of e they
# hang off: {x: {d: g}} with g = (d, x) normalized.
Hanging = Dict[Vertex, Dict[Vertex, Edge]]


class _EdgeOracle:
    """One heavy/light classifier: a Useful run over ``H_e``.

    ``hanging[copy]`` holds the members of ``R1(e)`` (copy 0) or
    ``R2(e)`` (copy 1) by the endpoint of ``e`` they hang off;
    ``s_adjs`` are the shared samples S1, S2.
    """

    def __init__(
        self,
        edge: Edge,
        hanging: Tuple[Hanging, Hanging],
        s_adjs: Tuple[Dict[Vertex, Set[Vertex]], Dict[Vertex, Set[Vertex]]],
        effective_p: float,
        m_bound: float,
    ) -> None:
        self.edge = edge
        a, b = edge
        # for f through endpoint w of e: the copies whose members hang
        # off the other endpoint, with the S sample that drew them
        self._facing = {
            w: [(copy[o], s_adj) for copy, s_adj in zip(hanging, s_adjs) if o in copy]
            for w, o in ((a, b), (b, a))
        }
        r1, r2 = (
            [g for by_d in copy.values() for g in by_d.values()] for copy in hanging
        )
        self.useful = UsefulAlgorithm(r1=r1, r2=r2, p=effective_p, m_bound=m_bound)
        self._members = self.useful.r1 | self.useful.r2

    def process_stream_edge(self, f: Edge, shared: Vertex, outer: Vertex) -> None:
        """``f = {shared, outer}`` meets ``e`` in ``shared`` only; its
        H_e-neighbours are the members ``g = (d, opposite)`` whose witness
        ``(outer, d)`` is in the S sample that drew ``g``."""
        weights: Dict[Edge, float] = {}
        for by_d, s_adj in self._facing[shared]:
            for d in by_d.keys() & s_adj.get(outer, ()):
                weights[by_d[d]] = 1.0
        # an empty call only marks f seen, which matters for members only
        if weights or f in self._members:
            self.useful.process_vertex(f, weights)


def _scalar_count(stream, ends, rows, ids, witness, effective_p, m_bound):
    """``_count_oracles``' results from one Useful run per oracle."""
    labels = list(ids)
    size = len(ids) + 1
    edges = [(labels[a], labels[b]) for a, b in ends.tolist()]
    s_adjs: Tuple[Dict, Dict] = ({}, {})
    for key in witness[:-1].tolist():
        directed, v = divmod(key, size)
        copy, u = divmod(directed, size)
        s_adjs[copy].setdefault(labels[u], set()).add(labels[v])
    hangings: List[Tuple[Hanging, Hanging]] = [({}, {}) for _ in edges]
    for i, copy, d, side in zip(*(column.tolist() for column in rows)):
        x = edges[i][side]
        hangings[i][copy].setdefault(x, {})[labels[d]] = normalize_edge(labels[d], x)
    oracles = [
        _EdgeOracle(e, hanging, s_adjs, effective_p, m_bound)
        for e, hanging in zip(edges, hangings)
    ]
    edge_index: Dict[Vertex, List[_EdgeOracle]] = {}
    for oracle in oracles:
        for w in oracle.edge:
            edge_index.setdefault(w, []).append(oracle)
    for u, v in stream.edges():
        f = normalize_edge(u, v)
        # an oracle found through endpoint w of f meets f in w alone,
        # unless it is f's own
        for shared, outer in ((u, v), (v, u)):
            for oracle in edge_index.get(shared, ()):
                if oracle.edge != f:
                    oracle.process_stream_edge(f, shared, outer)
    usefuls = [oracle.useful for oracle in oracles]
    return (
        np.array([useful.estimate() for useful in usefuls], dtype=np.float64),
        np.array([useful.heavy_counter_count for useful in usefuls], dtype=np.int64),
        sum(len(useful.heavy_vertices) for useful in usefuls),
    )


class _Replayed(StreamDecorator):
    """Each pass: the source's tokens, then its first half again, reversed
    and in reverse order, so a repeat comes long after its first sighting."""

    def _tokens(self):
        tokens = list(self._source._tokens())
        yield from tokens
        yield from [(v, u) for u, v in reversed(tokens[: len(tokens) // 2])]


def _observed(result):
    space = result.space
    return (
        result.estimate,
        result.passes,
        result.details,
        space.peak,
        list(space.breakdown().items()),
        space.mutations,
        space.timeline(),
    )


def _assert_same(monkeypatch, algorithm, make_stream):
    result = algorithm.run(make_stream())
    with monkeypatch.context() as patch:
        patch.setattr(threepass, "_count_oracles", _scalar_count)
        reference = algorithm.run(make_stream())
    assert _observed(result) == _observed(reference)
    return result


def _labelled(graph, relabel):
    labels = {
        "int": lambda v: v,
        "str": lambda v: f"v{v}",
        "negint": lambda v: -(v + 1) * 10**15,
    }[relabel]
    return graph.relabeled({v: labels(v) for v in graph.vertices()})


def _mixed():
    return disjoint_union(
        [complete_bipartite(2, 40), planted_diamonds(500, [8] * 10, extra_edges=120, seed=7)]
    )


# c sets the mode on the mixed graph: paper (p < 0.5), direct (p in
# [0.5, 1)) and saturated (p = 1); every eta is low enough for heavy
# edges and heavy counters
_MODES = {
    "paper": dict(c=0.15, eta=0.3),
    "direct": dict(c=0.35, eta=0.5),
    "saturated": dict(c=1.0, eta=1.0),
}


def _algorithm(graph, mode, seed):
    return FourCycleArbitraryThreePass(
        t_guess=four_cycle_count(graph),
        epsilon=0.3,
        seed=seed,
        use_log_factor=False,
        **_MODES[mode],
    )


@pytest.mark.parametrize("order", ["random", "arbitrary"])
@pytest.mark.parametrize("mode", sorted(_MODES))
@pytest.mark.parametrize("relabel", ["int", "str", "negint"])
def test_matches_one_useful_run_per_oracle(monkeypatch, relabel, mode, order):
    graph = _labelled(_mixed(), relabel)
    for seed in (1, 2):
        if order == "random":
            make_stream = lambda: RandomOrderStream(graph, seed=seed + 10)  # noqa: E731
        else:
            make_stream = lambda: ArbitraryOrderStream.from_graph(graph)  # noqa: E731
        _assert_same(monkeypatch, _algorithm(graph, mode, seed), make_stream)


def test_grid_has_heavy_edges_and_counters(monkeypatch):
    """Each mode runs in its regime, and the grid does exercise heavy
    edges, heavy ``f`` and heavy counters."""
    graph = _mixed()
    details = {
        mode: _assert_same(
            monkeypatch, _algorithm(graph, mode, 1), lambda: RandomOrderStream(graph, seed=11)
        ).details
        for mode in _MODES
    }
    assert details["paper"]["p"] < 0.5 <= details["direct"]["p"] < 1.0
    assert details["saturated"]["p"] == 1.0
    for found in details.values():
        assert found["num_heavy_edges"] > 0
        assert found["useful_heavy_vertices"] > 0
        assert found["useful_heavy_counters"] > 0


@pytest.mark.parametrize("policy", ["repair", "skip"])
def test_matches_on_validated_faulty_streams(monkeypatch, policy):
    graph = _mixed()
    plan = FaultPlan.mixed(0.2)
    for mode in ("paper", "direct"):
        _assert_same(
            monkeypatch,
            _algorithm(graph, mode, 3),
            lambda: ValidatedStream(
                FaultyStream(RandomOrderStream(graph, seed=4), plan, seed=5), policy
            ),
        )


@pytest.mark.parametrize("relabel", ["int", "str"])
@pytest.mark.parametrize("repeats", ["faulty", "replayed"])
def test_matches_on_repeated_tokens(monkeypatch, repeats, relabel):
    """A raw stream that repeats and reverses tokens, right after the
    first sighting or half a pass later: every repeat is processed,
    ``seen`` uses a member's first position, and the samples hold each
    edge once."""
    graph = _labelled(_mixed(), relabel)
    plan = FaultPlan(duplicate_rate=0.3, reverse_rate=0.3)
    for mode in sorted(_MODES):
        if repeats == "faulty":
            make_stream = lambda: FaultyStream(  # noqa: E731
                RandomOrderStream(graph, seed=6), plan, seed=7
            )
        else:
            make_stream = lambda: _Replayed(RandomOrderStream(graph, seed=6))  # noqa: E731
        _assert_same(monkeypatch, _algorithm(graph, mode, 4), make_stream)


def test_matches_across_chunks(monkeypatch):
    """Pass 3 over many short chunks: first positions, heavy units and
    opened counters carry from chunk to chunk."""
    graph = _mixed()
    plan = FaultPlan(duplicate_rate=0.3)
    monkeypatch.setattr(models, "EDGE_CHUNK", 37)
    for mode in sorted(_MODES):
        _assert_same(
            monkeypatch,
            _algorithm(graph, mode, 5),
            lambda: FaultyStream(RandomOrderStream(graph, seed=8), plan, seed=9),
        )
