"""Validation policies: strict / repair / skip, and construction guards."""

from __future__ import annotations

import pytest

from repro.graphs import Graph
from repro.streams import (
    POLICY_REPAIR,
    POLICY_SKIP,
    POLICY_STRICT,
    AdjacencyListStream,
    ArbitraryOrderStream,
    RandomOrderStream,
    StreamFaultError,
    ValidatedStream,
    check_policy,
)


def _path_graph():
    return Graph.from_edges([(0, 1), (1, 2), (2, 3)])


class TestCheckPolicy:
    def test_accepts_known(self):
        for policy in (POLICY_STRICT, POLICY_REPAIR, POLICY_SKIP):
            assert check_policy(policy) == policy

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown validation policy"):
            check_policy("lenient")


class TestConstructionGuards:
    """Satellite: all three models reject self loops at construction
    under strict, and drop+count them under repair/skip."""

    def test_arbitrary_order_rejects_self_loop(self):
        with pytest.raises(StreamFaultError, match="self loop"):
            ArbitraryOrderStream([(0, 1), (2, 2)])

    def test_arbitrary_order_rejects_duplicate(self):
        with pytest.raises(StreamFaultError, match="duplicate"):
            ArbitraryOrderStream([(0, 1), (1, 0)])

    def _looped_graph(self):
        # Build adjacency with a self loop by hand: Graph.add_edge
        # refuses loops, so poke the internal structure the way a
        # malformed ingest would.
        graph = _path_graph()
        graph._adj[1].add(1)  # noqa: SLF001 — deliberate corruption
        return graph

    def test_random_order_rejects_self_loop(self):
        with pytest.raises(StreamFaultError, match="self loop"):
            RandomOrderStream(self._looped_graph(), seed=0)

    def test_adjacency_rejects_self_loop(self):
        with pytest.raises(StreamFaultError, match="self loop"):
            AdjacencyListStream(self._looped_graph(), seed=0)

class TestValidatedStreamEdgeTokens:
    def test_passthrough_on_clean_stream(self):
        base = ArbitraryOrderStream([(0, 1), (1, 2)])
        validated = ValidatedStream(base, POLICY_REPAIR)
        assert list(validated.edges()) == [(0, 1), (1, 2)]
        assert validated.fault_counts == {}

    def test_strict_raises_on_duplicate(self):
        base = _RawTokens([(0, 1), (1, 2), (0, 1)])
        validated = ValidatedStream(base, POLICY_STRICT)
        with pytest.raises(StreamFaultError, match="duplicate"):
            list(validated.edges())

    def test_strict_raises_on_self_loop(self):
        base = _RawTokens([(0, 1), (2, 2)])
        validated = ValidatedStream(base, POLICY_STRICT)
        with pytest.raises(StreamFaultError, match="self loop"):
            list(validated.edges())

    def test_repair_canonicalizes_and_dedupes(self):
        base = _RawTokens([(1, 0), (0, 1), (2, 2), (1, 2)])
        validated = ValidatedStream(base, POLICY_REPAIR)
        assert list(validated.edges()) == [(0, 1), (1, 2)]
        assert validated.fault_counts["duplicate"] == 1
        assert validated.fault_counts["self_loop"] == 1
        assert validated.fault_counts["reversed"] == 1

    def test_skip_preserves_arrival_orientation(self):
        base = _RawTokens([(1, 0), (2, 1)])
        validated = ValidatedStream(base, POLICY_SKIP)
        assert list(validated.edges()) == [(1, 0), (2, 1)]

    def test_counts_accumulate_across_passes(self):
        base = _RawTokens([(0, 1), (0, 1)])
        validated = ValidatedStream(base, POLICY_REPAIR)
        list(validated.edges())
        list(validated.edges())
        assert validated.fault_counts["duplicate"] == 2

    def test_strict_tolerates_reversed_orientation(self):
        # Arrival orientation is not an error — (1, 0) is just edge
        # {0, 1} arriving endpoint-swapped.
        base = _RawTokens([(1, 0), (2, 1)])
        validated = ValidatedStream(base, POLICY_STRICT)
        assert list(validated.edges()) == [(0, 1), (1, 2)]
        assert validated.fault_counts["reversed"] == 2


class TestValidatedAdjacency:
    def test_each_edge_twice_is_legitimate(self):
        graph = _path_graph()
        validated = ValidatedStream(AdjacencyListStream(graph, seed=0), POLICY_STRICT)
        blocks = list(validated.adjacency_lists())
        assert sum(len(neighbors) for _, neighbors in blocks) == 2 * graph.num_edges
        assert validated.fault_counts == {}

    def test_split_block_merged_under_repair(self):
        base = _RawBlocks([(0, [1, 2]), (0, [3]), (1, [0]), (2, [0]), (3, [0])])
        validated = ValidatedStream(base, POLICY_REPAIR)
        blocks = list(validated.adjacency_lists())
        assert blocks[0] == (0, [1, 2, 3])
        assert validated.fault_counts["split_block"] == 1

    def test_split_block_strict_raises(self):
        base = _RawBlocks([(0, [1]), (0, [2])])
        validated = ValidatedStream(base, POLICY_STRICT)
        with pytest.raises(StreamFaultError, match="split"):
            list(validated.adjacency_lists())

    def test_duplicate_entry_dropped(self):
        base = _RawBlocks([(0, [1, 1]), (1, [0])])
        validated = ValidatedStream(base, POLICY_REPAIR)
        blocks = list(validated.adjacency_lists())
        assert blocks[0] == (0, [1])
        assert validated.fault_counts["duplicate"] == 1

    def test_self_loop_entry_dropped(self):
        base = _RawBlocks([(0, [0, 1]), (1, [0])])
        validated = ValidatedStream(base, POLICY_REPAIR)
        blocks = list(validated.adjacency_lists())
        assert blocks[0] == (0, [1])
        assert validated.fault_counts["self_loop"] == 1

    def test_provides_adjacency_delegates(self):
        graph = _path_graph()
        assert ValidatedStream(AdjacencyListStream(graph)).provides_adjacency
        assert not ValidatedStream(
            ArbitraryOrderStream([(0, 1)])
        ).provides_adjacency


from repro.streams.models import StreamSource  # noqa: E402


class _RawTokens(StreamSource):
    """A stream source that emits tokens verbatim — no validation."""

    def __init__(self, tokens):
        super().__init__()
        self._raw = list(tokens)

    @property
    def num_vertices(self):
        return len({v for token in self._raw for v in token})

    @property
    def num_edges(self):
        return len(self._raw)

    def _tokens(self):
        return iter(self._raw)


class _RawBlocks(_RawTokens):
    """An adjacency-shaped source emitting handwritten blocks."""

    def __init__(self, blocks):
        super().__init__([(v, u) for v, us in blocks for u in us])
        self._raw_blocks = [(v, list(us)) for v, us in blocks]

    @property
    def provides_adjacency(self):
        return True

    def _blocks(self):
        for v, us in self._raw_blocks:
            yield v, list(us)
