"""FaultPlan / FaultyStream: seeded, replayable stream corruption."""

from __future__ import annotations

import pytest

from repro import obs as _obs
from repro.graphs import Graph
from repro.resilience import FaultPlan, FaultyStream
from repro.streams import (
    POLICY_REPAIR,
    AdjacencyListStream,
    ArbitraryOrderStream,
    RandomOrderStream,
    ValidatedStream,
)

EDGES = [(i, i + 1) for i in range(40)] + [(0, j) for j in range(2, 20)]


def _edge_stream():
    return ArbitraryOrderStream(EDGES)


def _graph():
    return Graph.from_edges(EDGES)


class TestFaultPlan:
    def test_rejects_out_of_range_rates(self):
        with pytest.raises(ValueError, match="duplicate_rate"):
            FaultPlan(duplicate_rate=1.5)
        with pytest.raises(ValueError, match="drop_rate"):
            FaultPlan(drop_rate=-0.1)

    def test_mixed_splits_rate_evenly(self):
        plan = FaultPlan.mixed(0.2)
        assert plan.duplicate_rate == pytest.approx(0.05)
        assert plan.self_loop_rate == pytest.approx(0.05)
        assert plan.reverse_rate == pytest.approx(0.05)
        assert plan.drop_rate == pytest.approx(0.05)
        assert plan.truncate_fraction == 0.0

    def test_mixed_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="fault rate"):
            FaultPlan.mixed(1.2)


class TestFaultyEdgeStream:
    def test_zero_plan_is_passthrough(self):
        faulty = FaultyStream(_edge_stream(), FaultPlan(), seed=3)
        assert list(faulty.edges()) == EDGES
        assert faulty.injected == {}

    def test_same_seed_replays_identically(self):
        plan = FaultPlan.mixed(0.3)
        first = FaultyStream(_edge_stream(), plan, seed=11)
        second = FaultyStream(_edge_stream(), plan, seed=11)
        assert list(first.edges()) == list(second.edges())
        assert first.injected == second.injected

    def test_identical_across_passes(self):
        faulty = FaultyStream(_edge_stream(), FaultPlan.mixed(0.3), seed=11)
        assert list(faulty.edges()) == list(faulty.edges())
        assert faulty.passes_taken == 2

    def test_different_seeds_differ(self):
        plan = FaultPlan.mixed(0.4)
        a = FaultyStream(_edge_stream(), plan, seed=1)
        b = FaultyStream(_edge_stream(), plan, seed=2)
        assert list(a.edges()) != list(b.edges())

    def test_injected_counts_populated(self):
        faulty = FaultyStream(_edge_stream(), FaultPlan.mixed(0.8), seed=5)
        assert set(faulty.injected) & {"duplicate", "self_loop", "reverse", "drop"}
        assert all(count > 0 for count in faulty.injected.values())

    def test_truncate_cuts_suffix(self):
        faulty = FaultyStream(
            _edge_stream(), FaultPlan(truncate_fraction=0.5), seed=0
        )
        assert faulty.stream_length == len(EDGES) - len(EDGES) // 2
        assert list(faulty.edges()) == EDGES[: faulty.stream_length]
        assert faulty.injected["truncated_tokens"] == len(EDGES) // 2

    def test_declared_shape_stays_clean(self):
        # Algorithms are told the m the pipeline believes, while the
        # actual token count disagrees — that is the failure under study.
        faulty = FaultyStream(_edge_stream(), FaultPlan(drop_rate=0.9), seed=2)
        assert faulty.num_edges == len(EDGES)
        assert faulty.stream_length < len(EDGES)
        assert not faulty.provides_adjacency

    def test_reverse_swaps_endpoints(self):
        faulty = FaultyStream(
            ArbitraryOrderStream([(0, 1)]), FaultPlan(reverse_rate=1.0), seed=0
        )
        assert list(faulty.edges()) == [(1, 0)]
        assert faulty.injected["reverse"] == 1

    def test_emits_injected_metrics(self):
        with _obs.session() as telemetry:
            FaultyStream(_edge_stream(), FaultPlan.mixed(0.8), seed=5)
            counters = telemetry.metrics.snapshot()["counters"]
        assert any(name.startswith("faults.injected.") for name in counters)

    def test_random_order_base_composes(self):
        faulty = FaultyStream(
            RandomOrderStream(_graph(), seed=4), FaultPlan.mixed(0.2), seed=9
        )
        repaired = ValidatedStream(faulty, POLICY_REPAIR)
        clean = {tuple(sorted(edge)) for edge in repaired.edges()}
        assert clean <= {tuple(sorted(edge)) for edge in EDGES}


class TestFaultyAdjacencyStream:
    def test_provides_adjacency(self):
        faulty = FaultyStream(
            AdjacencyListStream(_graph(), seed=0), FaultPlan(), seed=0
        )
        assert faulty.provides_adjacency
        blocks = list(faulty.adjacency_lists())
        assert sum(len(ns) for _, ns in blocks) == 2 * len(EDGES)

    def test_split_block(self):
        faulty = FaultyStream(
            AdjacencyListStream(_graph(), seed=0),
            FaultPlan(split_block_rate=1.0),
            seed=0,
        )
        blocks = list(faulty.adjacency_lists())
        vertices = [v for v, _ in blocks]
        assert len(vertices) > len(set(vertices))
        assert faulty.injected["split_block"] > 0

    def test_shuffle_blocks(self):
        base = lambda: AdjacencyListStream(_graph(), seed=0)  # noqa: E731
        clean = [v for v, _ in base().adjacency_lists()]
        faulty = FaultyStream(base(), FaultPlan(shuffle_blocks=True), seed=3)
        shuffled = [v for v, _ in faulty.adjacency_lists()]
        assert sorted(shuffled) == sorted(clean)
        assert shuffled != clean
        assert faulty.injected["shuffled_blocks"] == len(clean)

    def test_truncate_can_die_mid_block(self):
        faulty = FaultyStream(
            AdjacencyListStream(_graph(), seed=0),
            FaultPlan(truncate_fraction=0.5),
            seed=0,
        )
        total = sum(len(ns) for _, ns in faulty.adjacency_lists())
        assert total == faulty.stream_length
        assert total == 2 * len(EDGES) - len(EDGES)

    def test_edge_source_has_no_blocks(self):
        faulty = FaultyStream(_edge_stream(), FaultPlan(), seed=0)
        with pytest.raises(TypeError, match="not an adjacency-list source"):
            list(faulty.adjacency_lists())


class TestStackedDecorators:
    """Decorators stack in any order over edge and adjacency sources."""

    @staticmethod
    def _stacks(base):
        plan = FaultPlan.mixed(0.1)
        return [
            FaultyStream(ValidatedStream(base(), POLICY_REPAIR), plan, seed=1),
            FaultyStream(FaultyStream(base(), plan, seed=1), plan, seed=2),
        ]

    def test_over_edge_source(self):
        for stacked in self._stacks(lambda: RandomOrderStream(_graph(), seed=0)):
            assert not stacked.provides_adjacency
            tokens = list(stacked.edges())
            assert len(tokens) == stacked.stream_length
            assert stacked.passes_taken == 1

    def test_over_adjacency_source(self):
        for stacked in self._stacks(lambda: AdjacencyListStream(_graph(), seed=0)):
            assert stacked.provides_adjacency
            blocks = list(stacked.adjacency_lists())
            assert sum(len(ns) for _, ns in blocks) == stacked.stream_length
            assert stacked.passes_taken == 1
