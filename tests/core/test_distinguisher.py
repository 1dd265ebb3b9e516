"""Theorem 5.6: the two-pass 0-vs-T four-cycle distinguisher."""

import math

import pytest

from repro.core import FourCycleDistinguisher
from repro.graphs import (
    complete_bipartite,
    four_cycle_count,
    friendship_graph,
    planted_four_cycles,
    star_graph,
)
from repro.streams import ArbitraryOrderStream, RandomOrderStream


class TestValidation:
    def test_parameter_checks(self):
        with pytest.raises(ValueError):
            FourCycleDistinguisher(t_guess=0)
        with pytest.raises(ValueError):
            FourCycleDistinguisher(t_guess=5, c=0)


class TestOneSidedNo:
    """On four-cycle-free graphs the answer is always NO."""

    @pytest.mark.parametrize("seed", range(4))
    def test_friendship_graph(self, seed):
        graph = friendship_graph(120)
        algorithm = FourCycleDistinguisher(t_guess=60, c=3.0, seed=seed)
        assert not algorithm.decide(ArbitraryOrderStream.from_graph(graph))

    def test_star(self):
        graph = star_graph(200)
        algorithm = FourCycleDistinguisher(t_guess=40, c=3.0, seed=1)
        assert not algorithm.decide(ArbitraryOrderStream.from_graph(graph))


class TestYesDetection:
    def test_planted_cycles_detected_majority(self):
        graph = planted_four_cycles(500, 80, extra_edges=100, seed=4)
        truth = four_cycle_count(graph)
        hits = 0
        for seed in range(9):
            algorithm = FourCycleDistinguisher(t_guess=truth, c=3.0, seed=seed)
            hits += algorithm.decide(RandomOrderStream(graph, seed=800 + seed))
        assert hits >= 6  # theorem promises >= 2/3

    def test_dense_bipartite_detected(self):
        graph = complete_bipartite(10, 10)
        truth = four_cycle_count(graph)
        algorithm = FourCycleDistinguisher(t_guess=truth, c=2.0, seed=1)
        assert algorithm.decide(ArbitraryOrderStream.from_graph(graph))

    def test_witness_is_a_real_cycle(self):
        graph = complete_bipartite(6, 6)
        result = FourCycleDistinguisher(t_guess=four_cycle_count(graph), c=2.0, seed=1).run(
            ArbitraryOrderStream.from_graph(graph)
        )
        if result.details["found"]:
            a, b, c, d = result.details["witness"]
            assert graph.has_edge(a, b)
            assert graph.has_edge(b, c)
            assert graph.has_edge(c, d)
            assert graph.has_edge(d, a)


class TestSpaceBound:
    def test_kst_cap_respected(self):
        """Collected induced edges never exceed 2 |V_S|^{3/2}."""
        graph = planted_four_cycles(800, 100, extra_edges=400, seed=5)
        truth = four_cycle_count(graph)
        for seed in range(4):
            result = FourCycleDistinguisher(t_guess=truth, c=1.0, seed=seed).run(
                RandomOrderStream(graph, seed=900 + seed)
            )
            collected = result.details["induced_edges_collected"]
            cap = 2.0 * result.details["sampled_vertices"] ** 1.5
            assert collected <= math.ceil(cap)

    def test_two_passes(self):
        graph = planted_four_cycles(300, 30, seed=6)
        stream = ArbitraryOrderStream.from_graph(graph)
        FourCycleDistinguisher(t_guess=30, seed=1).run(stream)
        assert stream.passes_taken == 2

