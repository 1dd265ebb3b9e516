"""Theorem 5.3: the three-pass arbitrary-order four-cycle counter."""

import statistics

import pytest

from repro.core import FourCycleArbitraryThreePass, subsample_q
from repro.experiments import run_trials
from repro.graphs import (
    complete_bipartite,
    disjoint_union,
    four_cycle_count,
    friendship_graph,
    planted_diamonds,
    planted_four_cycles,
)
from repro.streams import RandomOrderStream


class TestSubsampleQ:
    @pytest.mark.parametrize("p", [0.01, 0.05, 0.09, 0.2, 0.4])
    def test_satisfies_defining_equation(self, p):
        q = subsample_q(p)
        assert p * (0.4 + q) ** 2 == pytest.approx(q, rel=1e-9)

    def test_small_p_asymptotics(self):
        # q ~ 0.16 p as p -> 0
        assert subsample_q(0.001) == pytest.approx(0.16 * 0.001, rel=0.05)

    def test_q_below_cap_in_paper_regime(self):
        assert subsample_q(0.09) <= 0.2

    def test_validates(self):
        with pytest.raises(ValueError):
            subsample_q(0.0)
        with pytest.raises(ValueError):
            subsample_q(1.0)


class TestValidation:
    def test_parameter_checks(self):
        with pytest.raises(ValueError):
            FourCycleArbitraryThreePass(t_guess=0)
        with pytest.raises(ValueError):
            FourCycleArbitraryThreePass(t_guess=5, eta=0)


class TestExactMode:
    """p = 1: stored cycles and the A0/A1 identity must be exact."""

    def test_planted_cycles(self):
        graph = planted_four_cycles(1200, 200, extra_edges=300, seed=9)
        truth = four_cycle_count(graph)
        result = FourCycleArbitraryThreePass(t_guess=truth, epsilon=0.3, seed=1).run(
            RandomOrderStream(graph, seed=1)
        )
        assert result.details["p"] == 1.0
        assert result.estimate == pytest.approx(truth)

    def test_heavy_edges_exact_via_a1(self):
        """A graph with every edge heavy (one big diamond): in exact
        mode the A0/4 + A1 coefficients must still reproduce T when
        exactly one edge per cycle is classified heavy ... or all-light
        classification keeps it in A0.  Either way the identity holds."""
        graph = disjoint_union(
            [complete_bipartite(2, 60), planted_four_cycles(600, 80, seed=3)]
        )
        truth = four_cycle_count(graph)
        result = FourCycleArbitraryThreePass(
            t_guess=truth, epsilon=0.3, eta=2.0, seed=1
        ).run(RandomOrderStream(graph, seed=2))
        assert result.details["p"] == 1.0
        assert result.estimate == pytest.approx(truth)

    def test_cycle_free(self):
        graph = friendship_graph(80)
        result = FourCycleArbitraryThreePass(t_guess=50, seed=1).run(
            RandomOrderStream(graph, seed=1)
        )
        assert result.estimate == 0.0
        assert result.details["stored_pairs"] == 0


class TestSampledMode:
    def test_medium_diamond_accuracy(self):
        graph = planted_diamonds(3000, [12] * 60, extra_edges=600, seed=11)
        truth = four_cycle_count(graph)
        estimates = []
        for seed in range(5):
            algorithm = FourCycleArbitraryThreePass(
                t_guess=truth, epsilon=0.3, eta=2.0, c=0.6, seed=seed, use_log_factor=False
            )
            result = algorithm.run(RandomOrderStream(graph, seed=500 + seed))
            assert result.details["p"] < 1.0
            estimates.append(result.estimate)
        median = statistics.median(estimates)
        assert abs(median - truth) / truth < 0.3

    def test_three_passes(self):
        graph = planted_four_cycles(400, 40, seed=2)
        stream = RandomOrderStream(graph, seed=3)
        result = FourCycleArbitraryThreePass(t_guess=160, seed=1).run(stream)
        assert result.passes == 3

    def test_pass_count_independent_of_seed(self):
        """Pass 3 runs even when pass 2 stored no cycle: at p ~ 0.18,
        four of these ten trials store none, and all take 3 passes."""
        graph = planted_four_cycles(400, 100, seed=0)
        stats = run_trials(
            lambda seed: FourCycleArbitraryThreePass(
                t_guess=100, epsilon=0.3, c=0.05, seed=seed, use_log_factor=False
            ),
            lambda seed: RandomOrderStream(graph, seed=seed),
            truth=four_cycle_count(graph),
            trials=10,
            base_seed=0,
        )
        assert stats.passes == 3
        stored = [result.details["stored_pairs"] for result in stats.results]
        assert stored.count(0) == 4
        assert {result.passes for result in stats.results} == {3}

    def test_details(self):
        graph = planted_four_cycles(400, 40, seed=2)
        result = FourCycleArbitraryThreePass(t_guess=160, seed=1).run(
            RandomOrderStream(graph, seed=3)
        )
        for key in ("p", "stored_pairs", "a0", "a1", "num_oracles", "num_heavy_edges"):
            assert key in result.details
        assert result.details["a0"] + result.details["a1"] <= result.details[
            "stored_pairs"
        ]
