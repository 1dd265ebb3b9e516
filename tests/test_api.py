"""The high-level facade (repro.api)."""

import pytest

from repro import api
from repro.core import (
    FourCycleAdjacencyDiamond,
    FourCycleArbitraryOnePass,
    FourCycleArbitraryThreePass,
    FourCycleMoment,
    TriangleRandomOrder,
)
from repro.graphs import erdos_renyi, planted_triangles, triangle_count
from repro.streams import (
    AdjacencyListStream,
    ArbitraryOrderStream,
    RandomOrderStream,
)


class TestStreamFor:
    def test_models(self):
        graph = erdos_renyi(20, 0.3, seed=1)
        assert isinstance(api.stream_for(graph, "random"), RandomOrderStream)
        assert isinstance(api.stream_for(graph, "arbitrary"), ArbitraryOrderStream)
        assert isinstance(api.stream_for(graph, "adjacency"), AdjacencyListStream)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            api.stream_for(erdos_renyi(5, 0.5), "sorted")


class TestMakeCounter:
    def test_triangle_dispatch(self):
        assert isinstance(
            api.make_counter("triangles", "random", t_guess=10), TriangleRandomOrder
        )

    def test_triangles_adjacency_unsupported(self):
        with pytest.raises(ValueError):
            api.make_counter("triangles", "adjacency", t_guess=10)

    def test_fourcycle_dispatch(self):
        assert isinstance(
            api.make_counter("four-cycles", "adjacency", t_guess=10),
            FourCycleAdjacencyDiamond,
        )
        assert isinstance(
            api.make_counter("four-cycles", "arbitrary", t_guess=10),
            FourCycleArbitraryThreePass,
        )

    def test_prefer_one_pass(self):
        assert isinstance(
            api.make_counter(
                "four-cycles", "adjacency", t_guess=10, prefer_one_pass=True
            ),
            FourCycleMoment,
        )
        assert isinstance(
            api.make_counter(
                "four-cycles", "arbitrary", t_guess=10, prefer_one_pass=True
            ),
            FourCycleArbitraryOnePass,
        )

    def test_unknown_problem(self):
        with pytest.raises(ValueError):
            api.make_counter("five-cycles", "random", t_guess=10)

    def test_kwargs_forwarded(self):
        algorithm = api.make_counter(
            "triangles", "random", t_guess=10, disable_heavy_path=True
        )
        assert algorithm.disable_heavy_path


class TestEstimate:
    def test_with_known_t(self):
        graph = planted_triangles(400, 90, extra_edges=400, seed=1)
        truth = triangle_count(graph)
        result = api.estimate(
            graph, problem="triangles", model="random", t_guess=truth, epsilon=0.3
        )
        assert result.relative_error(truth) < 0.6

    def test_with_boost(self):
        graph = planted_triangles(400, 90, extra_edges=400, seed=1)
        truth = triangle_count(graph)
        result = api.estimate(
            graph,
            problem="triangles",
            model="random",
            t_guess=truth,
            epsilon=0.3,
            boost_copies=3,
        )
        assert result.algorithm == "median-boost"
        assert result.details["copies"] == 3

    def test_auto_calibration(self):
        graph = planted_triangles(400, 90, extra_edges=400, seed=1)
        truth = triangle_count(graph)
        result = api.estimate(
            graph, problem="triangles", model="random", epsilon=0.3, seed=2
        )
        assert "guess_table" in result.details
        assert abs(result.estimate - truth) / truth < 0.7

    def test_auto_calibration_applies_boost(self):
        graph = planted_triangles(200, 30, extra_edges=100, seed=1)
        result = api.estimate(graph, epsilon=0.3, seed=1, boost_copies=3)
        categories = result.space.breakdown()
        assert any(name.startswith("guess0_copy2_") for name in categories)


class TestEstimateTransitivity:
    def test_matches_exact_on_clean_graph(self):
        from repro.graphs import global_clustering_coefficient, planted_triangles

        graph = planted_triangles(400, 90, extra_edges=400, seed=1)
        exact = global_clustering_coefficient(graph)
        estimated = api.estimate_transitivity(
            graph, t_guess=triangle_count(graph), epsilon=0.3, seed=1
        )
        assert abs(estimated - exact) / exact < 0.6

    def test_zero_wedges(self):
        from repro.graphs import Graph

        graph = Graph.from_edges([(0, 1)])
        assert api.estimate_transitivity(graph, t_guess=1) == 0.0


class TestEstimateFourCyclesAuto:
    def test_auto_calibration_adjacency(self):
        from repro.graphs import four_cycle_count, planted_diamonds

        graph = planted_diamonds(300, [8, 6, 5], extra_edges=50, seed=2)
        truth = four_cycle_count(graph)
        result = api.estimate(
            graph, problem="four-cycles", model="adjacency", epsilon=0.3, seed=1
        )
        assert abs(result.estimate - truth) / truth < 0.7
        assert result.details["selected_guess"] >= 1

    def test_auto_threepass_reports_passes_and_summed_space(self):
        """The guess instances run side by side: the auto-T result takes
        their pass count and charges the sum of their peaks."""
        from repro.experiments import build_workload, guess_schedule

        graph = build_workload(
            "medium-diamonds", n=600, diamond_size=8, count=10, noise_edges=0
        ).graph
        result = api.estimate(graph, problem="four-cycles", model="arbitrary", seed=3)
        guess_peaks = [
            api.make_counter("four-cycles", "arbitrary", t_guess=guess, seed=3000 + i)
            .run(api.stream_for(graph, "arbitrary", seed=3500 + i))
            .space_items
            for i, guess in enumerate(guess_schedule(graph.num_edges))
        ]
        assert result.passes == 3
        assert result.space_items == sum(guess_peaks) > 0

    def test_transitivity_unknown_t(self):
        from repro.graphs import global_clustering_coefficient, planted_triangles

        graph = planted_triangles(300, 60, extra_edges=200, seed=4)
        exact = global_clustering_coefficient(graph)
        estimated = api.estimate_transitivity(graph, epsilon=0.3, seed=2)
        assert abs(estimated - exact) / exact < 0.8
