"""Theorem 2.1: the one-pass random-order triangle counter."""

import ast
import hashlib
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import TriangleRandomOrder
from repro.graphs import (
    barabasi_albert,
    complete_graph,
    erdos_renyi,
    heavy_edge_graph,
    max_edge_triangle_count,
    planted_triangles,
    triangle_count,
)
from repro.streams import RandomOrderStream


def _median_estimate(graph, t_guess, trials=7, **kwargs):
    estimates = []
    for seed in range(trials):
        algorithm = TriangleRandomOrder(t_guess=t_guess, seed=seed, **kwargs)
        stream = RandomOrderStream(graph, seed=100 + seed)
        estimates.append(algorithm.run(stream).estimate)
    return statistics.median(estimates)


class TestValidation:
    def test_parameter_checks(self):
        with pytest.raises(ValueError):
            TriangleRandomOrder(t_guess=0)
        with pytest.raises(ValueError):
            TriangleRandomOrder(t_guess=10, epsilon=0.0)
        with pytest.raises(ValueError):
            TriangleRandomOrder(t_guess=10, c=0.0)

    def test_empty_stream(self):
        from repro.streams import ArbitraryOrderStream

        result = TriangleRandomOrder(t_guess=1).run(ArbitraryOrderStream([]))
        assert result.estimate == 0.0


class TestAccuracy:
    def test_triangle_free_graph_estimates_zero_ish(self):
        graph = erdos_renyi(200, 0.01, seed=5)
        if triangle_count(graph) == 0:
            estimate = _median_estimate(graph, t_guess=4, epsilon=0.3)
            assert estimate == 0.0

    def test_light_workload(self):
        graph = planted_triangles(600, 150, extra_edges=800, seed=1)
        truth = triangle_count(graph)
        estimate = _median_estimate(graph, t_guess=truth, epsilon=0.3)
        assert abs(estimate - truth) / truth < 0.3

    def test_heavy_edge_workload(self):
        """The paper's headline case: one edge holds most triangles."""
        graph = heavy_edge_graph(1200, heavy_triangles=300, light_triangles=100, seed=1)
        truth = triangle_count(graph)
        assert max_edge_triangle_count(graph) == 300
        estimate = _median_estimate(graph, t_guess=truth, epsilon=0.3)
        assert abs(estimate - truth) / truth < 0.3

    def test_heavy_edge_is_caught(self):
        """The heavy edge is identified unless it lands inside every
        useful prefix (probability ~ 2^i / sqrt(T) per Lemma 2.3 — a
        real, bounded failure mode, so we assert a clear majority)."""
        graph = heavy_edge_graph(1200, heavy_triangles=300, light_triangles=100, seed=1)
        truth = triangle_count(graph)
        caught = 0
        for seed in range(9):
            algorithm = TriangleRandomOrder(t_guess=truth, epsilon=0.3, seed=seed)
            result = algorithm.run(RandomOrderStream(graph, seed=200 + seed))
            caught += result.details["heavy_edges_caught"] >= 1
        assert caught >= 5

    def test_heavy_edge_estimate_robust_via_median(self):
        """Even with occasional heavy-edge misses, the median across
        trials stays within the target band."""
        graph = heavy_edge_graph(1200, heavy_triangles=300, light_triangles=100, seed=1)
        truth = triangle_count(graph)
        estimates = []
        for seed in range(9):
            algorithm = TriangleRandomOrder(t_guess=truth, epsilon=0.3, seed=seed)
            result = algorithm.run(RandomOrderStream(graph, seed=200 + seed))
            estimates.append(result.estimate)
        median = statistics.median(estimates)
        assert abs(median - truth) / truth < 0.3

    def test_dense_graph(self):
        graph = complete_graph(30)
        truth = triangle_count(graph)  # 4060
        estimate = _median_estimate(graph, t_guess=truth, epsilon=0.3, trials=5)
        assert abs(estimate - truth) / truth < 0.35


class TestSpace:
    def test_space_shrinks_with_t(self):
        """The m/sqrt(T) law: larger T (same m) => less space."""
        small_t = planted_triangles(3000, 60, extra_edges=3000, seed=2)
        large_t = planted_triangles(3000, 900, extra_edges=480, seed=2)
        assert abs(small_t.num_edges - large_t.num_edges) < 400
        kwargs = dict(epsilon=0.3, c=0.05, use_log_factor=False)
        space_small = TriangleRandomOrder(
            t_guess=triangle_count(small_t), seed=1, **kwargs
        ).run(RandomOrderStream(small_t, seed=1)).space_items
        space_large = TriangleRandomOrder(
            t_guess=triangle_count(large_t), seed=1, **kwargs
        ).run(RandomOrderStream(large_t, seed=1)).space_items
        assert space_large < space_small

    def test_meter_categories_present(self):
        graph = planted_triangles(300, 40, extra_edges=200, seed=3)
        truth = triangle_count(graph)
        result = TriangleRandomOrder(t_guess=truth, seed=0).run(
            RandomOrderStream(graph, seed=0)
        )
        breakdown = result.space.breakdown()
        assert "prefix_S" in breakdown


class TestDiagnostics:
    def test_details_keys(self):
        graph = planted_triangles(300, 40, extra_edges=200, seed=3)
        truth = triangle_count(graph)
        result = TriangleRandomOrder(t_guess=truth, seed=0).run(
            RandomOrderStream(graph, seed=0)
        )
        for key in ("t0_hat", "heavy_hat", "size_S", "size_C", "size_P", "num_levels"):
            assert key in result.details
        assert result.passes == 1
        assert result.algorithm == "mv-triangle-random-order"

    def test_estimate_decomposition(self):
        graph = planted_triangles(300, 40, extra_edges=200, seed=3)
        truth = triangle_count(graph)
        result = TriangleRandomOrder(t_guess=truth, seed=0).run(
            RandomOrderStream(graph, seed=0)
        )
        assert result.estimate == pytest.approx(
            result.details["t0_hat"] + result.details["heavy_hat"]
        )


def _golden_graphs():
    return {
        "planted": planted_triangles(3000, 900, extra_edges=3000, seed=2),
        "social": barabasi_albert(500, 10, seed=5),
        "heavy": heavy_edge_graph(1200, heavy_triangles=300, light_triangles=100, seed=1),
    }


def _as_str(graph):
    return graph.relabeled({v: f"v{v}" for v in graph.vertices()})


# (graph, relabel, kwargs) -> (estimate, passes, space.peak, meter
# mutations, sha256 prefix of repr(space.timeline()), space.breakdown(),
# details).  "planted" (m=5,700) and "social" (m=4,945) span more than
# one 4,096-edge chunk; "heavy" has one edge in 300 triangles.  A guess
# of T = 10^40 gives 68 levels, of which levels 57..67 store edges.
_GOLDEN = {
    "int-planted-light": (
        ("planted", None, dict(epsilon=0.5, c=0.4, use_log_factor=False)),
        (937.4999999999998, 1, 10717, 10717, "23f454e8ccbd863f",
         {"level_0_edges": 189, "level_1_edges": 378, "level_2_edges": 757,
          "level_3_edges": 1514, "level_4_edges": 3029, "prefix_S": 152,
          "level_5_edges": 4270, "potential_heavy_P": 426, "candidates_C": 2},
         {"t0_hat": 937.4999999999998, "heavy_hat": 0.0, "num_levels": 6,
          "oracle_prob": 0.5, "heavy_threshold": 15.049916943292411,
          "prefix_fraction_r": 0.02666666666666667, "size_S": 152, "size_C": 2,
          "size_P": 426, "heavy_edges_caught": 0, "oracle_calls": 430,
          "level_edge_counts": [189, 378, 757, 1514, 3029, 4270]}),
    ),
    "int-social-light": (
        ("social", None, dict(epsilon=0.7, c=0.3, use_log_factor=False)),
        (9692.043202536663, 1, 4123, 4123, "717fd4b1e25cf18b",
         {"level_0_edges": 66, "level_1_edges": 133, "level_2_edges": 266,
          "level_3_edges": 508, "level_4_edges": 693, "prefix_S": 29,
          "level_7_edges": 426, "level_5_edges": 627, "level_6_edges": 807,
          "potential_heavy_P": 567, "candidates_C": 1},
         {"t0_hat": 9692.043202536663, "heavy_hat": 0.0, "num_levels": 8,
          "oracle_prob": 0.04783163265306123, "heavy_threshold": 3.554698137578996,
          "prefix_fraction_r": 0.0058645096056622855, "size_S": 29, "size_C": 1,
          "size_P": 567, "heavy_edges_caught": 0, "oracle_calls": 569,
          "level_edge_counts": [66, 133, 266, 508, 693, 627, 807, 426]}),
    ),
    "int-heavy": (
        ("heavy", None, dict(epsilon=0.3, c=0.02, use_log_factor=False)),
        (244.79999999999998, 1, 846, 846, "934efdf6082bc13b",
         {"level_0_edges": 45, "level_1_edges": 90, "level_2_edges": 173,
          "level_3_edges": 218, "prefix_S": 4, "level_4_edges": 133,
          "level_5_edges": 64, "potential_heavy_P": 119},
         {"t0_hat": 0.0, "heavy_hat": 244.79999999999998, "num_levels": 6,
          "oracle_prob": 0.06944444444444445, "heavy_threshold": 1.3888888888888888,
          "prefix_fraction_r": 0.004439511653718091, "size_S": 4, "size_C": 0,
          "size_P": 119, "heavy_edges_caught": 1, "oracle_calls": 148,
          "level_edge_counts": [45, 90, 173, 218, 133, 64]}),
    ),
    "str-heavy": (
        ("heavy", _as_str, dict(epsilon=0.3, c=0.02, use_log_factor=False)),
        (288.0, 1, 1054, 1054, "e403da5acbb8a475",
         {"level_0_edges": 45, "level_1_edges": 90, "level_2_edges": 104,
          "level_3_edges": 221, "prefix_S": 4, "level_4_edges": 344,
          "level_5_edges": 77, "potential_heavy_P": 169},
         {"t0_hat": 0.0, "heavy_hat": 288.0, "num_levels": 6,
          "oracle_prob": 0.06944444444444445, "heavy_threshold": 1.3888888888888888,
          "prefix_fraction_r": 0.004439511653718091, "size_S": 4, "size_C": 0,
          "size_P": 169, "heavy_edges_caught": 1, "oracle_calls": 198,
          "level_edge_counts": [45, 90, 104, 221, 344, 77]}),
    ),
    "str-social-heavy": (
        ("social", _as_str, dict(epsilon=0.7, c=0.3, use_log_factor=False)),
        (5613.44, 1, 4776, 4776, "3a521ec0273d01e4",
         {"level_0_edges": 66, "level_1_edges": 133, "level_2_edges": 266,
          "level_3_edges": 503, "level_4_edges": 636, "level_5_edges": 815,
          "prefix_S": 29, "level_6_edges": 815, "level_7_edges": 815,
          "potential_heavy_P": 698},
         {"t0_hat": 0.0, "heavy_hat": 5613.44, "num_levels": 8,
          "oracle_prob": 0.04783163265306123, "heavy_threshold": 3.554698137578996,
          "prefix_fraction_r": 0.0058645096056622855, "size_S": 29, "size_C": 0,
          "size_P": 698, "heavy_edges_caught": 61, "oracle_calls": 872,
          "level_edge_counts": [66, 133, 266, 503, 636, 815, 815, 815]}),
    ),
    "int-planted-no-heavy-path": (
        ("planted", None, dict(epsilon=0.5, c=0.4, use_log_factor=False,
                              disable_heavy_path=True)),
        (937.4999999999998, 1, 154, 154, "e80b5c8bc39f45f2",
         {"prefix_S": 152, "candidates_C": 2},
         {"t0_hat": 937.4999999999998, "heavy_hat": 0.0, "num_levels": 0,
          "oracle_prob": 1.0, "heavy_threshold": 30.099833886584822,
          "prefix_fraction_r": 0.02666666666666667, "size_S": 152, "size_C": 2,
          "size_P": 0, "heavy_edges_caught": 0, "oracle_calls": 6,
          "level_edge_counts": []}),
    ),
    "int-heavy-exact": (
        ("heavy", None, dict(epsilon=0.3, c=1.0)),
        (430.5470666491236, 1, 2704, 2704, "a62ba73b66e5dc25",
         {"level_0_edges": 45, "level_1_edges": 90, "level_2_edges": 180,
          "level_3_edges": 360, "level_4_edges": 720, "level_5_edges": 901,
          "prefix_S": 151, "potential_heavy_P": 245, "candidates_C": 12},
         {"t0_hat": 130.5470666491236, "heavy_hat": 300.0, "num_levels": 6,
          "oracle_prob": 1.0, "heavy_threshold": 20.0,
          "prefix_fraction_r": 0.16759156492785793, "size_S": 151, "size_C": 12,
          "size_P": 245, "heavy_edges_caught": 1, "oracle_calls": 677,
          "level_edge_counts": [45, 90, 180, 360, 720, 901]}),
    ),
    "int-heavy-huge-t": (
        ("heavy", None, dict(t_guess=1e40, epsilon=0.3, c=1e17, use_log_factor=False)),
        (0.0, 1, 914, 914, "2bb86101f14f3ec7",
         {"level_57_edges": 1, "level_58_edges": 2, "level_59_edges": 5,
          "level_60_edges": 10, "level_61_edges": 20, "level_62_edges": 41,
          "level_63_edges": 83, "level_64_edges": 143, "level_66_edges": 326,
          "prefix_S": 4, "level_65_edges": 120, "level_67_edges": 77,
          "potential_heavy_P": 82},
         {"t0_hat": 0.0, "heavy_hat": 0.0, "num_levels": 68,
          "oracle_prob": 0.07529181753371558, "heavy_threshold": 7.529181753371558e+18,
          "prefix_fraction_r": 0.004439511653718091, "size_S": 4, "size_C": 0,
          "size_P": 82, "heavy_edges_caught": 0, "oracle_calls": 82,
          "level_edge_counts": [0] * 57 + [1, 2, 5, 10, 20, 41, 83, 143, 120, 326, 77]}),
    ),
}


def _observe(case):
    """One golden run's outputs, in the order ``_GOLDEN`` pins them."""
    graph_name, relabel, kwargs = _GOLDEN[case][0]
    graph = _golden_graphs()[graph_name]
    if relabel is not None:
        graph = relabel(graph)
    params = {"t_guess": triangle_count(graph), "seed": 1, **kwargs}
    result = TriangleRandomOrder(**params).run(RandomOrderStream(graph, seed=3))
    timeline = hashlib.sha256(repr(result.space.timeline()).encode()).hexdigest()[:16]
    return (
        result.estimate,
        result.passes,
        result.space.peak,
        result.space.mutations,
        timeline,
        result.space.breakdown(),
        result.details,
    )


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_golden_runs(case):
    """Pinned outputs: estimate, passes, space (peak, per-category peaks,
    mutation count and timeline) and every details entry."""
    assert _observe(case) == _GOLDEN[case][1]


def _observe_in_child(case, hash_seed):
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
    )
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "from tests.core.test_triangle_random_order import _observe; "
            f"print(repr(_observe({case!r})))",
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=root,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return ast.literal_eval(completed.stdout)


def test_heavy_estimate_ignores_hash_seed():
    """On str vertices set iteration order changes with ``PYTHONHASHSEED``.
    The heavy estimate counts triangles per number of other heavy edges
    as integers, so a sampling run (p < 1) with heavy edges gives the
    same outputs under hash seeds that order its sets differently."""
    outputs = [_observe_in_child("str-social-heavy", seed) for seed in (0, 2)]
    assert outputs[0] == outputs[1] == _GOLDEN["str-social-heavy"][1]
    details = outputs[0][6]
    assert details["oracle_prob"] < 1 and details["heavy_hat"] > 0
