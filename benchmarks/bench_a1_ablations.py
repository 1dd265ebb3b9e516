"""A1 — ablations of the design choices DESIGN.md calls out.

Each ablation removes one mechanism the paper argues is necessary and
shows the failure it was guarding against:

1. **Heavy-edge machinery off** (Theorem 2.1).  Without the level
   structures and the oracle, the estimator is exactly the
   prior-work prefix sampler of Section 2.1.1 — and on a heavy-edge
   workload it loses the heavy edge's triangles.

2. **Boundary shifts off** (Theorem 4.2).  With a single shift, the
   accept windows ``[(1+eps/6) b, 2 (1-eps/6) b)`` leave gaps around
   every class boundary; diamonds planted exactly at powers of two
   fall in the gaps and are missed.  The full shift sweep recovers
   them.

3. **Heavy-edge threshold eta** (Theorem 5.3).  With eta too small,
   every edge of a big diamond is "heavy", multi-heavy cycles are
   dropped, and the estimate collapses to the light remainder —
   quantifying the ``T (1 - 164/eta)`` accuracy loss.
"""

import statistics

import pytest

from repro.core import (
    FourCycleAdjacencyDiamond,
    FourCycleArbitraryThreePass,
    TriangleRandomOrder,
)
from repro.experiments import format_records, print_experiment
from repro.graphs import (
    complete_bipartite,
    disjoint_union,
    four_cycle_count,
    heavy_edge_graph,
    planted_diamonds,
    planted_four_cycles,
    triangle_count,
)
from repro.streams import AdjacencyListStream, RandomOrderStream

TRIALS = 7


def test_ablation_heavy_machinery():
    graph = heavy_edge_graph(1500, heavy_triangles=400, light_triangles=150, seed=1)
    truth = triangle_count(graph)

    def median_estimate(disable):
        estimates = [
            TriangleRandomOrder(
                t_guess=truth, epsilon=0.3, seed=seed, disable_heavy_path=disable
            )
            .run(RandomOrderStream(graph, seed=100 + seed))
            .estimate
            for seed in range(TRIALS)
        ]
        return statistics.median(estimates)

    full = median_estimate(disable=False)
    ablated = median_estimate(disable=True)
    rows = [
        {"variant": "full (Thm 2.1)", "median_est": round(full, 1), "truth": truth},
        {"variant": "heavy path off", "median_est": round(ablated, 1), "truth": truth},
    ]
    print_experiment("A1.1 (heavy-edge machinery)", format_records(rows))
    assert abs(full - truth) / truth < 0.3
    # without the heavy path the 400-triangle edge's mass is mostly lost
    assert ablated < 0.6 * truth


def test_ablation_boundary_shifts():
    # diamond sizes at exact powers of two sit in every single-shift gap
    graph = planted_diamonds(1200, sizes=[8] * 10 + [16] * 6 + [32] * 3, seed=2)
    truth = four_cycle_count(graph)

    def median_estimate(num_shifts):
        estimates = [
            FourCycleAdjacencyDiamond(
                t_guess=truth, epsilon=0.3, seed=seed, num_shifts=num_shifts
            )
            .run(AdjacencyListStream(graph, seed=100 + seed))
            .estimate
            for seed in range(3)
        ]
        return statistics.median(estimates)

    full = median_estimate(num_shifts=None)
    single = median_estimate(num_shifts=1)
    rows = [
        {"variant": "full shift sweep", "median_est": round(full, 1), "truth": truth},
        {"variant": "single shift", "median_est": round(single, 1), "truth": truth},
    ]
    print_experiment("A1.2 (boundary shifts)", format_records(rows))
    assert abs(full - truth) / truth < 0.3
    assert single < 0.5 * truth


def test_ablation_eta_threshold():
    graph = disjoint_union(
        [complete_bipartite(2, 60), planted_four_cycles(700, 90, seed=3)]
    )
    truth = four_cycle_count(graph)  # 1770 diamond cycles + 90 planted

    def estimate(eta):
        # exact-sampling mode (p=1) isolates the eta effect
        return (
            FourCycleArbitraryThreePass(t_guess=truth, epsilon=0.3, eta=eta, seed=1)
            .run(RandomOrderStream(graph, seed=5))
            .estimate
        )

    tiny_eta = estimate(0.5)
    large_eta = estimate(100.0)
    rows = [
        {"eta": 0.5, "estimate": round(tiny_eta, 1), "truth": truth},
        {"eta": 100.0, "estimate": round(large_eta, 1), "truth": truth},
    ]
    print_experiment("A1.3 (eta threshold, exact sampling)", format_records(rows))
    assert large_eta == pytest.approx(truth)
    # eta=0.5 marks the big diamond's edges heavy; its multi-heavy
    # cycles are dropped, leaving ~ the planted remainder
    assert tiny_eta < 0.25 * truth
