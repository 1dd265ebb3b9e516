"""E5 — Theorem 4.2: two-pass adjacency-list four-cycle counting via
diamonds, vs the wedge-pair-sampling comparator.

Claims under test:

* (1+eps) accuracy in exactly two passes on a workload mixing diamond
  sizes across decades;
* at matched expected sample size, the diamond grouping beats counting
  cycles pair-by-pair on large-diamond inputs (the variance argument
  of Section 4.1).
"""

from repro.baselines import WedgePairSamplingFourCycles
from repro.core import FourCycleAdjacencyDiamond
from repro.experiments import format_records, print_experiment, run_trials
from repro.experiments.suite import Cell
from repro.graphs import total_wedges
from repro.streams import AdjacencyListStream

from conftest import DIAMONDS

EPSILON = 0.3
TRIALS = 5


def _diamond_cell(c):
    return Cell(
        *DIAMONDS,
        "four_cycles",
        FourCycleAdjacencyDiamond,
        AdjacencyListStream,
        {"epsilon": EPSILON, "c": c},
    )


def test_e5_accuracy_and_passes(diamond_workload):
    workload = diamond_workload
    truth = workload.four_cycles
    stats = _diamond_cell(0.5).measure(TRIALS, 0)
    rows = [
        {
            "workload": workload.name,
            "truth": truth,
            "median_est": round(stats.median_estimate, 1),
            "median_rel_err": round(stats.median_relative_error, 4),
            "passes": stats.passes,
            "median_space": stats.median_space,
        }
    ]
    print_experiment("E5 (Thm 4.2 accuracy)", format_records(rows))
    assert stats.passes == 2
    assert stats.median_relative_error < EPSILON


def test_e5_vs_wedge_pair_baseline(diamond_workload):
    """Matched-budget comparison on a large-diamond-dominated graph."""
    workload = diamond_workload
    truth = workload.four_cycles
    wedges = total_wedges(workload.graph)

    diamond_stats = _diamond_cell(0.3).measure(TRIALS, 0)
    # hand the baseline the same expected wedge-sample budget
    budget = max(10, int(diamond_stats.median_space))
    baseline_stats = run_trials(
        lambda seed: WedgePairSamplingFourCycles.for_space_budget(
            wedges, budget, seed=seed
        ),
        lambda seed: AdjacencyListStream(workload.graph, seed=seed),
        truth=truth,
        trials=TRIALS,
    )
    rows = [
        {
            "algorithm": "diamond (Thm 4.2)",
            "median_rel_err": round(diamond_stats.median_relative_error, 4),
            "mean_rel_err": round(diamond_stats.mean_relative_error, 4),
            "budget_items": budget,
        },
        {
            "algorithm": "wedge-pair sampling",
            "median_rel_err": round(baseline_stats.median_relative_error, 4),
            "mean_rel_err": round(baseline_stats.mean_relative_error, 4),
            "budget_items": budget,
        },
    ]
    print_experiment("E5 (diamond grouping vs pair sampling)", format_records(rows))
    assert diamond_stats.median_relative_error < EPSILON
