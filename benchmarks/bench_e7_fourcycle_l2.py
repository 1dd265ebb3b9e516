"""E7 — Theorem 4.3b: one-pass adjacency-list counting via l2 sampling.

Claim: Õ(Delta + eps^-2 n^2 / T) space — an O(Delta) adjacency buffer
plus a bank of l2 samplers over the wedge vector; each sample (uv, x_uv)
contributes a Bernoulli((x-1)/(4x)) vote and T = mean * F2.
"""

import statistics

from repro.core import FourCycleL2Sampling
from repro.experiments import format_records, print_experiment
from repro.experiments.suite import Cell
from repro.streams import AdjacencyListStream

from conftest import DENSE

SAMPLERS = 60
LAYOUT = dict(groups=7, group_size=40)
TRIALS = 3


def test_e7_accuracy(dense_workload):
    workload = dense_workload
    truth = workload.four_cycles
    stats = Cell(
        *DENSE,
        "four_cycles",
        FourCycleL2Sampling,
        AdjacencyListStream,
        {"epsilon": 0.2, "num_samplers": SAMPLERS, **LAYOUT},
    ).measure(TRIALS, 0)
    rows = [
        {
            "workload": workload.name,
            "truth": truth,
            "median_est": round(stats.median_estimate, 1),
            "median_rel_err": round(stats.median_relative_error, 4),
            "passes": stats.passes,
        }
    ]
    print_experiment("E7 (Thm 4.3b accuracy)", format_records(rows))
    assert stats.passes == 1
    assert stats.median_relative_error < 0.45


def test_e7_sampler_yield_and_space(dense_workload):
    workload = dense_workload
    result = FourCycleL2Sampling(
        t_guess=workload.four_cycles,
        epsilon=0.2,
        num_samplers=SAMPLERS,
        seed=1,
        **LAYOUT,
    ).run(AdjacencyListStream(workload.graph, seed=1))
    details = result.details
    rows = [
        {
            "samplers": SAMPLERS,
            "successful_samples": details["num_samples"],
            "bernoulli_successes": details["bernoulli_successes"],
            "delta_buffer": details["max_degree"],
            "candidate_pairs": details["num_candidate_pairs"],
        }
    ]
    print_experiment("E7 (sampler yield)", format_records(rows))
    # a healthy fraction of the bank must yield samples
    assert details["num_samples"] >= SAMPLERS // 3
    # the Delta buffer matches the true maximum degree
    assert details["max_degree"] == workload.graph.max_degree()


def test_e7_sample_values_follow_x_distribution(dense_workload):
    """Sampled x values skew toward large wedge counts (x^2 weighting)."""
    from repro.graphs import wedge_counts

    workload = dense_workload
    x = wedge_counts(workload.graph)
    mean_x = statistics.mean(x.values())
    result = FourCycleL2Sampling(
        t_guess=workload.four_cycles,
        epsilon=0.2,
        num_samplers=SAMPLERS,
        seed=2,
        **LAYOUT,
    ).run(AdjacencyListStream(workload.graph, seed=2))
    values = result.details["sampled_values"]
    assert values
    assert statistics.mean(values) > mean_x  # size-biased sampling
