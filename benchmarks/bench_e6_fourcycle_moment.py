"""E6 — Theorem 4.3a: one-pass adjacency-list counting via moments.

Claim: (1+eps) in one pass when T = Omega(n^2), estimating F2(x) with
O(1)-per-copy counters and F1(z) by hash pair sampling.  The component
table reports both moment estimates against their exact values.
"""

import statistics

from repro.core import FourCycleMoment
from repro.experiments import format_records, print_experiment
from repro.experiments.suite import Cell
from repro.graphs import wedge_counts
from repro.streams import AdjacencyListStream

from conftest import DENSE

EPSILON = 0.2
LAYOUT = dict(groups=7, group_size=60)
TRIALS = 5


def test_e6_accuracy(dense_workload):
    workload = dense_workload
    truth = workload.four_cycles
    assert truth > workload.n**2, "workload must be in the T = Omega(n^2) regime"
    stats = Cell(
        *DENSE,
        "four_cycles",
        FourCycleMoment,
        AdjacencyListStream,
        {"epsilon": EPSILON, **LAYOUT},
    ).measure(TRIALS, 0)
    rows = [
        {
            "workload": workload.name,
            "n^2": workload.n**2,
            "truth": truth,
            "median_est": round(stats.median_estimate, 1),
            "median_rel_err": round(stats.median_relative_error, 4),
            "passes": stats.passes,
        }
    ]
    print_experiment("E6 (Thm 4.3a accuracy)", format_records(rows))
    assert stats.passes == 1
    assert stats.median_relative_error < 0.3


def test_e6_moment_components(dense_workload):
    workload = dense_workload
    x = wedge_counts(workload.graph)
    f2_true = sum(v * v for v in x.values())
    cap = 1.0 / EPSILON
    f1_true = sum(min(v, cap) for v in x.values())

    f2_estimates, f1_estimates = [], []
    for seed in range(TRIALS):
        result = FourCycleMoment(
            t_guess=workload.four_cycles, epsilon=EPSILON, seed=seed, **LAYOUT
        ).run(AdjacencyListStream(workload.graph, seed=seed))
        f2_estimates.append(result.details["f2_hat"])
        f1_estimates.append(result.details["f1_hat"])
    rows = [
        {
            "moment": "F2(x)",
            "true": f2_true,
            "median_est": round(statistics.median(f2_estimates), 1),
            "median_rel_err": round(
                abs(statistics.median(f2_estimates) - f2_true) / f2_true, 4
            ),
        },
        {
            "moment": "F1(z)",
            "true": f1_true,
            "median_est": round(statistics.median(f1_estimates), 1),
            "median_rel_err": (
                round(abs(statistics.median(f1_estimates) - f1_true) / f1_true, 4)
                if f1_true
                else 0
            ),
        },
    ]
    print_experiment("E6 (moment components)", format_records(rows))
    assert abs(statistics.median(f2_estimates) - f2_true) / f2_true < 0.3
    # F1 additive term is small relative to F2 in this regime
    assert f1_true < 0.2 * f2_true
