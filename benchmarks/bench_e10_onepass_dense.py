"""E10 — Theorem 5.7: one-pass arbitrary-order counting for dense
graphs (T = Omega(n^2)), with 3n counters per estimator copy, plus the
dynamic (insert/delete) extension the paper notes.
"""

import pytest

from repro.core import FourCycleArbitraryOnePass
from repro.experiments import format_records, print_experiment
from repro.experiments.suite import Cell
from repro.streams import ArbitraryOrderStream, RandomOrderStream

from conftest import DENSE

LAYOUT = dict(groups=7, group_size=40)
TRIALS = 5


def test_e10_accuracy(dense_workload):
    workload = dense_workload
    truth = workload.four_cycles
    assert truth > workload.n**2
    stats = Cell(
        *DENSE,
        "four_cycles",
        FourCycleArbitraryOnePass,
        RandomOrderStream,
        {"epsilon": 0.2, **LAYOUT},
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
    print_experiment("E10 (Thm 5.7 accuracy)", format_records(rows))
    assert stats.passes == 1
    assert stats.median_relative_error < 0.3


def test_e10_counter_space_linear_in_n(dense_workload):
    """F2 state is 3 counters per touched vertex per copy — Theta(n)."""
    workload = dense_workload
    result = FourCycleArbitraryOnePass(
        t_guess=workload.four_cycles, epsilon=0.2, seed=1, groups=2, group_size=2
    ).run(RandomOrderStream(workload.graph, seed=1))
    copies = 4
    expected = copies * (1 + 3 * workload.n)
    assert result.space.peak_of("f2_counters") == expected


def test_e10_dynamic_updates(dense_workload):
    """Insert spurious edges, delete them: the estimate matches the
    insert-only run on the same final graph exactly."""
    workload = dense_workload
    algorithm = FourCycleArbitraryOnePass(
        t_guess=workload.four_cycles, epsilon=0.2, seed=5, groups=3, group_size=10
    )
    edges = list(workload.graph.edges())
    spurious = [(9001, 9002), (9002, 9003)]
    updates = (
        [(u, v, 1) for u, v in edges[: len(edges) // 2]]
        + [(u, v, 1) for u, v in spurious]
        + [(u, v, -1) for u, v in spurious]
        + [(u, v, 1) for u, v in edges[len(edges) // 2 :]]
    )
    dynamic = algorithm.run_dynamic(updates, n=workload.n)
    static = FourCycleArbitraryOnePass(
        t_guess=workload.four_cycles, epsilon=0.2, seed=5, groups=3, group_size=10
    ).run(ArbitraryOrderStream.from_graph(workload.graph))
    rows = [
        {"mode": "insert-only", "estimate": round(static.estimate, 1)},
        {"mode": "insert+delete", "estimate": round(dynamic, 1)},
    ]
    print_experiment("E10 (dynamic setting)", format_records(rows))
    assert dynamic == pytest.approx(static.estimate, rel=1e-6)
