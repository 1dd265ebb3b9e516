"""E12 — Lemma 5.1: at least T (1 - 82/eta) four-cycles contain at
most one bad edge (bad = lying in >= eta * sqrt(T) four-cycles).

Checked exactly — per-edge cycle counts and a full cycle enumeration —
on workloads engineered to stress it: overlapping diamonds (which
concentrate cycles on few edges) and a clique.
"""

import pytest

from repro.experiments import format_records, print_experiment
from repro.graphs import (
    check_lemma51,
    complete_bipartite,
    complete_graph,
    disjoint_union,
    planted_diamonds,
)


def _cycles_with_at_most_one_bad_edge(graph, eta):
    report = check_lemma51(graph, eta)
    return report.cycles_with_at_most_one_bad, report.total_cycles


WORKLOADS = {
    "big-diamond+small": lambda: disjoint_union(
        [complete_bipartite(2, 40), planted_diamonds(400, [4] * 20, seed=1)]
    ),
    "clique-K12": lambda: complete_graph(12),
    "diamond-mixture": lambda: planted_diamonds(
        700, [20] * 4 + [8] * 8 + [3] * 12, extra_edges=150, seed=2
    ),
}


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
@pytest.mark.parametrize("eta", [2.0, 8.0, 90.0])
def test_e12_lemma_holds(workload_name, eta):
    graph = WORKLOADS[workload_name]()
    good, total = _cycles_with_at_most_one_bad_edge(graph, eta)
    bound = total * (1 - 82.0 / eta)
    assert good >= bound, (
        f"{workload_name}, eta={eta}: {good} good cycles < bound {bound}"
    )


def test_e12_report():
    rows = []
    for name, factory in sorted(WORKLOADS.items()):
        graph = factory()
        for eta in (2.0, 8.0, 90.0):
            good, total = _cycles_with_at_most_one_bad_edge(graph, eta)
            rows.append(
                {
                    "workload": name,
                    "eta": eta,
                    "T": total,
                    "cycles_with_<=1_bad": good,
                    "lemma_bound": round(max(0.0, total * (1 - 82.0 / eta)), 1),
                }
            )
    print_experiment("E12 (Lemma 5.1)", format_records(rows))
