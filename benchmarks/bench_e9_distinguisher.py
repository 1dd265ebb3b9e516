"""E9 — Theorem 5.6: the two-pass 0-vs-T distinguisher.

Claims under test:

* detection probability >= 2/3 on T-cycle instances, zero false
  positives on cycle-free instances (one-sided);
* collected induced edges bounded by the Kővári–Sós–Turán cap
  2 |V_S|^{3/2} — the Õ(m^{3/2}/T^{3/4}) space driver.
"""

import math

from repro.core import FourCycleDistinguisher
from repro.experiments import decision_rate, format_records, print_experiment
from repro.graphs import friendship_graph
from repro.streams import ArbitraryOrderStream, RandomOrderStream

TRIALS = 12


def test_e9_detection_rates(sparse_c4_workload):
    yes_workload = sparse_c4_workload
    truth = yes_workload.four_cycles
    no_graph = friendship_graph(600)

    yes_rate = decision_rate(
        lambda seed: FourCycleDistinguisher(t_guess=truth, c=3.0, seed=seed).decide(
            RandomOrderStream(yes_workload.graph, seed=seed)
        ),
        trials=TRIALS,
    )
    no_rate = decision_rate(
        lambda seed: FourCycleDistinguisher(t_guess=truth, c=3.0, seed=seed).decide(
            ArbitraryOrderStream.from_graph(no_graph)
        ),
        trials=TRIALS,
    )
    rows = [
        {"instance": f"T={truth} cycles", "detection_rate": yes_rate},
        {"instance": "cycle-free", "detection_rate": no_rate},
    ]
    print_experiment("E9 (0 vs T detection)", format_records(rows))
    assert yes_rate >= 2 / 3
    assert no_rate == 0.0


def test_e9_space_cap(sparse_c4_workload):
    workload = sparse_c4_workload
    truth = workload.four_cycles
    rows = []
    for seed in range(5):
        result = FourCycleDistinguisher(t_guess=truth, c=1.5, seed=seed).run(
            RandomOrderStream(workload.graph, seed=seed)
        )
        cap = 2.0 * result.details["sampled_vertices"] ** 1.5
        rows.append(
            {
                "seed": seed,
                "sampled_vertices": result.details["sampled_vertices"],
                "induced_edges": result.details["induced_edges_collected"],
                "kst_cap": round(cap, 1),
                "found": result.details["found"],
            }
        )
        assert result.details["induced_edges_collected"] <= math.ceil(cap)
    print_experiment("E9 (KST space cap)", format_records(rows))


def test_e9_space_shrinks_with_t(sparse_c4_workload):
    """Larger promised T => smaller sample => fewer stored items."""
    workload = sparse_c4_workload
    small = FourCycleDistinguisher(t_guess=50, c=1.5, seed=1).run(
        RandomOrderStream(workload.graph, seed=1)
    )
    large = FourCycleDistinguisher(t_guess=5000, c=1.5, seed=1).run(
        RandomOrderStream(workload.graph, seed=1)
    )
    assert large.space_items < small.space_items
