"""E15 — the Section 4 tradeoff table (extension experiment).

The paper offers THREE adjacency-list four-cycle algorithms with
different (passes, space, regime) contracts:

| algorithm | passes | space | regime |
|---|---|---|---|
| Theorem 4.2 diamonds | 2 | Õ(ε⁻⁵m/√T) | any T |
| Theorem 4.3a moments | 1 | Õ(ε⁻⁴n⁴/T²) | T = Ω(n²) |
| Theorem 4.3b l2 sampling | 1 | Õ(Δ + ε⁻²n²/T) | T = Ω(n) |

This experiment runs all three on the *same* dense workload (where all
regimes hold) and on the sparse diamond workload (where only Theorem
4.2's contract applies), recording the predicted pattern: the diamond
algorithm is accurate on both; the one-pass algorithms are accurate on
the dense graph and collapse on the sparse one (their additive O(εT)
terms swamp a small T).
"""

from repro.core import FourCycleAdjacencyDiamond, FourCycleL2Sampling, FourCycleMoment
from repro.experiments import format_records, print_experiment
from repro.experiments.suite import Cell
from repro.streams import AdjacencyListStream

from conftest import DENSE, DIAMONDS

TRIALS = 3


def _stats_for(spec, include_l2=True):
    algorithms = {
        "diamond (Thm 4.2)": (FourCycleAdjacencyDiamond, {"epsilon": 0.3, "c": 0.5}),
        "moment (Thm 4.3a)": (
            FourCycleMoment,
            {"epsilon": 0.2, "groups": 7, "group_size": 40},
        ),
    }
    if include_l2:
        # the l2 sampler's extraction enumerates all vertex pairs, so it
        # is only affordable (and only contractually applicable) on the
        # small dense workload
        algorithms["l2 (Thm 4.3b)"] = (
            FourCycleL2Sampling,
            {"epsilon": 0.2, "num_samplers": 48, "groups": 7, "group_size": 30},
        )
    return {
        name: Cell(
            *spec, "four_cycles", algorithm, AdjacencyListStream, knobs
        ).measure(TRIALS, 0)
        for name, (algorithm, knobs) in algorithms.items()
    }


def _rows(workload, stats):
    return [
        {
            "workload": workload.name,
            "algorithm": name,
            "passes": s.passes,
            "median_rel_err": round(s.median_relative_error, 4),
            "median_space": s.median_space,
        }
        for name, s in stats.items()
    ]


def test_e15_dense_regime(dense_workload):
    stats = _stats_for(DENSE)
    print_experiment(
        "E15 (dense: all three contracts hold)", format_records(_rows(dense_workload, stats))
    )
    assert stats["diamond (Thm 4.2)"].passes == 2
    assert stats["moment (Thm 4.3a)"].passes == 1
    assert stats["l2 (Thm 4.3b)"].passes == 1
    assert stats["diamond (Thm 4.2)"].median_relative_error < 0.3
    assert stats["moment (Thm 4.3a)"].median_relative_error < 0.35
    assert stats["l2 (Thm 4.3b)"].median_relative_error < 0.45


def test_e15_sparse_regime(diamond_workload):
    """T << n^2: only the two-pass diamond contract applies."""
    workload = diamond_workload
    assert workload.four_cycles < workload.n**2
    stats = _stats_for(DIAMONDS, include_l2=False)
    print_experiment(
        "E15 (sparse: only Thm 4.2's contract applies)",
        format_records(_rows(workload, stats)),
    )
    diamond_err = stats["diamond (Thm 4.2)"].median_relative_error
    moment_err = stats["moment (Thm 4.3a)"].median_relative_error
    assert diamond_err < 0.3
    # the moment estimator's additive n^2-scale error dominates here
    assert moment_err > diamond_err
