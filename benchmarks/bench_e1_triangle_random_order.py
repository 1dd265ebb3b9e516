"""E1 — Theorem 2.1 accuracy vs baselines (random-order triangles).

Claim: a (1+eps)-approximation in one pass over a random-order stream,
improving the Cormode–Jowhari (3+eps) result; on heavy-edge inputs the
baselines' error spreads while Theorem 2.1 stays in band.

Rows reported: algorithm x workload, median estimate, relative error of
the median, mean relative error, median space (words).
"""

from repro.baselines import CormodeJowhariTriangles, EdgeSamplingTriangles, TriestImpr
from repro.core import TriangleRandomOrder
from repro.experiments import print_experiment, format_records, run_trials
from repro.experiments.suite import Cell
from repro.streams import RandomOrderStream

from conftest import HEAVY_TRIANGLES, LIGHT_TRIANGLES

EPSILON = 0.3
TRIALS = 9


def _rows_for(spec, workload):
    truth = workload.triangles
    knobs = {"epsilon": EPSILON}
    mv_stats = Cell(
        *spec, "triangles", TriangleRandomOrder, RandomOrderStream, knobs
    ).measure(TRIALS, 0)
    budget = max(12, int(mv_stats.median_space))
    competitors = {
        "mv-triangle-ro (Thm 2.1)": mv_stats,
        "cormode-jowhari": Cell(
            *spec,
            "triangles",
            CormodeJowhariTriangles,
            RandomOrderStream,
            knobs,
            seed_param=None,
        ).measure(TRIALS, 0),
        "triest-impr (same space)": run_trials(
            lambda seed: TriestImpr(memory=budget, seed=seed),
            lambda seed: RandomOrderStream(workload.graph, seed=seed),
            truth=truth,
            trials=TRIALS,
        ),
        "edge-sampling p=0.3": run_trials(
            lambda seed: EdgeSamplingTriangles(p=0.3, seed=seed),
            lambda seed: RandomOrderStream(workload.graph, seed=seed),
            truth=truth,
            trials=TRIALS,
        ),
    }
    rows = []
    for name, stats in competitors.items():
        rows.append(
            {
                "algorithm": name,
                "workload": workload.name,
                "truth": truth,
                "median_est": round(stats.median_estimate, 1),
                "median_rel_err": round(stats.median_relative_error, 4),
                "mean_rel_err": round(stats.mean_relative_error, 4),
                "median_space": stats.median_space,
            }
        )
    return rows, competitors


def test_e1_light_workload(light_triangle_workload):
    rows, stats = _rows_for(LIGHT_TRIANGLES, light_triangle_workload)
    print_experiment("E1 (light workload)", format_records(rows))
    assert stats["mv-triangle-ro (Thm 2.1)"].median_relative_error < EPSILON


def test_e1_heavy_workload(heavy_triangle_workload):
    rows, stats = _rows_for(HEAVY_TRIANGLES, heavy_triangle_workload)
    print_experiment("E1 (heavy-edge workload)", format_records(rows))
    mv = stats["mv-triangle-ro (Thm 2.1)"]
    cj = stats["cormode-jowhari"]
    assert mv.median_relative_error < EPSILON
    # the paper's "who wins": heavy-edge handling beats prefix sampling
    assert mv.mean_relative_error < cj.mean_relative_error
