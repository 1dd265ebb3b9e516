"""E14 — the error-vs-space frontier figure (extension experiment).

The paper's comparison table compresses to "less space at the same
accuracy"; this experiment draws the actual curve for random-order
triangle counting on the heavy-edge workload: each algorithm's budget
knob is swept, and (median space, median error) is measured per
setting.  The expected shape: Theorem 2.1's curve sits at or below the
prefix-sampling baseline across the shared budget range, with the gap
widening at small budgets where heavy-edge handling matters most.
"""

from repro.baselines import CormodeJowhariTriangles, TriestImpr
from repro.core import TriangleRandomOrder
from repro.experiments import format_records, print_experiment
from repro.experiments.frontier import measure_frontier
from repro.streams import RandomOrderStream

EPS = 0.3
# Per knob.  At 5 trials a median error moves by more than the 0.05
# margin the frontier claim allows; 101 trials decide it.
TRIALS = 101


def _frontiers(workload):
    truth = workload.triangles

    def stream_factory(seed):
        return RandomOrderStream(workload.graph, seed=seed)

    mv = measure_frontier(
        label="mv-triangle-ro (Thm 2.1)",
        knobs=[0.02, 0.05, 0.15, 0.5],
        algorithm_for_knob=lambda c, seed: TriangleRandomOrder(
            t_guess=truth, epsilon=EPS, c=c, use_log_factor=False, seed=seed
        ),
        stream_factory=stream_factory,
        truth=truth,
        epsilon=EPS,
        trials=TRIALS,
    )
    cj = measure_frontier(
        label="cormode-jowhari",
        knobs=[0.1, 0.3, 1.0, 3.0],
        algorithm_for_knob=lambda c, seed: CormodeJowhariTriangles(
            t_guess=truth, epsilon=EPS, c=c
        ),
        stream_factory=stream_factory,
        truth=truth,
        epsilon=EPS,
        trials=TRIALS,
    )
    triest = measure_frontier(
        label="triest-impr",
        knobs=[100, 300, 900, 2000],
        algorithm_for_knob=lambda memory, seed: TriestImpr(
            memory=int(memory), seed=seed
        ),
        stream_factory=stream_factory,
        truth=truth,
        epsilon=EPS,
        trials=TRIALS,
    )
    return mv, cj, triest


def test_e14_frontier(heavy_triangle_workload):
    mv, cj, triest = _frontiers(heavy_triangle_workload)
    rows = mv.rows() + cj.rows() + triest.rows()
    print_experiment("E14 (error vs space, heavy workload)", format_records(rows))

    # the shape claim: wherever both can run, Thm 2.1's achievable
    # error at a budget is no worse than CJ's, and strictly better at
    # the mid-range budgets where CJ's heavy-edge blindness bites
    shared_budgets = [500, 1000, 2000, 4000]
    for budget in shared_budgets:
        mv_error = mv.error_at_space(budget)
        cj_error = cj.error_at_space(budget)
        if mv_error != float("inf") and cj_error != float("inf"):
            assert mv_error <= cj_error + 0.05, (
                f"at budget {budget}: mv {mv_error} vs cj {cj_error}"
            )
