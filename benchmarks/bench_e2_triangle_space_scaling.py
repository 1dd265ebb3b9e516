"""E2 — Theorem 2.1 space scaling: stored words ~ Õ(m / sqrt(T)).

A family of graphs with (nearly) constant m and planted triangle count
T swept over a decade and a half.  The claim is Õ(m / sqrt(T)): the
hidden polylog is *real* — the algorithm keeps one level structure per
``i <= log2 sqrt(T)``, so the raw measured exponent sits above -1/2 by
the log-level growth.  We therefore report two fits:

* raw slope of total space vs T (should be clearly negative), and
* slope of space-per-level vs T (the per-level storage is Θ(m/sqrt(T)),
  so this fit should sit near -1/2).

The paper's literal constants put laptop-scale runs into exact mode
(every probability 1), so the sweep uses the documented practical
scaling c=0.01 without the log n factor; the slopes are the claim
under test, not the constants.
"""

import math
import statistics

from repro.core import TriangleRandomOrder
from repro.experiments import format_records, loglog_slope, print_experiment
from repro.graphs import planted_triangles, triangle_count
from repro.streams import RandomOrderStream

# (num planted triangles, noise edges) chosen to keep m ~ 3200
SWEEP = [(50, 3050), (150, 2750), (450, 1850), (1000, 200)]
N_VERTICES = 3200
C_SCALE = 0.01


def _levels(truth: float) -> int:
    return max(1, math.ceil(math.log2(math.sqrt(truth)))) + 1


def _measure():
    rows = []
    ts, spaces, per_level = [], [], []
    for planted, noise in SWEEP:
        graph = planted_triangles(N_VERTICES, planted, extra_edges=noise, seed=7)
        truth = triangle_count(graph)
        per_seed = []
        for seed in range(3):
            result = TriangleRandomOrder(
                t_guess=truth, epsilon=0.3, c=C_SCALE, use_log_factor=False, seed=seed
            ).run(RandomOrderStream(graph, seed=50 + seed))
            per_seed.append(result.space_items)
        space = statistics.median(per_seed)
        rows.append(
            {
                "T": truth,
                "m": graph.num_edges,
                "median_space": space,
                "levels": _levels(truth),
                "space_per_level": round(space / _levels(truth), 1),
                "m_over_sqrtT": round(graph.num_edges / truth**0.5, 1),
            }
        )
        ts.append(float(truth))
        spaces.append(float(space))
        per_level.append(space / _levels(truth))
    return rows, ts, spaces, per_level


def test_e2_space_scaling():
    rows, ts, spaces, per_level = _measure()
    raw_slope = loglog_slope(ts, spaces)
    corrected_slope = loglog_slope(ts, per_level)
    rows.append(
        {
            "T": "slope",
            "m": "",
            "median_space": round(raw_slope, 3),
            "levels": "",
            "space_per_level": round(corrected_slope, 3),
            "m_over_sqrtT": "",
        }
    )
    print_experiment("E2 (space ~ m/sqrt(T), log-corrected)", format_records(rows))
    assert raw_slope < -0.2, f"raw slope {raw_slope} shows no T-savings at all"
    assert -0.75 < corrected_slope < -0.3, (
        f"per-level slope {corrected_slope} is not ~ -1/2"
    )
