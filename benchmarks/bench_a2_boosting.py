"""A2 — success-probability amplification (the paper's closing remark
to every theorem: run Theta(log 1/delta) copies, take the median).

Two measurements, one positive and one cautionary:

* For algorithms whose per-run noise is *coin-driven* (a reservoir
  sampler's eviction choices), parallel copies are genuinely
  independent and the median curve climbs as theory predicts.

* For the random-order triangle algorithm at an aggressive
  space setting, the dominant noise is *permutation-driven* (which
  triangles land inside the shared prefix S) — and parallel copies
  over the same stream share that randomness, so the median cannot
  repair it.  This is a real limit of in-stream amplification in the
  random order model, worth recording: the paper's success
  probability is over the permutation AND the coins jointly.
"""

from repro.baselines import TriestImpr
from repro.core import (
    MedianBoost,
    TriangleRandomOrder,
    copies_for_failure_probability,
)
from repro.experiments import format_records, print_experiment
from repro.graphs import planted_triangles, triangle_count
from repro.streams import RandomOrderStream
from repro.verify.stats import wilson_interval

EPS_BAND = 0.3
TRIALS = 12
# Enough trials for the 95% Wilson intervals of the two success rates
# to decide the coin-driven claim; at 12 trials the point rates swing
# by more than the gap the claim is about.
COIN_TRIALS = 300


def _successes(graph, truth, copies, base_factory, trials):
    hits = 0
    for trial in range(trials):
        stream = RandomOrderStream(graph, seed=700 + trial)
        if copies == 1:
            algorithm = base_factory(trial)
        else:
            algorithm = MedianBoost(base_factory, copies=copies, seed=trial)
        estimate = algorithm.run(stream).estimate
        hits += abs(estimate - truth) / truth <= EPS_BAND
    return hits


def test_a2_boost_helps_coin_driven_noise():
    graph = planted_triangles(900, 200, extra_edges=1200, seed=4)
    truth = triangle_count(graph)

    def factory(seed):
        return TriestImpr(memory=220, seed=seed)

    rows = []
    intervals = {}
    for copies in (1, 7):
        hits = _successes(graph, truth, copies, factory, COIN_TRIALS)
        interval = wilson_interval(hits, COIN_TRIALS)
        intervals[copies] = interval
        rows.append(
            {
                "copies": copies,
                "successes": f"{hits}/{COIN_TRIALS}",
                "wilson_low": round(interval.low, 3),
                "wilson_high": round(interval.high, 3),
            }
        )
    print_experiment("A2 (boost vs coin-driven noise)", format_records(rows))
    assert intervals[7].low >= 0.75
    assert intervals[7].low - intervals[1].high >= 0.2


def test_a2_boost_cannot_fix_order_driven_noise():
    graph = planted_triangles(900, 200, extra_edges=1200, seed=4)
    truth = triangle_count(graph)

    def factory(seed):
        return TriangleRandomOrder(
            t_guess=truth, epsilon=0.3, c=0.3, use_log_factor=False, seed=seed
        )

    rows = []
    rates = {}
    for copies in (1, 7):
        rate = _successes(graph, truth, copies, factory, TRIALS) / TRIALS
        rates[copies] = rate
        rows.append({"copies": copies, "success_rate": rate})
    print_experiment(
        "A2 (boost vs shared-permutation noise — limited)", format_records(rows)
    )
    # no-harm guarantee holds, but the gain is bounded by the shared
    # permutation; we only assert it does not regress
    assert rates[7] >= rates[1] - 0.25


def test_a2_copy_calculator_matches_theory_shape():
    rows = [
        {
            "delta": delta,
            "copies": copies_for_failure_probability(delta, base_failure=1 / 3),
        }
        for delta in (0.2, 0.05, 0.01, 0.001)
    ]
    print_experiment("A2 (copies for target delta)", format_records(rows))
    counts = [row["copies"] for row in rows]
    assert counts == sorted(counts)
