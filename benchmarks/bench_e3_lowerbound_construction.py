"""E3 — Theorem 2.6 / Figure 1: the random-order lower-bound
construction behaves as proved.

Three properties are measured:

1. combinatorics — the graph has exactly T triangles iff the planted
   bit is 1 (checked over many random instances);
2. prefix secrecy — a random prefix of ~ m / sqrt(T) edges almost
   never contains two star edges at the same W vertex (the witness
   that reveals the special pair);
3. the Theorem 2.7 protocol — the streaming algorithm run across the
   random partition decides 0-vs-T correctly, with communication equal
   to its space.
"""

import math

from repro.core import TriangleRandomOrder
from repro.experiments import format_records, print_experiment
from repro.graphs import triangle_count
from repro.lowerbounds import (
    build_figure1,
    prefix_reveals_special_pair,
    run_random_partition_protocol,
)


def test_e3_combinatorics():
    rows = []
    for seed in range(10):
        construction = build_figure1(n=8, t=12, seed=seed)
        count = triangle_count(construction.graph)
        rows.append(
            {
                "seed": seed,
                "planted_bit": construction.planted_bit,
                "triangles": count,
                "expected": construction.expected_triangles,
            }
        )
        assert count == construction.expected_triangles
    print_experiment("E3 (construction combinatorics)", format_records(rows))


def test_e3_prefix_secrecy():
    construction = build_figure1(n=10, t=25, seed=1, x=[[1] * 10] * 10)
    rows = []
    for factor in (0.5, 1.0, 4.0, 16.0):
        fraction = min(1.0, factor / math.sqrt(construction.t))
        reveals = sum(
            prefix_reveals_special_pair(construction, fraction, seed=seed)
            for seed in range(25)
        )
        rows.append(
            {
                "prefix_fraction": round(fraction, 3),
                "x_m_over_sqrtT": factor,
                "reveal_rate": reveals / 25,
            }
        )
    print_experiment("E3 (prefix secrecy)", format_records(rows))
    # short prefixes rarely reveal; long ones almost always do
    assert rows[0]["reveal_rate"] <= 0.5
    assert rows[-1]["reveal_rate"] >= 0.8


def test_e3_protocol_accuracy():
    correct = 0
    comms = []
    trials = 8
    for seed in range(trials):
        construction = build_figure1(n=8, t=16, seed=seed)
        votes = 0
        for rep in range(3):
            outcome = run_random_partition_protocol(
                construction,
                lambda: TriangleRandomOrder(t_guess=16, epsilon=0.3, seed=7 + rep),
                alice_probability=0.25,
                seed=seed * 31 + rep,
            )
            votes += outcome.decided_positive
            comms.append(outcome.communication_items)
        correct += (votes >= 2) == bool(construction.planted_bit)
    rows = [
        {
            "instances": trials,
            "correct": correct,
            "mean_communication_items": round(sum(comms) / len(comms), 1),
        }
    ]
    print_experiment("E3 (random-partition protocol)", format_records(rows))
    assert correct >= trials - 1
