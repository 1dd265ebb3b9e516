"""E11 — Theorem 5.8: the DISJOINTNESS reduction via two stars.

Claims under test:

* the construction has exactly 0 four-cycles on disjoint strings and
  >= C(k, 2) on intersecting ones;
* plugging the Theorem 5.6 distinguisher into the reduction yields a
  correct DISJ protocol (one-sided on NO instances);
* the protocol's "communication" (the distinguisher's space) grows as
  the group size k shrinks — the Omega(m / sqrt(T)) tradeoff.
"""

from repro.core import FourCycleDistinguisher
from repro.experiments import format_records, print_experiment
from repro.graphs import four_cycle_count
from repro.lowerbounds import (
    DisjointnessInstance,
    build_two_stars,
    solve_disjointness_with_distinguisher,
)

STRING_LENGTH = 30


def test_e11_construction_combinatorics():
    rows = []
    for seed in range(6):
        for answer in (0, 1):
            instance = DisjointnessInstance.random_with_answer(
                STRING_LENGTH, answer, seed=seed
            )
            construction = build_two_stars(instance, k=10)
            cycles = four_cycle_count(construction.graph)
            rows.append(
                {
                    "seed": seed,
                    "answer": answer,
                    "four_cycles": cycles,
                    "expected": construction.expected_four_cycles,
                }
            )
            assert cycles == construction.expected_four_cycles
            if answer == 0:
                assert cycles == 0
            else:
                assert cycles >= 10 * 9 // 2
    print_experiment("E11 (two-star combinatorics)", format_records(rows))


def test_e11_protocol_correctness():
    correct = 0
    trials = 12
    for seed in range(trials):
        answer = seed % 2
        instance = DisjointnessInstance.random_with_answer(STRING_LENGTH, answer, seed=seed)
        decided, _space = solve_disjointness_with_distinguisher(
            instance,
            k=12,
            distinguisher_factory=lambda t: FourCycleDistinguisher(
                t_guess=t, c=3.0, seed=77
            ),
            seed=seed,
        )
        if answer == 0:
            assert decided == 0  # one-sided: NO can never be fooled
        correct += decided == answer
    rows = [{"instances": trials, "correct": correct}]
    print_experiment("E11 (DISJ protocol)", format_records(rows))
    assert correct >= trials - 2


def test_e11_communication_grows_as_k_shrinks():
    """The Omega(m / sqrt(T)) = Omega(n / k) tradeoff: with the total
    number of group vertices n held fixed (as in Theorem 5.8), shrinking
    the group size k (hence T = Theta(k^2)) forces more communication
    out of the distinguisher-based protocol."""
    n_total = 144
    rows = []
    spaces = []
    for k in (24, 12, 6):
        length = n_total // k
        instance = DisjointnessInstance.random_with_answer(length, 1, seed=3)
        _, space = solve_disjointness_with_distinguisher(
            instance,
            k=k,
            distinguisher_factory=lambda t: FourCycleDistinguisher(
                t_guess=t, c=3.0, seed=5
            ),
            seed=9,
        )
        rows.append(
            {
                "k": k,
                "string_length": length,
                "T=C(k,2)": k * (k - 1) // 2,
                "space_items": space,
            }
        )
        spaces.append(space)
    print_experiment("E11 (communication vs k, fixed n)", format_records(rows))
    # smaller k => smaller T => more space needed (Omega(n / k))
    assert spaces[-1] > spaces[0]
