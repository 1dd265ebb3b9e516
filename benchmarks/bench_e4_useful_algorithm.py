"""E4 — Lemma 3.1: the Useful Algorithm's three guarantees.

a. if W <= M, the estimate is W +- eps*M;
b. estimate < M implies W <= 2M (no false smalls on huge graphs);
c. estimate >= M implies W >= M/2 (no false bigs on tiny graphs).

Measured on unit-weight random graphs of swept density with both
samples drawn at the same probability, streamed in random vertex order.
"""

import random

from repro.core import UsefulAlgorithm, bernoulli_vertex_sample
from repro.experiments import format_records, print_experiment
from repro.graphs import erdos_renyi

SAMPLE_P = 0.5
TRIALS = 9


def _run_once(graph, m_bound, seed):
    r1, r2 = bernoulli_vertex_sample(graph.vertices(), SAMPLE_P, seed=seed)
    algorithm = UsefulAlgorithm(r1=r1, r2=r2, p=SAMPLE_P, m_bound=m_bound)
    order = sorted(graph.vertices())
    random.Random(seed).shuffle(order)
    observable = algorithm.r1 | algorithm.r2
    for v in order:
        weights = {u: 1.0 for u in graph.neighbors(v) if u in observable}
        algorithm.process_vertex(v, weights)
    return algorithm.estimate()


def test_e4_additive_error():
    rows = []
    for density, n in ((0.05, 150), (0.1, 150), (0.2, 150)):
        graph = erdos_renyi(n, density, seed=3)
        w = graph.num_edges
        m_bound = 1.5 * w
        errors = sorted(
            abs(_run_once(graph, m_bound, seed) - w) / m_bound for seed in range(TRIALS)
        )
        rows.append(
            {
                "W": w,
                "M": m_bound,
                "median_error_over_M": round(errors[TRIALS // 2], 4),
                "max_error_over_M": round(errors[-1], 4),
            }
        )
        assert errors[TRIALS // 2] <= 0.4  # eps*M with generous eps
    print_experiment("E4 (Lemma 3.1a: W-hat = W +- eps*M)", format_records(rows))


def test_e4_separation():
    dense = erdos_renyi(120, 0.3, seed=1)
    sparse = erdos_renyi(120, 0.01, seed=1)
    m_bound = dense.num_edges / 2.0  # dense: W = 2M; sparse: W << M/2
    rows = []
    for graph, label, want_large in ((dense, "W=2M", True), (sparse, "W<<M/2", False)):
        votes = sum(
            (_run_once(graph, m_bound, seed) >= m_bound) == want_large
            for seed in range(TRIALS)
        )
        rows.append({"case": label, "correct_decisions": f"{votes}/{TRIALS}"})
        assert votes >= TRIALS - 2
    print_experiment("E4 (Lemma 3.1b,c: 2M vs M/2 separation)", format_records(rows))


def test_e4_space_scales_with_heavy_count():
    """Space = samples + one counter per heavy R2 vertex (Section 3.0.3)."""
    graph = erdos_renyi(150, 0.15, seed=5)
    w = graph.num_edges
    small_m = w / 16.0  # many vertices exceed sqrt(M): more counters
    large_m = 16.0 * w  # threshold enormous: no heavy counters
    r1, r2 = bernoulli_vertex_sample(graph.vertices(), SAMPLE_P, seed=9)

    def heavy_counters(m_bound):
        algorithm = UsefulAlgorithm(r1=r1, r2=r2, p=SAMPLE_P, m_bound=m_bound)
        order = sorted(graph.vertices())
        random.Random(9).shuffle(order)
        observable = algorithm.r1 | algorithm.r2
        for v in order:
            algorithm.process_vertex(
                v, {u: 1.0 for u in graph.neighbors(v) if u in observable}
            )
        return algorithm.heavy_counter_count

    assert heavy_counters(small_m) > heavy_counters(large_m)
