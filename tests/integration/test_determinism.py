"""Seed determinism: same (algorithm seed, stream seed) => identical
results, for every algorithm.

Reproducibility is a design promise of the library (README,
"Determinism"); this matrix enforces it.  Any hidden use of global
randomness, unordered-set iteration feeding into sampling decisions,
or time-based seeding breaks these tests.

Every knob below puts its algorithm in a sampling regime (some
sampling probability below 1) on :func:`_str_graph`, where the
hash-seed test runs the whole matrix.  On the ``graph`` fixture, which
has far fewer triangles and four-cycles, the edge matrix runs with
:data:`FIXTURE_FACTORIES`' knobs: every one samples there and returns a
nonzero estimate, so each in-process pair compares something.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.baselines import (
    BeraChakrabartiFourCycles,
    CormodeJowhariTriangles,
    EdgeSamplingFourCycles,
    EdgeSamplingTriangles,
    TriestBase,
    TriestImpr,
    TwoPassTriangles,
    WedgePairSamplingFourCycles,
)
from repro.core import (
    FourCycleAdjacencyDiamond,
    FourCycleArbitraryOnePass,
    FourCycleArbitraryThreePass,
    FourCycleDistinguisher,
    FourCycleL2Sampling,
    FourCycleMoment,
    TriangleRandomOrder,
)
from repro.graphs import (
    Graph,
    disjoint_union,
    erdos_renyi,
    four_cycle_count,
    planted_diamonds,
    planted_triangles,
    triangle_count,
)
from repro.streams import AdjacencyListStream, RandomOrderStream


@pytest.fixture(scope="module")
def graph():
    """Diamonds beside planted triangles: T=62 and C4=203, so neither
    the triangle nor the four-cycle algorithms run on a graph that has
    none of what they count."""
    graph = disjoint_union(
        [
            planted_diamonds(600, sizes=[8] * 6 + [3] * 10, extra_edges=300, seed=2),
            planted_triangles(300, 60, extra_edges=200, seed=2),
        ]
    )
    assert triangle_count(graph) > 0 and four_cycle_count(graph) > 0
    return graph


@pytest.fixture(scope="module")
def dense_graph():
    return erdos_renyi(30, 0.5, seed=3)


def _str_graph():
    """G(60, 1/4) on str vertices: m=446, 516 triangles, 5,599 four-cycles."""
    graph = erdos_renyi(60, 0.25, seed=1)
    return Graph.from_edges([(f"v{u}", f"v{v}") for u, v in graph.edges()])


EDGE_FACTORIES = {
    "triangle-ro": lambda: TriangleRandomOrder(
        t_guess=500, epsilon=0.5, c=0.5, seed=7, use_log_factor=False
    ),
    "threepass": lambda: FourCycleArbitraryThreePass(
        t_guess=5000, epsilon=0.3, c=0.1, seed=7
    ),
    "onepass": lambda: FourCycleArbitraryOnePass(
        t_guess=5000, epsilon=0.3, c=1.0, groups=2, group_size=3, seed=7
    ),
    "distinguisher": lambda: FourCycleDistinguisher(t_guess=100, seed=7),
    "cj": lambda: CormodeJowhariTriangles(t_guess=500, epsilon=0.3),
    "bc": lambda: BeraChakrabartiFourCycles(t_guess=5000, epsilon=0.3, seed=7),
    "twopass": lambda: TwoPassTriangles(t_guess=500, epsilon=0.3, seed=7),
    "triest": lambda: TriestImpr(memory=100, seed=7),
    "triest-base": lambda: TriestBase(memory=100, seed=7),
    "edge-sampling-triangles": lambda: EdgeSamplingTriangles(p=0.5, seed=7),
    "edge-sampling-four-cycles": lambda: EdgeSamplingFourCycles(p=0.5, seed=7),
}

#: the edge matrix on the ``graph`` fixture (T=62, C4=203): at the knobs
#: above, A1, TRIEST-base and BC estimate 0.0 on stream seed 11 or 12,
#: and the one- and three-pass four-cycle counters sample at rate 1
FIXTURE_FACTORIES = {
    **EDGE_FACTORIES,
    "triangle-ro": lambda: TriangleRandomOrder(
        t_guess=70, epsilon=0.5, c=0.35, seed=7, use_log_factor=False
    ),
    "threepass": lambda: FourCycleArbitraryThreePass(
        t_guess=5000, epsilon=0.3, c=0.03, seed=7
    ),
    "onepass": lambda: FourCycleArbitraryOnePass(
        t_guess=5000, epsilon=0.3, c=0.03, groups=2, group_size=3, seed=7
    ),
    "bc": lambda: BeraChakrabartiFourCycles(t_guess=200, epsilon=0.3, seed=7),
    "triest-base": lambda: TriestBase(memory=400, seed=7),
}

ADJ_FACTORIES = {
    "diamond": lambda: FourCycleAdjacencyDiamond(
        t_guess=5000, epsilon=0.3, c=0.05, seed=7
    ),
    "moment": lambda: FourCycleMoment(
        t_guess=5000, epsilon=0.3, groups=2, group_size=3, seed=7
    ),
    "l2": lambda: FourCycleL2Sampling(
        t_guess=5000, epsilon=0.3, num_samplers=4, groups=2, group_size=3, seed=7
    ),
    "wedge-pair": lambda: WedgePairSamplingFourCycles(wedge_probability=0.4, seed=7),
}

#: ``details`` keys that hold a clamped sampling probability
_RATE_KEYS = (
    "oracle_prob",
    "p",
    "beta",
    "sample_probability",
    "vertex_probability",
    "pair_probability",
    "pv",
)
#: these sample without a clamped rate: a fixed number of uniform pairs,
#: a reservoir smaller than m, precision sampling, or a fixed wedge rate
_UNCLAMPED = {"bc", "triest", "triest-base", "l2", "wedge-pair"}


def _assert_samples(name, details):
    """``details`` come from a sampling run: a clamped rate below 1, or
    an algorithm that samples without one."""
    rates = _rates(details)
    assert bool(rates) != (name in _UNCLAMPED), name
    assert not rates or min(rates) < 1, (name, rates)


@pytest.mark.parametrize("name", sorted(EDGE_FACTORIES))
def test_edge_algorithms_deterministic(name, graph):
    factory = FIXTURE_FACTORIES[name]
    first = factory().run(RandomOrderStream(graph, seed=11))
    second = factory().run(RandomOrderStream(graph, seed=11))
    _assert_samples(name, first.details)
    assert first.estimate > 0, name
    assert first.estimate == second.estimate
    assert first.space_items == second.space_items


@pytest.mark.parametrize("name", sorted(ADJ_FACTORIES))
def test_adjacency_algorithms_deterministic(name, dense_graph):
    factory = ADJ_FACTORIES[name]
    first = factory().run(AdjacencyListStream(dense_graph, seed=11))
    second = factory().run(AdjacencyListStream(dense_graph, seed=11))
    assert first.estimate == second.estimate
    assert first.space_items == second.space_items


@pytest.mark.parametrize("name", sorted(EDGE_FACTORIES))
def test_stream_seed_matters_or_algorithm_is_order_free(name, graph):
    """Changing the stream order changes *something* observable for
    order-sensitive algorithms, or provably nothing for order-free
    ones — either way the run must complete, sample and return a
    nonzero estimate on both orders."""
    factory = FIXTURE_FACTORIES[name]
    a = factory().run(RandomOrderStream(graph, seed=11))
    b = factory().run(RandomOrderStream(graph, seed=12))
    for result in (a, b):
        _assert_samples(name, result.details)
    assert a.estimate > 0 and b.estimate > 0, (name, a.estimate, b.estimate)


def test_generators_deterministic_across_calls():
    from repro.experiments import build_workload

    first = build_workload("diamond-mixture")
    second = build_workload("diamond-mixture")
    assert first.graph == second.graph
    assert first.four_cycles == second.four_cycles


def _rates(details):
    """Every clamped sampling probability in ``details``, nested included."""
    if isinstance(details, dict):
        return [
            rate
            for key, value in details.items()
            for rate in ([value] if key in _RATE_KEYS else _rates(value))
        ]
    if isinstance(details, list):
        return [rate for value in details for rate in _rates(value)]
    return []


def _observe_str_runs():
    """``repr`` of every matrix algorithm's run on the str-vertex graph:
    estimate, details, space peak and per-category peaks, by name."""
    graph = _str_graph()
    runs = {}
    for factories, stream in (
        (EDGE_FACTORIES, lambda: RandomOrderStream(graph, seed=11)),
        (ADJ_FACTORIES, lambda: AdjacencyListStream(graph, seed=11)),
    ):
        for name in sorted(factories):
            result = factories[name]().run(stream())
            runs[name] = (
                result.estimate,
                result.details,
                result.space.peak,
                sorted(result.space.breakdown().items()),
            )
    return runs


def _observe_in_child(hash_seed):
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
    )
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "from tests.integration.test_determinism import _observe_str_runs; "
            "print(repr(_observe_str_runs()))",
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=root,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return completed.stdout


def test_sampling_runs_ignore_hash_seed():
    """Set iteration order over str vertices changes with
    ``PYTHONHASHSEED``; no estimator's output may follow it.  Every
    matrix algorithm runs while sampling, in two child interpreters."""
    runs = _observe_str_runs()
    for name, (_, details, _, _) in runs.items():
        _assert_samples(name, details)
    first, second = (_observe_in_child(seed) for seed in ("0", "1"))
    assert first == second
    assert first.strip() == repr(runs)
