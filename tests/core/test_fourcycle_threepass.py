"""Theorem 5.3: the three-pass arbitrary-order four-cycle counter."""

import ast
import hashlib
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import FourCycleArbitraryThreePass, subsample_q
from repro.experiments import run_trials
from repro.graphs import (
    complete_bipartite,
    disjoint_union,
    four_cycle_count,
    friendship_graph,
    planted_diamonds,
    planted_four_cycles,
)
from repro.sketches import hashing
from repro.streams import ArbitraryOrderStream, RandomOrderStream


class TestSubsampleQ:
    @pytest.mark.parametrize("p", [0.01, 0.05, 0.09, 0.2, 0.4])
    def test_satisfies_defining_equation(self, p):
        q = subsample_q(p)
        assert p * (0.4 + q) ** 2 == pytest.approx(q, rel=1e-9)

    def test_small_p_asymptotics(self):
        # q ~ 0.16 p as p -> 0
        assert subsample_q(0.001) == pytest.approx(0.16 * 0.001, rel=0.05)

    def test_q_below_cap_in_paper_regime(self):
        assert subsample_q(0.09) <= 0.2

    def test_validates(self):
        with pytest.raises(ValueError):
            subsample_q(0.0)
        with pytest.raises(ValueError):
            subsample_q(1.0)


class TestValidation:
    def test_parameter_checks(self):
        with pytest.raises(ValueError):
            FourCycleArbitraryThreePass(t_guess=0)
        with pytest.raises(ValueError):
            FourCycleArbitraryThreePass(t_guess=5, eta=0)


class TestExactMode:
    """p = 1: stored cycles and the A0/A1 identity must be exact."""

    def test_planted_cycles(self):
        graph = planted_four_cycles(1200, 200, extra_edges=300, seed=9)
        truth = four_cycle_count(graph)
        result = FourCycleArbitraryThreePass(t_guess=truth, epsilon=0.3, seed=1).run(
            RandomOrderStream(graph, seed=1)
        )
        assert result.details["p"] == 1.0
        assert result.estimate == pytest.approx(truth)

    def test_heavy_edges_exact_via_a1(self):
        """A graph with every edge heavy (one big diamond): in exact
        mode the A0/4 + A1 coefficients must still reproduce T when
        exactly one edge per cycle is classified heavy ... or all-light
        classification keeps it in A0.  Either way the identity holds."""
        graph = disjoint_union(
            [complete_bipartite(2, 60), planted_four_cycles(600, 80, seed=3)]
        )
        truth = four_cycle_count(graph)
        result = FourCycleArbitraryThreePass(
            t_guess=truth, epsilon=0.3, eta=2.0, seed=1
        ).run(RandomOrderStream(graph, seed=2))
        assert result.details["p"] == 1.0
        assert result.estimate == pytest.approx(truth)

    def test_cycle_free(self):
        graph = friendship_graph(80)
        result = FourCycleArbitraryThreePass(t_guess=50, seed=1).run(
            RandomOrderStream(graph, seed=1)
        )
        assert result.estimate == 0.0
        assert result.details["stored_pairs"] == 0


class TestSampledMode:
    def test_medium_diamond_accuracy(self):
        graph = planted_diamonds(3000, [12] * 60, extra_edges=600, seed=11)
        truth = four_cycle_count(graph)
        estimates = []
        for seed in range(5):
            algorithm = FourCycleArbitraryThreePass(
                t_guess=truth, epsilon=0.3, eta=2.0, c=0.6, seed=seed, use_log_factor=False
            )
            result = algorithm.run(RandomOrderStream(graph, seed=500 + seed))
            assert result.details["p"] < 1.0
            estimates.append(result.estimate)
        median = statistics.median(estimates)
        assert abs(median - truth) / truth < 0.3

    def test_three_passes(self):
        graph = planted_four_cycles(400, 40, seed=2)
        stream = RandomOrderStream(graph, seed=3)
        result = FourCycleArbitraryThreePass(t_guess=160, seed=1).run(stream)
        assert result.passes == 3

    def test_pass_count_independent_of_seed(self):
        """Pass 3 runs even when pass 2 stored no cycle: at p ~ 0.18,
        four of these ten trials store none, and all take 3 passes."""
        graph = planted_four_cycles(400, 100, seed=0)
        stats = run_trials(
            lambda seed: FourCycleArbitraryThreePass(
                t_guess=100, epsilon=0.3, c=0.05, seed=seed, use_log_factor=False
            ),
            lambda seed: RandomOrderStream(graph, seed=seed),
            truth=four_cycle_count(graph),
            trials=10,
            base_seed=0,
        )
        assert stats.passes == 3
        stored = [result.details["stored_pairs"] for result in stats.results]
        assert stored.count(0) == 4
        assert {result.passes for result in stats.results} == {3}

    def test_details(self):
        graph = planted_four_cycles(400, 40, seed=2)
        result = FourCycleArbitraryThreePass(t_guess=160, seed=1).run(
            RandomOrderStream(graph, seed=3)
        )
        for key in ("p", "stored_pairs", "a0", "a1", "num_oracles", "num_heavy_edges"):
            assert key in result.details
        assert result.details["a0"] + result.details["a1"] <= result.details[
            "stored_pairs"
        ]


def _golden_graphs():
    diamonds = planted_diamonds(600, [10] * 12, extra_edges=150, seed=4)
    mixed = disjoint_union(
        [complete_bipartite(2, 40), planted_diamonds(500, [8] * 10, extra_edges=120, seed=7)]
    )
    return diamonds, mixed


def _as_str(graph):
    return graph.relabeled({v: f"v{v}" for v in graph.vertices()})


def _as_negative(graph):
    return graph.relabeled({v: -(v + 1) * 10**15 for v in graph.vertices()})


# (graph, order, kwargs) -> (estimate, passes, space.peak, meter mutations,
# sha256 prefix of repr(space.timeline()), space.breakdown(), details).
# Paper mode is p < 0.5, direct mode p >= 0.5; every case has heavy edges.
_GOLDEN = {
    "paper-int-random": (
        ("diamonds", None, "random", dict(epsilon=0.3, eta=1.0, c=0.15)),
        (465.77889352178875, 3, 865, 726, "ec4f0ee79d1d7405",
         {"S0_edges": 131, "S1_S2_edges": 469, "stored_cycles": 66,
          "oracle_counters": 199},
         {"p": 0.3457405429380435, "eta_sqrt_t": 23.2379000772445, "stored_pairs": 66,
          "a0": 45, "a1": 8, "num_oracles": 60, "num_heavy_edges": 9,
          "useful_heavy_vertices": 94, "useful_heavy_counters": 19}),
    ),
    "paper-str-arbitrary": (
        ("mixed", _as_str, "arbitrary", dict(epsilon=0.3, eta=0.3, c=0.2)),
        (177.74862069315117, 3, 1452, 1239, "5d5ddf43d475dcd7",
         {"S1_S2_edges": 508, "S0_edges": 147, "stored_cycles": 490,
          "oracle_counters": 307},
         {"p": 0.3894583503093328, "eta_sqrt_t": 9.767292357659823,
          "stored_pairs": 490, "a0": 26, "a1": 4, "num_oracles": 94,
          "num_heavy_edges": 50, "useful_heavy_vertices": 93,
          "useful_heavy_counters": 25}),
    ),
    "paper-negint-random": (
        ("diamonds", _as_negative, "random", dict(epsilon=0.3, eta=0.2, c=0.2)),
        (0.0, 3, 1086, 915, "9cced2e0383b08f8",
         {"S1_S2_edges": 537, "S0_edges": 178, "stored_cycles": 126,
          "oracle_counters": 245},
         {"p": 0.4609873905840581, "eta_sqrt_t": 4.6475800154489, "stored_pairs": 126,
          "a0": 0, "a1": 0, "num_oracles": 74, "num_heavy_edges": 44,
          "useful_heavy_vertices": 123, "useful_heavy_counters": 23}),
    ),
    "direct-int-arbitrary": (
        ("diamonds", None, "arbitrary", dict(epsilon=0.3, eta=1.0, c=0.3)),
        (509.6346984313078, 3, 2352, 1894, "6b65cc8be3fdef5f",
         {"S0_edges": 268, "S1_S2_edges": 718, "stored_cycles": 690,
          "oracle_counters": 676},
         {"p": 0.691481085876087, "eta_sqrt_t": 23.2379000772445, "stored_pairs": 690,
          "a0": 506, "a1": 42, "num_oracles": 218, "num_heavy_edges": 14,
          "useful_heavy_vertices": 80, "useful_heavy_counters": 22}),
    ),
    "direct-str-random": (
        ("mixed", _as_str, "random", dict(epsilon=0.3, eta=0.5, c=0.35)),
        (353.7698495428316, 3, 3224, 2795, "099bb5e36e2084c0",
         {"S0_edges": 260, "S1_S2_edges": 652, "stored_cycles": 1683,
          "oracle_counters": 629},
         {"p": 0.6815521130413323, "eta_sqrt_t": 16.278820596099706,
          "stored_pairs": 1683, "a0": 324, "a1": 31, "num_oracles": 200,
          "num_heavy_edges": 71, "useful_heavy_vertices": 86,
          "useful_heavy_counters": 29}),
    ),
    "saturated-int-random": (
        ("mixed", None, "random", dict(epsilon=0.3, eta=1.0, c=1.0)),
        (280.0, 3, 6080, 5560, "1a3db96e289a0f18",
         {"S0_edges": 360, "S1_S2_edges": 720, "stored_cycles": 4240,
          "oracle_counters": 760},
         {"p": 1.0, "eta_sqrt_t": 32.55764119219941, "stored_pairs": 4240, "a0": 1120,
          "a1": 0, "num_oracles": 240, "num_heavy_edges": 76,
          "useful_heavy_vertices": 104, "useful_heavy_counters": 40}),
    ),
}


def _observe(case):
    """One golden run's outputs, in the order ``_GOLDEN`` pins them."""
    graph_name, relabel, order, kwargs = _GOLDEN[case][0]
    diamonds, mixed = _golden_graphs()
    graph = {"diamonds": diamonds, "mixed": mixed}[graph_name]
    if relabel is not None:
        graph = relabel(graph)
    if order == "random":
        stream = RandomOrderStream(graph, seed=3)
    else:
        stream = ArbitraryOrderStream.from_graph(graph)
    result = FourCycleArbitraryThreePass(
        t_guess=four_cycle_count(graph), seed=1, use_log_factor=False, **kwargs
    ).run(stream)
    timeline = hashlib.sha256(repr(result.space.timeline()).encode()).hexdigest()[:16]
    return (
        result.estimate,
        result.passes,
        result.space.peak,
        result.space.mutations,
        timeline,
        result.space.breakdown(),
        result.details,
    )


def _observe_in_child(case, hash_seed):
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
    )
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "from tests.core.test_fourcycle_threepass import _observe; "
            f"print(repr(_observe({case!r})))",
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=root,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return ast.literal_eval(completed.stdout)


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_golden_runs(case):
    """Pinned outputs: estimate, passes, space (peak, per-category
    peaks and the meter's mutation sequence) and every details entry.

    The oracles share one selection function per sample copy and are
    ordered by ``repr``, so no output follows set-iteration order.  The str
    cases, whose set order depends on ``PYTHONHASHSEED``, run in child
    interpreters under three hash seeds and must match under each.
    """
    if "-str-" not in case:
        assert _observe(case) == _GOLDEN[case][1]
        return
    for hash_seed in ("0", "1", "2"):
        assert _observe_in_child(case, hash_seed) == _GOLDEN[case][1], hash_seed


def test_hash_functions_do_not_grow_with_oracles(monkeypatch):
    """A run draws at most five hash functions however many oracles it
    builds: S0, Q1, Q2 and one selection function per sample copy."""
    drawn = []
    draw = hashing.draw_coefficients

    def counting_draw(k, namespace, seeds):
        rows = draw(k, namespace, seeds)
        drawn.extend([namespace] * len(rows))
        return rows

    monkeypatch.setattr(hashing, "draw_coefficients", counting_draw)
    details = _observe("direct-int-arbitrary")[6]
    assert details["num_oracles"] >= 100
    assert len(drawn) <= 5, drawn
