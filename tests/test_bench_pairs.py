"""``scripts/bench_pairs.py``'s ``summarize`` on synthetic run records.

Every committed ``BENCH_*.json`` pair summary comes from ``summarize``;
these tests pin how it pairs runs, counts wins and failures, and skips
metrics, without running the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = {
    "ns_per_token": {"unit": "ns", "better": "lower"},
    "estimates_per_s": {"unit": "1/s", "better": "higher"},
}


def _run(seed, side, correct=True, **metrics):
    return {"seed": seed, "side": side, "correct": correct, "metrics": metrics}


def _pair(seed, base, change):
    """Both sides of one seed; ``base`` and ``change`` are
    ``(ns_per_token, estimates_per_s)``."""
    return [
        _run(seed, "base", ns_per_token=base[0], estimates_per_s=base[1]),
        _run(seed, "change", ns_per_token=change[0], estimates_per_s=change[1]),
    ]


def test_wins_follow_each_metrics_direction_and_ties_count_for_neither():
    runs = [
        *_pair(1, base=(100, 10), change=(90, 12)),  # change better on both
        *_pair(2, base=(100, 10), change=(100, 10)),  # a tie on both
        *_pair(3, base=(100, 10), change=(110, 8)),  # base better on both
    ]
    summary = bench_pairs.summarize(runs, METRICS)
    for name in METRICS:
        assert summary[name]["pairs"] == 3
        assert summary[name]["pairs_change_better"] == 1
    assert summary["ns_per_token"]["base"] == {"p25": 100, "p50": 100, "p75": 100}
    assert summary["ns_per_token"]["change_over_base_p50"] == 1.0
    assert summary["estimates_per_s"]["better"] == "higher"


def test_a_seed_that_failed_on_either_side_leaves_every_metric():
    runs = [
        *_pair(1, base=(100, 10), change=(50, 20)),
        *_pair(2, base=(100, 10), change=(50, 20)),
        _run(3, "base", correct=False, ns_per_token=1, estimates_per_s=1),
        _run(3, "change", ns_per_token=10**6, estimates_per_s=10**6),
        _run(4, "base", ns_per_token=10**6, estimates_per_s=10**6),
        _run(4, "change", correct=False, ns_per_token=1, estimates_per_s=1),
    ]
    summary = bench_pairs.summarize(runs, METRICS)
    for name in METRICS:
        assert summary[name]["pairs"] == 2
        assert summary[name]["pairs_change_better"] == 2
    assert summary["ns_per_token"]["base"]["p50"] == 100
    assert summary["ns_per_token"]["change"] == {"p25": 50, "p50": 50, "p75": 50}
    assert summary["estimates_per_s"]["change_over_base_p50"] == 2.0


def test_failed_runs_are_counted_per_side():
    runs = [
        *_pair(1, base=(100, 10), change=(90, 12)),
        _run(2, "base", correct=False),
        _run(2, "change", correct=False),
        _run(3, "base", correct=False),
        _run(3, "change", ns_per_token=90, estimates_per_s=12),
        _run(4, "base", correct=False),
        _run(4, "change", ns_per_token=90, estimates_per_s=12),
    ]
    summary = bench_pairs.summarize(runs, METRICS)
    assert summary["failed_runs"] == {"base": 3, "change": 1}
    assert summary["ns_per_token"]["pairs"] == 1


def test_no_passing_pair_leaves_only_the_failure_counts():
    runs = [_run(1, "base", correct=False), *_pair(2, base=(1, 1), change=(1, 1))[1:]]
    assert bench_pairs.summarize(runs, METRICS) == {"failed_runs": {"base": 1, "change": 0}}


def test_a_per_layer_metric_the_workload_lacks_is_skipped():
    metrics = {
        "core.a6.pass_s": {"unit": "s", "better": "lower"},
        "core.a1.pass_s": {"unit": "s", "better": "lower"},
    }
    runs = [
        _run(1, "base", **{"core.a6.pass_s": 2.0}),
        _run(1, "change", **{"core.a6.pass_s": 1.0}),
        _run(2, "base", **{"core.a6.pass_s": 2.0}),
        _run(2, "change", **{"core.a6.pass_s": 1.0}),
    ]
    summary = bench_pairs.summarize(runs, metrics)
    assert "core.a1.pass_s" not in summary
    assert summary["core.a6.pass_s"]["pairs"] == 2
    assert summary["core.a6.pass_s"]["change_over_base_p50"] == pytest.approx(0.5)
