"""Trial runner statistics."""

import pytest

from repro.core import EstimateResult
from repro.experiments import TrialStats, decision_rate, run_trials
from repro.streams import ArbitraryOrderStream, SpaceMeter


class _FakeAlgorithm:
    """Deterministic-from-seed stub algorithm for runner tests."""

    def __init__(self, seed):
        self.seed = seed

    def run(self, stream):
        list(stream.edges())
        meter = SpaceMeter()
        meter.add("x", 10 + self.seed % 3)
        return EstimateResult(100.0 + self.seed % 5, stream.passes_taken, meter, "fake")


def _stream_factory(seed):
    return ArbitraryOrderStream([(0, 1), (1, 2)])


class TestRunTrials:
    def test_collects_per_trial_data(self):
        stats = run_trials(_FakeAlgorithm, _stream_factory, truth=100.0, trials=5)
        assert stats.trials == 5
        assert len(stats.estimates) == 5
        assert len(stats.space_items) == 5
        assert stats.passes == 1

    def test_validates_trials(self):
        with pytest.raises(ValueError):
            run_trials(_FakeAlgorithm, _stream_factory, truth=1.0, trials=0)

    def test_seeds_differ_across_trials(self):
        stats = run_trials(_FakeAlgorithm, _stream_factory, truth=100.0, trials=5)
        assert len(set(stats.estimates)) > 1


class TestTrialStats:
    def _stats(self, estimates, truth=100.0):
        return TrialStats(
            truth=truth,
            estimates=estimates,
            space_items=[10] * len(estimates),
            passes=1,
        )

    def test_median_estimate(self):
        assert self._stats([90, 100, 130]).median_estimate == 100

    def test_median_relative_error(self):
        assert self._stats([90, 110, 120]).median_relative_error == pytest.approx(0.1)

    def test_mean_relative_error(self):
        stats = self._stats([90, 110])
        assert stats.mean_relative_error == pytest.approx(0.1)

    def test_success_rate(self):
        stats = self._stats([90, 150, 101])
        assert stats.success_rate(0.15) == pytest.approx(2 / 3)

    def test_zero_truth(self):
        stats = self._stats([0, 0], truth=0.0)
        assert stats.median_relative_error == 0.0
        bad = self._stats([1, 0], truth=0.0)
        assert bad.mean_relative_error == float("inf")


class TestWallClock:
    def test_per_trial_wall_seconds_recorded(self):
        stats = run_trials(_FakeAlgorithm, _stream_factory, truth=100.0, trials=4)
        assert len(stats.results) == 4
        assert all(result.wall_seconds >= 0 for result in stats.results)


class _PassesBySeedParity:
    """Pathological: consecutive seeds alternate between 1 and 2 passes."""

    def __init__(self, seed):
        self.seed = seed

    def run(self, stream):
        list(stream.edges())
        if self.seed % 2:
            list(stream.edges())
        return EstimateResult(1.0, stream.passes_taken, SpaceMeter(), "bad")


class TestPassMismatchDiagnostics:
    def test_error_names_offending_trials(self):
        # seeds 0..4 -> parities 0,1,0,1,0 -> trials 1 and 3 take 2
        # passes; the majority (3 of 5) is 1 pass, so the error must
        # name trials [1, 3].
        with pytest.raises(RuntimeError) as excinfo:
            run_trials(
                _PassesBySeedParity, _stream_factory, truth=1.0, trials=5, base_seed=0
            )
        message = str(excinfo.value)
        assert "disagree on the number of stream passes" in message
        assert "[1, 3]" in message
        assert "majority pass count 1" in message


class TestDecisionRate:
    def test_rate(self):
        assert decision_rate(lambda seed: seed % 2 == 0, trials=10) == 0.5

    def test_validates(self):
        with pytest.raises(ValueError):
            decision_rate(lambda s: True, trials=0)
