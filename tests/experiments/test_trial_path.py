"""One trial-execution path: a trial's own exception reaches the
caller unchanged, a worker crash is recovered, and the seed schedule
never hands out a seed twice."""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.core import EstimateResult
from repro.experiments import ParallelTrialRunner, seed_schedule
from repro.streams.meter import SpaceMeter


class _CrashInWorker:
    """Kills its process when running inside a pool worker."""

    def __init__(self, seed):
        self.seed = seed

    def run(self, stream):
        if multiprocessing.parent_process() is not None:
            os._exit(1)
        meter = SpaceMeter()
        meter.set("items", 3)
        return EstimateResult(float(self.seed), 1, meter, "stub")


class _OwnError(Exception):
    """A trial's own failure, distinct from every runner error type."""


class _Raises:
    def __init__(self, seed):
        self.seed = seed

    def run(self, stream):
        raise _OwnError(f"trial failure at seed {self.seed}")


class _RaisesTimeout(_Raises):
    def run(self, stream):
        raise TimeoutError(f"trial's own timeout at seed {self.seed}")


def _no_stream(seed):
    return None


class TestSeedScheduleBound:
    def test_rejects_more_than_500_trials(self):
        with pytest.raises(ValueError, match="at most 500 trials"):
            seed_schedule(0, 501)

    def test_full_schedule_has_no_repeats(self):
        flat = [s for pair in seed_schedule(0, 500) for s in pair]
        flat += [s for pair in seed_schedule(1, 500) for s in pair]
        assert len(set(flat)) == len(flat)


class TestDefaultPolicy:
    def test_worker_crash_recovered_in_process(self):
        runner = ParallelTrialRunner(n_jobs=2)
        results = runner.run(_CrashInWorker, _no_stream, trials=2, base_seed=0)
        assert [r.estimate for r in results] == [0.0, 1.0]
        for result in results:
            assert any(
                "worker crash" in note for note in result.details["anomalies"]
            )
        assert any(e["kind"] == "worker_crash" for e in runner.last_events)

    @pytest.mark.parametrize("n_jobs", [1, 2], ids=["in-process", "pool"])
    def test_trial_exception_reaches_caller_unchanged(self, n_jobs):
        runner = ParallelTrialRunner(n_jobs=n_jobs)
        with pytest.raises(_OwnError, match="trial failure at seed 0$"):
            runner.run(_Raises, _no_stream, trials=2, base_seed=0)

    def test_trial_timeout_error_is_not_a_runner_timeout(self):
        runner = ParallelTrialRunner(n_jobs=1)
        with pytest.raises(TimeoutError, match="trial's own timeout at seed 0$"):
            runner.run(_RaisesTimeout, _no_stream, trials=2, base_seed=0)
