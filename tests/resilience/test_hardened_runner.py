"""The trial runner's fault handling: recovery from worker crashes."""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import obs as _obs
from repro.core import EstimateResult
from repro.experiments import (
    ParallelTrialRunner,
    resolve_n_jobs,
    run_trials,
    seed_schedule,
)
from repro.streams.meter import SpaceMeter


def _ok_result(seed, space=3):
    meter = SpaceMeter()
    meter.set("items", space)
    return EstimateResult(
        estimate=float(seed % 97), passes=1, space=meter, algorithm="stub"
    )


class _OkAlgorithm:
    def __init__(self, seed):
        self.seed = seed

    def run(self, stream):
        return _ok_result(self.seed)


class _CrashInWorker(_OkAlgorithm):
    """Kills its process when running inside a pool worker."""

    def run(self, stream):
        if multiprocessing.parent_process() is not None:
            os._exit(1)
        return _ok_result(self.seed)


class _BreaksOnThirdSubmit(ProcessPoolExecutor):
    """A pool whose third submission finds it broken, as a worker crash
    during submission leaves a real one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.submitted = 0

    def submit(self, fn, *args, **kwargs):
        self.submitted += 1
        if self.submitted == 3:
            raise BrokenProcessPool("a worker died during submission")
        return super().submit(fn, *args, **kwargs)


def _no_stream(seed):
    return None


def _crashed(result):
    return any("worker crash" in note for note in result.details["anomalies"])


def _make(cls):
    return cls  # classes are their own seed->instance factories


class TestResolveNJobs:
    """Satellite: non-integer and boolean n_jobs are rejected loudly."""

    def test_all_cores_spellings(self):
        cores = os.cpu_count() or 1
        assert resolve_n_jobs(None) == cores
        assert resolve_n_jobs(0) == cores
        assert resolve_n_jobs(-1) == cores

    def test_positive_passthrough(self):
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(7) == 7

    @pytest.mark.parametrize("bad", [True, False, 1.5, 2.0, "4", [2]])
    def test_rejects_non_integers(self, bad):
        with pytest.raises(TypeError, match="n_jobs must be a positive int"):
            resolve_n_jobs(bad)

    def test_rejects_negative_below_minus_one(self):
        with pytest.raises(ValueError, match="n_jobs must be a positive int"):
            resolve_n_jobs(-5)


class TestRunTrialsIntegration:
    def test_anomalies_surface_in_trial_stats(self):
        stats = run_trials(
            _CrashInWorker, _no_stream, truth=1.0, trials=3, base_seed=0, n_jobs=2
        )
        assert set(stats.anomalies) == {0, 1, 2}
        assert all(
            any("worker crash" in note for note in notes)
            for notes in stats.anomalies.values()
        )

    def test_fault_free_run_has_no_anomalies(self):
        stats = run_trials(
            _OkAlgorithm,
            _no_stream,
            truth=1.0,
            trials=3,
            base_seed=0,
        )
        assert stats.anomalies == {}


class TestPoolRecovery:
    def test_worker_crash_recovered_in_process(self):
        runner = ParallelTrialRunner(n_jobs=2)
        results = runner.run(_CrashInWorker, _no_stream, trials=2, base_seed=0)
        assert len(results) == 2
        for result in results:
            assert any(
                "worker crash" in note for note in result.details["anomalies"]
            )
        assert any(e["kind"] == "worker_crash" for e in runner.last_events)

    def test_worker_crash_metric(self):
        with _obs.session() as telemetry:
            runner = ParallelTrialRunner(n_jobs=2)
            runner.run(_CrashInWorker, _no_stream, trials=2, base_seed=0)
            counters = telemetry.metrics.snapshot()["counters"]
        assert counters["runner.worker_crashes"] >= 1

    def test_crash_during_submission_recovered_in_process(self, monkeypatch):
        monkeypatch.setattr(
            "repro.experiments.parallel.ProcessPoolExecutor", _BreaksOnThirdSubmit
        )
        runner = ParallelTrialRunner(n_jobs=2)
        results = runner.run(_OkAlgorithm, _no_stream, trials=6, base_seed=0)
        assert [r.estimate for r in results] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert all(_crashed(result) for result in results[2:])
        assert [(e["kind"], e["trial"]) for e in runner.last_events] == [
            ("worker_crash", 2)
        ]

    def test_crash_storm_with_more_workers_than_cores(self):
        """Every trial kills its worker, so the pool can break while
        trials are still being submitted; all 500 still come back, in
        index order, re-executed in-process."""
        runner = ParallelTrialRunner(n_jobs=4)
        outcome = {}

        def run():
            try:
                outcome["results"] = runner.run(
                    _CrashInWorker, _no_stream, trials=500, base_seed=0
                )
            except BaseException as exc:  # noqa: BLE001 -- reported below
                outcome["error"] = exc

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive(), "the runner hung after a worker crash"
        assert "error" not in outcome, outcome.get("error")
        results = outcome["results"]
        expected = [float(seed % 97) for seed, _ in seed_schedule(0, 500)]
        assert [r.estimate for r in results] == expected
        assert all(_crashed(result) for result in results)
