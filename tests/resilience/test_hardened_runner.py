"""The hardened parallel engine: retries, timeouts, crash recovery."""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro import obs as _obs
from repro.core import EstimateResult
from repro.experiments import (
    ParallelTrialRunner,
    RetryPolicy,
    derive_retry_seed,
    resolve_n_jobs,
    run_trials,
    seed_schedule,
)
from repro.resilience import (
    SpaceBudgetExceeded,
    TrialRetryError,
    TrialTimeoutError,
)
from repro.streams.meter import SpaceMeter

# seed_schedule hands out base*1000 + small offsets; derived retry seeds
# are 48-bit hashes, so this threshold separates attempt 0 from retries.
DERIVED_MIN = 10**6


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


class _FlakyAlgorithm(_OkAlgorithm):
    """Fails on the scheduled seed, succeeds on any derived retry seed."""

    def run(self, stream):
        if self.seed < DERIVED_MIN:
            raise RuntimeError(f"flaky failure at seed {self.seed}")
        return _ok_result(self.seed)


class _AlwaysFail(_OkAlgorithm):
    def run(self, stream):
        raise RuntimeError("unconditional failure")


class _BigAlgorithm(_OkAlgorithm):
    def run(self, stream):
        return _ok_result(self.seed, space=1000)


class _BudgetRaiser(_OkAlgorithm):
    def run(self, stream):
        raise SpaceBudgetExceeded("sampler overflowed the reservoir")


class _CrashInWorker(_OkAlgorithm):
    """Kills its process when running inside a pool worker."""

    def run(self, stream):
        if multiprocessing.parent_process() is not None:
            os._exit(1)
        return _ok_result(self.seed)


class _SleepFirstAttempt(_OkAlgorithm):
    """Hangs on the scheduled seed; retries (derived seeds) are instant."""

    def run(self, stream):
        if self.seed < DERIVED_MIN:
            time.sleep(2.0)
        return _ok_result(self.seed)


class _AlwaysSleep(_OkAlgorithm):
    def run(self, stream):
        time.sleep(2.0)
        return _ok_result(self.seed)


def _no_stream(seed):
    return None


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


class TestDeriveRetrySeed:
    def test_attempt_zero_is_identity(self):
        assert derive_retry_seed(1234, 0) == 1234

    def test_deterministic_and_distinct(self):
        assert derive_retry_seed(7, 1) == derive_retry_seed(7, 1)
        assert derive_retry_seed(7, 1) != derive_retry_seed(7, 2)
        assert derive_retry_seed(7, 1) != derive_retry_seed(8, 1)

    def test_never_collides_with_schedule(self):
        scheduled = {s for pair in seed_schedule(0, 50) for s in pair}
        scheduled |= {s for pair in seed_schedule(9, 50) for s in pair}
        for seed in (0, 1, 9001):
            for attempt in (1, 2, 3):
                assert derive_retry_seed(seed, attempt) not in scheduled
                assert derive_retry_seed(seed, attempt) >= DERIVED_MIN

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError, match="attempt"):
            derive_retry_seed(1, -1)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="timeout_seconds"):
            RetryPolicy(timeout_seconds=0)
        with pytest.raises(ValueError, match="space_budget_items"):
            RetryPolicy(space_budget_items=0)


class TestRetriesInProcess:
    def test_flaky_trial_retried_with_derived_seed(self):
        runner = ParallelTrialRunner(n_jobs=1, retry=RetryPolicy(max_retries=2))
        results = runner.run(_FlakyAlgorithm, _no_stream, trials=3, base_seed=0)
        assert len(results) == 3
        for i, result in enumerate(results):
            retry = result.details["retry"]
            assert retry["attempt"] == 1
            expected = seed_schedule(0, 3)[i]
            assert retry["algorithm_seed"] == derive_retry_seed(expected[0], 1)
            assert retry["stream_seed"] == derive_retry_seed(expected[1], 1)
            assert any("retried" in note for note in result.details["anomalies"])
        assert [e["kind"] for e in runner.last_events] == ["retry"] * 3

    def test_retries_exhausted_raises_with_seeds(self):
        runner = ParallelTrialRunner(n_jobs=1, retry=RetryPolicy(max_retries=1))
        with pytest.raises(TrialRetryError, match="no retries left"):
            runner.run(_AlwaysFail, _no_stream, trials=1, base_seed=0)

    def test_retry_metrics_emitted(self):
        with _obs.session() as telemetry:
            runner = ParallelTrialRunner(n_jobs=1, retry=RetryPolicy(max_retries=2))
            runner.run(_FlakyAlgorithm, _no_stream, trials=2, base_seed=0)
            counters = telemetry.metrics.snapshot()["counters"]
        assert counters["runner.retries"] == 2

    def test_untriggered_policy_matches_fast_path(self):
        hardened = ParallelTrialRunner(n_jobs=1, retry=RetryPolicy(max_retries=3))
        plain = ParallelTrialRunner(n_jobs=1)
        a = hardened.run(_OkAlgorithm, _no_stream, trials=4, base_seed=2)
        b = plain.run(_OkAlgorithm, _no_stream, trials=4, base_seed=2)
        assert [r.estimate for r in a] == [r.estimate for r in b]
        assert all("anomalies" not in r.details for r in a)
        assert runner_details_equal(a, b)


def runner_details_equal(a, b):
    return [r.details for r in a] == [r.details for r in b]


class TestSpaceBudget:
    def test_over_budget_flagged_not_aborted(self):
        runner = ParallelTrialRunner(
            n_jobs=1, retry=RetryPolicy(space_budget_items=10)
        )
        results = runner.run(_BigAlgorithm, _no_stream, trials=2, base_seed=0)
        for result in results:
            assert result.details["space_budget_exceeded"] is True
            assert result.estimate >= 0  # real estimate, not aborted
            assert any(
                "space budget exceeded" in note
                for note in result.details["anomalies"]
            )

    def test_budget_raise_degrades_to_partial(self):
        runner = ParallelTrialRunner(
            n_jobs=1, retry=RetryPolicy(space_budget_items=10)
        )
        results = runner.run(_BudgetRaiser, _no_stream, trials=2, base_seed=0)
        for result in results:
            assert result.details["partial"] is True
            assert result.details["space_budget_exceeded"] is True

    def test_under_budget_untouched(self):
        runner = ParallelTrialRunner(
            n_jobs=1, retry=RetryPolicy(space_budget_items=10)
        )
        results = runner.run(_OkAlgorithm, _no_stream, trials=2, base_seed=0)
        assert all("space_budget_exceeded" not in r.details for r in results)

    def test_budget_flag_metric(self):
        with _obs.session() as telemetry:
            runner = ParallelTrialRunner(
                n_jobs=1, retry=RetryPolicy(space_budget_items=10)
            )
            runner.run(_BigAlgorithm, _no_stream, trials=3, base_seed=0)
            counters = telemetry.metrics.snapshot()["counters"]
        assert counters["runner.space_budget_flags"] == 3


class TestRunTrialsIntegration:
    def test_anomalies_surface_in_trial_stats(self):
        stats = run_trials(
            _FlakyAlgorithm,
            _no_stream,
            truth=1.0,
            trials=3,
            base_seed=0,
            retry=RetryPolicy(max_retries=2),
        )
        assert set(stats.anomalies) == {0, 1, 2}
        assert all(
            any("retried" in note for note in notes)
            for notes in stats.anomalies.values()
        )

    def test_partial_results_do_not_break_pass_consistency(self):
        stats = run_trials(
            _BudgetRaiser,
            _no_stream,
            truth=1.0,
            trials=3,
            base_seed=0,
            retry=RetryPolicy(space_budget_items=10),
        )
        assert stats.trials == 3  # the sweep survived
        assert all(
            r.details.get("partial") for r in stats.results
        )

    def test_fault_free_run_has_no_anomalies(self):
        stats = run_trials(
            _OkAlgorithm,
            _no_stream,
            truth=1.0,
            trials=3,
            base_seed=0,
            retry=RetryPolicy(max_retries=2, space_budget_items=10**6),
        )
        assert stats.anomalies == {}


class TestPoolRecovery:
    def test_worker_crash_recovered_in_process(self):
        runner = ParallelTrialRunner(n_jobs=2, retry=RetryPolicy(max_retries=1))
        results = runner.run(_CrashInWorker, _no_stream, trials=2, base_seed=0)
        assert len(results) == 2
        for result in results:
            assert any(
                "worker crash" in note for note in result.details["anomalies"]
            )
        assert any(e["kind"] == "worker_crash" for e in runner.last_events)

    def test_worker_crash_metric(self):
        with _obs.session() as telemetry:
            runner = ParallelTrialRunner(n_jobs=2, retry=RetryPolicy(max_retries=1))
            runner.run(_CrashInWorker, _no_stream, trials=2, base_seed=0)
            counters = telemetry.metrics.snapshot()["counters"]
        assert counters["runner.worker_crashes"] >= 1

    def test_timeout_abandons_and_retries(self):
        runner = ParallelTrialRunner(
            n_jobs=2,
            retry=RetryPolicy(max_retries=1, timeout_seconds=0.5),
        )
        results = runner.run(_SleepFirstAttempt, _no_stream, trials=2, base_seed=0)
        assert len(results) == 2
        assert all(r.details["retry"]["attempt"] == 1 for r in results)
        assert any(e["kind"] == "timeout" for e in runner.last_events)

    def test_timeout_with_no_retries_raises(self):
        runner = ParallelTrialRunner(
            n_jobs=2, retry=RetryPolicy(timeout_seconds=0.3)
        )
        with pytest.raises(TrialTimeoutError, match="timeout"):
            runner.run(_AlwaysSleep, _no_stream, trials=2, base_seed=0)

    def test_pool_results_match_serial_under_active_policy(self):
        policy = RetryPolicy(max_retries=1)
        serial = ParallelTrialRunner(n_jobs=1, retry=policy).run(
            _OkAlgorithm, _no_stream, trials=4, base_seed=3
        )
        pooled = ParallelTrialRunner(n_jobs=2, retry=policy).run(
            _OkAlgorithm, _no_stream, trials=4, base_seed=3
        )
        assert [r.estimate for r in serial] == [r.estimate for r in pooled]
        assert runner_details_equal(serial, pooled)
