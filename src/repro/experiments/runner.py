"""Trial running and statistics for Monte Carlo streaming algorithms.

Every algorithm in this library is randomized (and most are analyzed
at constant success probability), so a single run proves nothing.  The
runner executes independent trials — fresh algorithm seed *and* fresh
stream randomness per trial — and summarizes the estimate and space
distributions the experiments assert on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from ..core.result import EstimateResult
from .. import obs as _obs
from ..sketches.estimators import median
from ..streams.models import StreamSource
from .parallel import ParallelTrialRunner, RetryPolicy, SeededFactory

AlgorithmFactory = Callable[[int], Any]  # seed -> algorithm with .run()
StreamFactory = Callable[[int], StreamSource]  # seed -> fresh stream


@dataclass
class TrialStats:
    """Summary of repeated runs against a known ground truth."""

    truth: float
    estimates: List[float]
    space_items: List[int]
    passes: int
    results: List[EstimateResult] = field(repr=False, default_factory=list)
    wall_seconds: List[float] = field(repr=False, default_factory=list)
    #: trial index -> anomaly notes (retries with their derived seeds,
    #: timeout overruns, space-budget flags, crash recoveries); empty
    #: for a fault-free run.
    anomalies: Dict[int, List[str]] = field(repr=False, default_factory=dict)

    @property
    def trials(self) -> int:
        return len(self.estimates)

    @property
    def total_wall_seconds(self) -> float:
        return sum(self.wall_seconds)

    @property
    def median_wall_seconds(self) -> float:
        if not self.wall_seconds:
            return 0.0
        return median(self.wall_seconds)

    @property
    def median_estimate(self) -> float:
        return median(self.estimates)

    @property
    def median_relative_error(self) -> float:
        """Relative error of the *median estimate* — the quantity the
        paper's boost-by-median argument controls."""
        if self.truth == 0:
            return 0.0 if self.median_estimate == 0 else float("inf")
        return abs(self.median_estimate - self.truth) / self.truth

    @property
    def per_trial_relative_errors(self) -> List[float]:
        if self.truth == 0:
            return [0.0 if e == 0 else float("inf") for e in self.estimates]
        return [abs(e - self.truth) / self.truth for e in self.estimates]

    @property
    def mean_relative_error(self) -> float:
        errors = self.per_trial_relative_errors
        return sum(errors) / len(errors)

    def success_rate(self, epsilon: float) -> float:
        """Fraction of trials within a (1 +- epsilon) factor of truth."""
        errors = self.per_trial_relative_errors
        return sum(1 for e in errors if e <= epsilon) / len(errors)

    @property
    def median_space(self) -> float:
        return median([float(s) for s in self.space_items])

    @property
    def max_space(self) -> int:
        return max(self.space_items)

    def summary_row(self) -> Dict[str, float]:
        return {
            "truth": self.truth,
            "median_estimate": self.median_estimate,
            "median_rel_error": self.median_relative_error,
            "mean_rel_error": self.mean_relative_error,
            "median_space": self.median_space,
            "trials": self.trials,
            "passes": self.passes,
        }


def run_trials(
    algorithm_factory: AlgorithmFactory,
    stream_factory: StreamFactory,
    truth: float,
    trials: int = 9,
    base_seed: int = 0,
    n_jobs: int = 1,
    retry: "RetryPolicy" = None,
) -> TrialStats:
    """Run ``trials`` independent (algorithm, stream) pairs.

    Trial ``i`` uses algorithm seed ``base_seed * 1000 + i`` and stream
    seed ``base_seed * 1000 + 500 + i`` so neither is shared across
    trials or between the two sources of randomness.

    ``n_jobs`` fans the trials across a process pool (``-1``/``0``/
    ``None`` = all cores).  Every trial is a pure function of its seeds,
    so the stats are bit-identical for any ``n_jobs``; non-picklable
    factories (lambdas) degrade to in-process execution with a warning.

    ``retry`` sets timeouts, bounded retries with derived seeds and
    space-budget flagging (see
    :class:`~repro.experiments.parallel.RetryPolicy`); worker crashes
    are recovered under any policy.  Trials that needed intervention
    land in :attr:`TrialStats.anomalies`.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    telemetry = _obs.current()
    runner = ParallelTrialRunner(n_jobs=n_jobs, retry=retry)
    with telemetry.tracer.span(
        "run_trials", kind="runner", trials=trials, base_seed=base_seed
    ):
        results: List[EstimateResult] = runner.run(
            algorithm_factory, stream_factory, trials=trials, base_seed=base_seed
        )
        # Fold per-trial captures back in — always in trial index order,
        # which is what makes serial and parallel aggregation identical.
        for result in results:
            telemetry.absorb(result.telemetry)
            result.telemetry = None
    estimates = [result.estimate for result in results]
    spaces = [result.space_items for result in results]
    walls = [result.wall_seconds for result in results]
    anomalies: Dict[int, List[str]] = {
        i: list(result.details["anomalies"])
        for i, result in enumerate(results)
        if result.details.get("anomalies")
    }
    # Budget-aborted partials legitimately stopped early; exclude them
    # from the pass-consistency invariant instead of calling the
    # algorithm buggy for a fault the harness injected.
    countable = [r for r in results if not r.details.get("partial")]
    pass_counts = {result.passes for result in countable} or {0}
    if len(pass_counts) != 1:
        majority = max(
            pass_counts, key=lambda p: sum(r.passes == p for r in countable)
        )
        offenders = [i for i, r in enumerate(results) if r.passes != majority]
        raise RuntimeError(
            "trials disagree on the number of stream passes "
            f"({sorted(pass_counts)}); trial(s) {offenders} deviate from the "
            f"majority pass count {majority}.  Every trial of one algorithm "
            "must use the same pass budget — this indicates a seed-dependent "
            "control-flow bug in the algorithm under test"
        )
    passes = pass_counts.pop()
    if telemetry.enabled:
        payload: Dict[str, Any] = {
            "trials": trials,
            "base_seed": base_seed,
            "n_jobs": n_jobs,
            "truth": truth,
            "passes": passes,
            "algorithm": results[0].algorithm,
            "estimates": estimates,
            "space_items": spaces,
            "wall_seconds": walls,
        }
        if anomalies:
            payload["anomalies"] = {str(k): v for k, v in anomalies.items()}
        if isinstance(algorithm_factory, SeededFactory):
            for key in ("epsilon", "t_guess"):
                if key in algorithm_factory.kwargs:
                    payload[key] = algorithm_factory.kwargs[key]
        telemetry.record_run("run_trials", payload)
    return TrialStats(
        truth=truth,
        estimates=estimates,
        space_items=spaces,
        passes=passes,
        results=results,
        wall_seconds=walls,
        anomalies=anomalies,
    )


def decision_rate(
    decide: Callable[[int], bool], trials: int = 15, base_seed: int = 0
) -> float:
    """Fraction of trials on which ``decide(seed)`` returns True —
    used for the distinguisher and lower-bound protocol experiments."""
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    hits = sum(1 for i in range(trials) if decide(base_seed * 1000 + i))
    return hits / trials
