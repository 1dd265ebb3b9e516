"""Parallel execution engine for Monte Carlo trials.

Every experiment in this repo is an embarrassingly parallel loop over
independent (algorithm-seed, stream-seed) pairs, so the engine is a
thin, deterministic fan-out:

* :func:`seed_schedule` is the *single source of truth* for the serial
  seed schedule (``base_seed * 1000 + i`` / ``+ 500 + i``, so at most
  500 trials per base seed).  Parallel execution reuses it verbatim, so
  ``n_jobs=1`` and ``n_jobs=8`` produce bit-identical results — each
  trial's randomness is a pure function of its seeds, never of
  scheduling order.

* :class:`TrialSpec` is the picklable unit of work shipped to worker
  processes; :func:`execute_trial` is the module-level worker entry
  point (bound methods and lambdas cannot cross the pickle boundary).

* :class:`ParallelTrialRunner` runs every trial through one
  submit-and-harvest loop under a :class:`RetryPolicy`: per-trial
  wall-clock timeouts, bounded retries with deterministically derived
  seeds (:func:`derive_retry_seed`), recovery from worker crashes
  (``BrokenProcessPool``) by re-executing the unfinished specs
  in-process, and a space-budget guard that *flags* over-budget trials
  instead of aborting the sweep.  The default policy is zero retries,
  no timeout and no budget.  ``n_jobs == 1`` — or factories that cannot
  be pickled, such as lambdas — run the same loop in-process.

* :func:`parallel_map` is the plain order-preserving fan-out (sweep
  points, CLI work lists); :func:`run_captured` is the per-unit
  telemetry capture that trials and sweep points share.

* :class:`SeededFactory` adapts ``Class(**kwargs, seed=seed)``
  construction into a picklable factory so call sites can opt into real
  multi-process execution without writing one-off top-level functions.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..core.result import EstimateResult
from ..obs.trace import NULL_SPAN
from ..resilience.errors import (
    SpaceBudgetExceeded,
    TrialRetryError,
    TrialTimeoutError,
)
from ..seeding import derive_seed
from ..streams.meter import SpaceMeter
from .. import obs as _obs

T = TypeVar("T")
R = TypeVar("R")


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalize an ``n_jobs`` request to a concrete worker count.

    ``None``, ``0`` and ``-1`` all mean "use every core"; positive
    integers are taken literally; anything else — including ``True``/
    ``False``, floats and strings — is rejected explicitly rather than
    silently coerced.
    """
    if n_jobs is None:
        return os.cpu_count() or 1
    if isinstance(n_jobs, bool) or not isinstance(n_jobs, int):
        raise TypeError(
            f"n_jobs must be a positive int, or -1/0/None for all cores; "
            f"got {n_jobs!r} of type {type(n_jobs).__name__}"
        )
    if n_jobs in (0, -1):
        return os.cpu_count() or 1
    if n_jobs < -1:
        raise ValueError(
            f"n_jobs must be a positive int, or -1/0/None for all cores; "
            f"got {n_jobs}"
        )
    return n_jobs


def _is_picklable(obj: Any) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


def parallel_map(fn: Callable[[T], R], items: Sequence[T], n_jobs: int = 1) -> List[R]:
    """``[fn(x) for x in items]``, optionally over a process pool.

    Results are returned in input order regardless of completion order.
    When the function or any item cannot be pickled the call degrades to
    the serial loop (emitting a ``RuntimeWarning``), so callers always
    get identical results — parallelism is purely an execution detail.
    """
    jobs = resolve_n_jobs(n_jobs)
    if jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    if not (_is_picklable(fn) and all(_is_picklable(item) for item in items)):
        warnings.warn(
            "parallel_map fell back to serial execution: the task is not "
            "picklable (lambdas/closures cannot cross process boundaries); "
            "use module-level callables or SeededFactory for real parallelism",
            RuntimeWarning,
            stacklevel=2,
        )
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as executor:
        return list(executor.map(fn, items))


def run_captured(
    index: int,
    enabled: bool,
    body: Callable[[Any, Any], T],
    name: str,
    kind: str,
    **attrs: Any,
) -> Tuple[T, Optional[_obs.TrialTelemetry]]:
    """Run ``body(span, metrics)`` as unit ``index`` of a fan-out.

    When ``enabled``, the unit runs in a fresh telemetry capture
    (:func:`repro.obs.capture`) inside one span ``name``, and the
    picklable export is returned next to ``body``'s value for the parent
    to absorb in index order — identically in a worker process and
    in-process.  Otherwise ``body`` gets the no-op span and metrics and
    the export is ``None``.
    """
    if not enabled:
        return body(NULL_SPAN, _obs.NULL_METRICS), None
    with _obs.capture(index) as telemetry:
        with telemetry.tracer.span(name, kind=kind, **attrs) as span:
            value = body(span, telemetry.metrics)
    return value, telemetry.export(index)


@dataclass(frozen=True)
class SeededFactory:
    """A picklable ``seed -> target(**kwargs, seed=seed)`` factory.

    Works for any top-level class or function: algorithm factories
    (``SeededFactory(TriangleRandomOrder, {"t_guess": 90, "epsilon": 0.3})``)
    and stream factories (``SeededFactory(RandomOrderStream, {"graph": g})``)
    alike.  ``seed_param=None`` drops the seed for deterministic targets
    (e.g. ``CormodeJowhariTriangles`` takes no seed).
    """

    target: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)
    seed_param: Optional[str] = "seed"

    def __call__(self, seed: int) -> Any:
        if self.seed_param is None:
            return self.target(**self.kwargs)
        return self.target(**{**self.kwargs, self.seed_param: seed})


def seed_schedule(base_seed: int, trials: int) -> List[Tuple[int, int]]:
    """The serial (algorithm_seed, stream_seed) schedule for each trial.

    Trial ``i`` uses algorithm seed ``base_seed * 1000 + i`` and stream
    seed ``base_seed * 1000 + 500 + i`` so neither is shared across
    trials or between the two sources of randomness.  Both the serial
    and parallel runners consume exactly this schedule.  Beyond 500
    trials the two ranges would overlap (and spill into the next base
    seed's), so larger requests are rejected.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if trials > 500:
        raise ValueError(
            f"at most 500 trials per base seed, got {trials}: trial 500's "
            "algorithm seed would repeat trial 0's stream seed"
        )
    return [
        (base_seed * 1000 + i, base_seed * 1000 + 500 + i) for i in range(trials)
    ]


def derive_retry_seed(seed: int, attempt: int) -> int:
    """The seed a retry attempt uses, derived deterministically.

    Attempt 0 is the scheduled seed itself; attempt ``k > 0`` is
    ``derive_seed("runner:retry", k, seed=seed)`` — a 63-bit hash, so
    retries explore fresh randomness without colliding with any seed
    :func:`seed_schedule` could ever hand out, while the whole retry
    chain stays reproducible from the base seed alone.
    """
    if attempt < 0:
        raise ValueError(f"attempt must be non-negative, got {attempt}")
    if attempt == 0:
        return seed
    return derive_seed("runner:retry", attempt, seed=seed)


@dataclass(frozen=True)
class RetryPolicy:
    """How the runner treats misbehaving trials.

    Attributes:
        max_retries: how many times a failing (raising or timed-out)
            trial is re-attempted, each with :func:`derive_retry_seed`
            seeds.  With no retries a trial's own exception reaches the
            caller unchanged; after the last of ``k > 0`` retries it is
            wrapped in :class:`TrialRetryError`.  A timeout with no
            retries left raises :class:`TrialTimeoutError`.
        timeout_seconds: per-trial wall-clock budget.  In pool mode a
            trial that exceeds it is abandoned (its worker result is
            discarded) and retried; in-process the trial cannot be
            preempted, so the overrun is flagged post-hoc in
            ``details["anomalies"]``.
        space_budget_items: peak-space guard in the paper's word
            measure.  An over-budget trial is *flagged*
            (``details["space_budget_exceeded"]``), never aborted; an
            algorithm that raises :class:`SpaceBudgetExceeded` mid-run
            degrades to a flagged partial result.
    """

    max_retries: int = 0
    timeout_seconds: Optional[float] = None
    space_budget_items: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError(
                f"timeout_seconds must be positive, got {self.timeout_seconds}"
            )
        if self.space_budget_items is not None and self.space_budget_items < 1:
            raise ValueError(
                f"space_budget_items must be positive, got {self.space_budget_items}"
            )


@dataclass(frozen=True)
class TrialSpec:
    """One unit of trial work: everything a worker needs, picklable
    whenever the factories are.

    ``attempt`` is 0 for the scheduled run; retries carry 1, 2, ... and
    the worker derives its effective seeds via :func:`derive_retry_seed`.
    ``timeout_seconds`` / ``space_budget_items`` mirror the runner's
    :class:`RetryPolicy` so the guard travels with the spec across the
    process boundary.
    """

    index: int
    algorithm_seed: int
    stream_seed: int
    algorithm_factory: Callable[[int], Any]
    stream_factory: Callable[[int], Any]
    capture_telemetry: bool = False
    attempt: int = 0
    timeout_seconds: Optional[float] = None
    space_budget_items: Optional[int] = None


def _mark_anomaly(result: EstimateResult, note: str) -> None:
    result.details.setdefault("anomalies", []).append(note)


def _guarded_run(algorithm: Any, stream: Any, spec: TrialSpec) -> EstimateResult:
    """Run the algorithm; degrade a ``SpaceBudgetExceeded`` raise into a
    flagged partial result instead of killing the whole sweep."""
    try:
        result = algorithm.run(stream)
    except SpaceBudgetExceeded as exc:
        meter = SpaceMeter()
        items = getattr(exc, "space_items", None)
        if items:
            meter.set("over_budget", int(items))
        result = EstimateResult(
            estimate=float(getattr(exc, "partial_estimate", 0.0) or 0.0),
            passes=int(getattr(exc, "passes", 0) or 0),
            space=meter,
            algorithm=getattr(algorithm, "name", type(algorithm).__name__),
            details={"space_budget_exceeded": True, "partial": True},
        )
        _mark_anomaly(result, f"space budget aborted the trial: {exc}")
    budget = spec.space_budget_items
    if budget is not None and result.space_items > budget:
        if not result.details.get("space_budget_exceeded"):
            result.details["space_budget_exceeded"] = True
            _mark_anomaly(
                result,
                f"space budget exceeded ({result.space_items} > {budget} items)",
            )
    return result


def _finalize(result: EstimateResult, spec: TrialSpec, seeds: Tuple[int, int]) -> None:
    if spec.attempt:
        result.details["retry"] = {
            "attempt": spec.attempt,
            "algorithm_seed": seeds[0],
            "stream_seed": seeds[1],
        }
        _mark_anomaly(result, f"retried (attempt {spec.attempt})")
    if spec.timeout_seconds is not None and result.wall_seconds > spec.timeout_seconds:
        _mark_anomaly(
            result,
            f"wall clock {result.wall_seconds:.3f}s exceeded the "
            f"{spec.timeout_seconds:.3f}s timeout (completed anyway)",
        )


def execute_trial(spec: TrialSpec) -> EstimateResult:
    """Run one trial (module-level so process pools can import it).

    The trial's wall-clock duration lands in ``result.wall_seconds``.
    When ``spec.capture_telemetry`` is set the trial runs inside
    :func:`run_captured` — in the worker process or in-process,
    identically — and the capture is attached as ``result.telemetry``
    for the parent to merge in trial-index order.

    A non-zero ``spec.attempt`` (a retry) derives its effective seeds
    with :func:`derive_retry_seed` and records them in
    ``result.details["retry"]``.
    """
    algorithm_seed = derive_retry_seed(spec.algorithm_seed, spec.attempt)
    stream_seed = derive_retry_seed(spec.stream_seed, spec.attempt)
    algorithm = spec.algorithm_factory(algorithm_seed)
    stream = spec.stream_factory(stream_seed)

    def trial(span: Any, metrics: Any) -> EstimateResult:
        start = time.perf_counter()
        result = _guarded_run(algorithm, stream, spec)
        result.wall_seconds = time.perf_counter() - start
        span.set("estimate", result.estimate)
        span.set("passes", result.passes)
        span.set("space_peak", result.space_items)
        if spec.attempt:
            span.set("attempt", spec.attempt)
        timeline = result.space.timeline(max_points=32)
        if timeline:
            span.set("space_timeline", timeline)
        metrics.observe("trial.space_items", result.space_items)
        return result

    result, result_telemetry = run_captured(
        spec.index,
        spec.capture_telemetry,
        trial,
        f"trial[{spec.index}]",
        kind="trial",
        algorithm_seed=algorithm_seed,
        stream_seed=stream_seed,
    )
    result.telemetry = result_telemetry
    _finalize(result, spec, (algorithm_seed, stream_seed))
    return result


class _Deferred(partial):
    """An in-process future: the call runs when its result is harvested.

    There is no worker to preempt, so ``timeout`` is not enforced here;
    :func:`_finalize` flags an overrun after the fact instead.
    """

    def result(self, timeout: Optional[float] = None) -> Any:
        return self()


class _InProcessExecutor:
    """The ``n_jobs == 1`` executor: trials run one at a time, in
    submission order, as the runner harvests them."""

    def submit(self, fn: Callable[..., Any], *args: Any) -> _Deferred:
        return _Deferred(fn, *args)

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


class ParallelTrialRunner:
    """Fans independent trials across a process pool.

    The runner guarantees that results are ordered by trial index and
    that each trial sees exactly the seeds :func:`seed_schedule`
    assigns, so ``ParallelTrialRunner(n_jobs=1)`` and ``n_jobs=8`` are
    bit-identical.  Non-picklable factories degrade to in-process
    execution (with a warning) — still correct, just serial.

    Every trial is submitted individually and harvested in index order
    under the runner's :class:`RetryPolicy`, so it can be timed out,
    retried with derived seeds, or — when a worker process dies
    (``BrokenProcessPool``) — re-executed in-process.  Recovery events
    are appended to :attr:`last_events` and counted into the active
    telemetry as ``runner.retries`` / ``runner.timeouts`` /
    ``runner.worker_crashes`` / ``runner.space_budget_flags``.
    """

    def __init__(self, n_jobs: int = 1, retry: Optional[RetryPolicy] = None) -> None:
        self.n_jobs = resolve_n_jobs(n_jobs)
        self.retry = retry if retry is not None else RetryPolicy()
        self.last_events: List[Dict[str, Any]] = []

    def run(
        self,
        algorithm_factory: Callable[[int], Any],
        stream_factory: Callable[[int], Any],
        trials: int,
        base_seed: int = 0,
        capture_telemetry: Optional[bool] = None,
    ) -> List[EstimateResult]:
        """Execute the trials; ``capture_telemetry=None`` follows the
        caller's active telemetry session (off → no capture)."""
        if capture_telemetry is None:
            capture_telemetry = _obs.current().enabled
        policy = self.retry
        specs = [
            TrialSpec(
                index=i,
                algorithm_seed=algorithm_seed,
                stream_seed=stream_seed,
                algorithm_factory=algorithm_factory,
                stream_factory=stream_factory,
                capture_telemetry=capture_telemetry,
                timeout_seconds=policy.timeout_seconds,
                space_budget_items=policy.space_budget_items,
            )
            for i, (algorithm_seed, stream_seed) in enumerate(
                seed_schedule(base_seed, trials)
            )
        ]
        self.last_events = []
        jobs = min(self.n_jobs, trials)
        if jobs > 1 and not (
            _is_picklable(algorithm_factory) and _is_picklable(stream_factory)
        ):
            warnings.warn(
                "ParallelTrialRunner fell back to in-process execution: the "
                "trial factories are not picklable (lambdas/closures cannot "
                "cross process boundaries); use module-level callables or "
                "SeededFactory for real parallelism",
                RuntimeWarning,
                stacklevel=3,
            )
            jobs = 1
        results: Dict[int, EstimateResult] = {}
        recovered: List[int] = []
        while specs:
            specs, crashed = self._round(specs, jobs, results)
            if crashed:
                recovered.extend(crashed)
                jobs = 1  # the pool is poisoned: finish in-process
        for index in recovered:
            _mark_anomaly(results[index], "re-executed in-process after a worker crash")
        flagged = sum(
            1 for r in results.values() if r.details.get("space_budget_exceeded")
        )
        if flagged:
            _obs.current().metrics.inc("runner.space_budget_flags", flagged)
        return [results[i] for i in range(trials)]

    def _event(self, kind: str, spec: TrialSpec, detail: str) -> None:
        self.last_events.append(
            {
                "kind": kind,
                "trial": spec.index,
                "attempt": spec.attempt,
                "detail": detail,
            }
        )

    def _attempts_left(self, spec: TrialSpec) -> bool:
        return spec.attempt < self.retry.max_retries

    def _retry_spec(self, spec: TrialSpec, reason: str) -> TrialSpec:
        bumped = replace(spec, attempt=spec.attempt + 1)
        self._event("retry", bumped, reason)
        _obs.current().metrics.inc("runner.retries")
        return bumped

    def _round(
        self,
        specs: List[TrialSpec],
        jobs: int,
        results: Dict[int, EstimateResult],
    ) -> Tuple[List[TrialSpec], List[int]]:
        """Submit ``specs`` and harvest them, in order, into ``results``.

        Returns the specs for the next round — retries, plus every spec
        left unharvested when a worker crash broke the pool — and the
        indices of those crash survivors.  Finished futures keep their
        results, so only the failed work is redone.
        """
        timeout = self.retry.timeout_seconds
        executor = (
            ProcessPoolExecutor(max_workers=min(jobs, len(specs)))
            if jobs > 1
            else _InProcessExecutor()
        )
        # Only a pool wait with a timeout runs out; any other
        # TimeoutError is the trial's own.
        waited_out = FuturesTimeoutError if timeout is not None and jobs > 1 else ()
        pending: List[TrialSpec] = []
        crashed: List[int] = []
        abandoned = False
        try:
            futures = [(spec, executor.submit(execute_trial, spec)) for spec in specs]
            for spec, future in futures:
                if crashed:
                    # The pool is poisoned: keep what finished, rerun the rest.
                    finished = future.done() and not future.cancelled()
                    if finished and future.exception() is None:
                        results[spec.index] = future.result()
                    else:
                        pending.append(spec)
                        crashed.append(spec.index)
                    continue
                try:
                    results[spec.index] = future.result(timeout=timeout)
                except waited_out:
                    abandoned = True
                    self._event("timeout", spec, f"exceeded {timeout}s wall clock")
                    _obs.current().metrics.inc("runner.timeouts")
                    if not self._attempts_left(spec):
                        raise TrialTimeoutError(
                            f"trial {spec.index} exceeded its {timeout}s "
                            f"timeout on attempt {spec.attempt} with no "
                            "retries left"
                        ) from None
                    pending.append(self._retry_spec(spec, "timeout"))
                except BrokenProcessPool:
                    self._event(
                        "worker_crash", spec, "process pool broke; recovering in-process"
                    )
                    _obs.current().metrics.inc("runner.worker_crashes")
                    pending.append(spec)
                    crashed.append(spec.index)
                except Exception as exc:  # noqa: BLE001 — bounded retry
                    if self._attempts_left(spec):
                        pending.append(self._retry_spec(spec, repr(exc)))
                    elif not self.retry.max_retries:
                        raise
                    else:
                        raise TrialRetryError(
                            f"trial {spec.index} failed on attempt {spec.attempt} "
                            f"(algorithm seed "
                            f"{derive_retry_seed(spec.algorithm_seed, spec.attempt)}, "
                            f"stream seed "
                            f"{derive_retry_seed(spec.stream_seed, spec.attempt)}) "
                            f"with no retries left: {exc!r}"
                        ) from exc
        finally:
            # wait=False: a hung or dead worker (timeout, crash) must not
            # block the sweep; its eventual result is discarded.
            executor.shutdown(wait=not (crashed or abandoned), cancel_futures=True)
        return pending, crashed
