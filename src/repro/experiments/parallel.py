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
  submit-and-harvest loop.  Its one option is ``n_jobs``; its one fault
  handling is recovery from worker crashes (``BrokenProcessPool``), by
  re-executing the unfinished specs in-process.  ``n_jobs == 1`` — or
  factories that cannot be pickled, such as lambdas — run the same
  loop in-process.

* :func:`parallel_map` is the plain order-preserving fan-out for CLI
  work lists.

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
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..core.result import EstimateResult
from ..obs.trace import NULL_SPAN
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


@dataclass(frozen=True)
class TrialSpec:
    """One unit of trial work: everything a worker needs, picklable
    whenever the factories are."""

    index: int
    algorithm_seed: int
    stream_seed: int
    algorithm_factory: Callable[[int], Any]
    stream_factory: Callable[[int], Any]
    capture_telemetry: bool = False


def execute_trial(spec: TrialSpec) -> EstimateResult:
    """Run one trial (module-level so process pools can import it).

    The trial's wall-clock duration lands in ``result.wall_seconds``.
    When ``spec.capture_telemetry`` is set the trial runs in a fresh
    telemetry capture (:func:`repro.obs.capture`) inside one
    ``trial[i]`` span — in the worker process or in-process,
    identically — and the picklable export is attached as
    ``result.telemetry`` for the parent to merge in trial-index order.
    """
    algorithm = spec.algorithm_factory(spec.algorithm_seed)
    stream = spec.stream_factory(spec.stream_seed)

    def trial(span: Any, metrics: Any) -> EstimateResult:
        start = time.perf_counter()
        result = algorithm.run(stream)
        result.wall_seconds = time.perf_counter() - start
        span.set("estimate", result.estimate)
        span.set("passes", result.passes)
        span.set("space_peak", result.space_items)
        timeline = result.space.timeline(max_points=32)
        if timeline:
            span.set("space_timeline", timeline)
        metrics.observe("trial.space_items", result.space_items)
        return result

    if not spec.capture_telemetry:
        return trial(NULL_SPAN, _obs.NULL_METRICS)
    with _obs.capture(spec.index) as telemetry:
        with telemetry.tracer.span(
            f"trial[{spec.index}]",
            kind="trial",
            algorithm_seed=spec.algorithm_seed,
            stream_seed=spec.stream_seed,
        ) as span:
            result = trial(span, telemetry.metrics)
    result.telemetry = telemetry.export(spec.index)
    return result


class _Deferred(partial):
    """An in-process future: the call runs when its result is harvested."""

    def result(self) -> Any:
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

    Every trial is submitted individually and harvested in index order.
    A trial's own exception reaches the caller unchanged.  When a worker
    process dies (``BrokenProcessPool``), while trials are being
    submitted or harvested, the trials that did not finish are
    re-executed in-process; each crash is appended to
    :attr:`last_events` and counted into the active telemetry as
    ``runner.worker_crashes``.
    """

    def __init__(self, n_jobs: int = 1) -> None:
        self.n_jobs = resolve_n_jobs(n_jobs)
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
        specs = [
            TrialSpec(
                index=i,
                algorithm_seed=algorithm_seed,
                stream_seed=stream_seed,
                algorithm_factory=algorithm_factory,
                stream_factory=stream_factory,
                capture_telemetry=capture_telemetry,
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
        crashed = self._round(specs, jobs, results)
        if crashed:
            self._round(crashed, 1, results)  # the pool is broken: finish in-process
            for spec in crashed:
                results[spec.index].details.setdefault("anomalies", []).append(
                    "re-executed in-process after a worker crash"
                )
        return [results[i] for i in range(trials)]

    def _crash(self, spec: TrialSpec) -> None:
        self.last_events.append(
            {
                "kind": "worker_crash",
                "trial": spec.index,
                "detail": "process pool broke; recovering in-process",
            }
        )
        _obs.current().metrics.inc("runner.worker_crashes")

    def _round(
        self,
        specs: List[TrialSpec],
        jobs: int,
        results: Dict[int, EstimateResult],
    ) -> List[TrialSpec]:
        """Submit ``specs`` and harvest them, in order, into ``results``.

        Returns, in index order, the specs a worker crash left
        unfinished: those whose future failed or never completed, and
        every spec from the one whose submission found the pool broken
        onwards.  Finished futures keep their results, so only the lost
        work is redone.
        """
        executor = (
            ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else _InProcessExecutor()
        )
        futures: List[Any] = []
        unsubmitted: List[TrialSpec] = []
        crashed: List[TrialSpec] = []
        broken = False
        try:
            try:
                for spec in specs:
                    futures.append(executor.submit(execute_trial, spec))
            except BrokenProcessPool:
                unsubmitted = specs[len(futures) :]
                self._crash(unsubmitted[0])
                broken = True
            for spec, future in zip(specs, futures):
                if broken:
                    # Keep what finished, rerun the rest.
                    finished = future.done() and not future.cancelled()
                    if finished and future.exception() is None:
                        results[spec.index] = future.result()
                    else:
                        crashed.append(spec)
                    continue
                try:
                    results[spec.index] = future.result()
                except BrokenProcessPool:
                    self._crash(spec)
                    crashed.append(spec)
                    broken = True
        finally:
            # wait=False: a dead worker must not block the run; any
            # result it still delivers is discarded.
            executor.shutdown(wait=not broken, cancel_futures=True)
        return crashed + unsubmitted
