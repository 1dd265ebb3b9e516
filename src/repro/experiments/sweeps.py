"""Parameter sweeps and scaling-law fits.

The paper's claims are asymptotic — space Õ(m / sqrt(T)), Õ(m /
T^{1/4}), ... — so the experiments sweep the driving parameter (mostly
``T``) with everything else pinned and fit a log-log slope.  A claim
like "space ~ T^{-1/2}" passes when the fitted exponent is within a
tolerance of -0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from .. import obs as _obs
from .parallel import parallel_map, run_captured


@dataclass
class SweepPoint:
    """One sweep setting and its measured outputs."""

    parameter: float
    outputs: Dict[str, float] = field(default_factory=dict)


@dataclass
class SweepResult:
    """An ordered collection of sweep points."""

    parameter_name: str
    points: List[SweepPoint]

    def series(self, output_name: str) -> Tuple[List[float], List[float]]:
        """(parameters, outputs) pairs for one measured quantity."""
        xs = [p.parameter for p in self.points]
        ys = [p.outputs[output_name] for p in self.points]
        return xs, ys

    def slope(self, output_name: str) -> float:
        """Fitted log-log slope of ``output_name`` vs the parameter."""
        xs, ys = self.series(output_name)
        return loglog_slope(xs, ys)


@dataclass(frozen=True)
class _SweepTask:
    """Picklable per-point work: ``measure(parameter)`` and how to trace it."""

    index: int
    parameter_name: str
    parameter: float
    measure: Callable[[float], Dict[str, float]]
    capture_telemetry: bool = False


def _run_sweep_task(task: _SweepTask) -> Tuple[Dict[str, float], object]:
    """Measure one point, under a fresh telemetry capture when the parent
    session is active, so sweep points fanned across processes report
    the same spans and metrics as a serial sweep."""
    return run_captured(
        task.index,
        task.capture_telemetry,
        lambda span, metrics: task.measure(task.parameter),
        f"point[{task.index}]",
        kind="sweep-point",
        parameter=task.parameter_name,
        value=task.parameter,
    )


def run_sweep(
    parameter_name: str,
    values: Sequence[float],
    measure: Callable[[float], Dict[str, float]],
    n_jobs: int = 1,
    checkpoint: "CheckpointContext" = None,
) -> SweepResult:
    """Evaluate ``measure`` at each parameter value.

    Sweep points are independent, so ``n_jobs > 1`` fans them across a
    process pool when ``measure`` is picklable (a module-level function
    or :class:`~repro.experiments.parallel.SeededFactory`-style
    callable); the point order in the result is always the input order.

    When a telemetry session is active each point runs inside its own
    capture, and the captures are merged back in point order — so the
    aggregated metrics and span tree are identical for any ``n_jobs``.

    An active ``checkpoint``
    (:class:`~repro.resilience.checkpoint.CheckpointContext`) persists
    every completed point's outputs; on resume, completed points are
    served from the checkpoint file and only the remaining ones run.
    Cached points carry no fresh telemetry capture (their spans were
    recorded by the interrupted run).
    """
    from ..resilience.checkpoint import NULL_CHECKPOINT, is_missing

    if checkpoint is None:
        checkpoint = NULL_CHECKPOINT
    telemetry = _obs.current()

    def _unit_name(i: int, value: float) -> str:
        return f"sweep:{parameter_name}[{i}]={value!r}"

    cached: Dict[int, Dict[str, float]] = {}
    tasks: List[_SweepTask] = []
    for i, value in enumerate(values):
        hit = checkpoint.lookup(_unit_name(i, value))
        if not is_missing(hit):
            cached[i] = hit
            checkpoint.hits += 1
            telemetry.metrics.inc("checkpoint.units_cached")
            continue
        tasks.append(
            _SweepTask(
                index=i,
                parameter_name=parameter_name,
                parameter=value,
                measure=measure,
                capture_telemetry=telemetry.enabled,
            )
        )
    with telemetry.tracer.span(
        f"sweep:{parameter_name}",
        kind="sweep",
        points=len(values),
        cached_points=len(cached),
    ):
        results = parallel_map(_run_sweep_task, tasks, n_jobs=n_jobs)
        for task, (output, capture) in zip(tasks, results):
            telemetry.absorb(capture)
            checkpoint.store(_unit_name(task.index, task.parameter), output)
            if checkpoint.active:
                checkpoint.misses += 1
                telemetry.metrics.inc("checkpoint.units_run")
    fresh = {task.index: output for task, (output, _) in zip(tasks, results)}
    points = [
        SweepPoint(
            parameter=value,
            outputs=cached[i] if i in cached else fresh[i],
        )
        for i, value in enumerate(values)
    ]
    return SweepResult(parameter_name=parameter_name, points=points)


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``log y`` against ``log x``.

    All inputs must be positive; two distinct x values are required.
    """
    if len(xs) != len(ys):
        raise ValueError("x and y series must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least two points to fit a slope")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("log-log fit needs strictly positive values")
    log_x = [math.log(x) for x in xs]
    log_y = [math.log(y) for y in ys]
    n = len(log_x)
    mean_x = sum(log_x) / n
    mean_y = sum(log_y) / n
    sxx = sum((x - mean_x) ** 2 for x in log_x)
    if sxx == 0:
        raise ValueError("all x values identical; slope undefined")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(log_x, log_y))
    return sxy / sxx


def geometric_range(start: float, stop: float, count: int) -> List[float]:
    """``count`` geometrically spaced values from ``start`` to ``stop``."""
    if count < 2:
        raise ValueError("need at least two values")
    if start <= 0 or stop <= 0:
        raise ValueError("geometric range needs positive endpoints")
    ratio = (stop / start) ** (1.0 / (count - 1))
    return [start * ratio**i for i in range(count)]


def guess_schedule(m: int, levels: int = 8) -> List[float]:
    """Geometric T-guess schedule ``1, 2, 4, ...`` capped at ``2 m^2``.

    The standard answer to "we do not know T in advance": run one
    algorithm instance per guess and combine (see
    :func:`repro.experiments.calibration.estimate_with_guesses`).
    """
    guesses: List[float] = []
    guess = 1.0
    cap = 2.0 * m * m
    while guess <= cap and len(guesses) < levels:
        guesses.append(guess)
        guess *= 4.0
    return guesses
