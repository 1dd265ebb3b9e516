"""The plumbing every estimator shares around its algorithm.

Every ``run()`` in :mod:`repro.core` and :mod:`repro.baselines` follows
one skeleton: validate ``t_guess`` / ``epsilon`` at construction, wrap
each stream pass (and post-processing phase) in a span stamped with the
space it peaked at, and return an :class:`EstimateResult` whose
``details`` are the run's only algorithm metrics.

These are plain functions, not a base class: each algorithm keeps its
own ``run`` in its own class body, which benchmark tracing wraps.  This
is the one module of the two packages that talks to the metrics
registry, so ``details`` and the metrics cannot drift apart.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Tuple

from .. import obs as _obs
from ..streams.meter import SpaceMeter
from .result import EstimateResult


def check_accuracy(
    t_guess: float, epsilon: Optional[float] = None
) -> Tuple[float, Optional[float]]:
    """Validate ``T >= 1`` and, when given, ``epsilon`` in (0, 1).

    Returns the two values as the floats an algorithm stores.
    """
    if t_guess < 1:
        raise ValueError(f"t_guess must be >= 1, got {t_guess}")
    if epsilon is not None and not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    return float(t_guess), None if epsilon is None else float(epsilon)


def require_adjacency(algorithm: Any, stream: Any) -> None:
    """Reject a stream that does not deliver adjacency lists."""
    if not getattr(stream, "provides_adjacency", False):
        raise TypeError(f"{type(algorithm).__name__} requires an adjacency-list stream")


@contextmanager
def pass_span(name: str, meter: SpaceMeter, kind: str = "pass") -> Iterator[Any]:
    """A span of the active tracer that records ``meter.peak`` on close.

    ``repro.obs.current`` is looked up at call time, so a session opened
    (or a tracer patched in) after import is honoured.
    """
    with _obs.current().tracer.span(name, kind=kind) as span:
        yield span
        span.set("space_peak", meter.peak)


def finish(
    name: str, estimate: float, passes: int, meter: SpaceMeter, details: Dict[str, Any]
) -> EstimateResult:
    """Build the result; with telemetry on, record its scalar details.

    Each int, float or bool entry of ``details`` is observed once in the
    histogram ``"{name}.{key}"``.
    """
    telemetry = _obs.current()
    if telemetry.enabled:
        for key, value in details.items():
            if isinstance(value, (int, float)):  # bool is an int
                telemetry.metrics.observe(f"{name}.{key}", value)
    return EstimateResult(estimate, passes, meter, name, details)
