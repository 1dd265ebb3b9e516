"""Telemetry sessions: the active Tracer + MetricsRegistry + manifest.

The module keeps one process-wide *active* :class:`Telemetry`;
instrumented code asks for it with :func:`current` and gets the no-op
:data:`NULL` when telemetry is off (the default), so the hot path pays
nothing beyond an attribute check.  Usage::

    from repro import obs

    with obs.session(path="run.jsonl", config={"seed": 0}) as tel:
        run_trials(...)                    # instrumented internally
    # run.jsonl now holds manifest + spans + metrics as JSON lines

Worker processes (and serial trials, for bit-identical aggregation)
capture into a fresh session via :func:`capture`, export a picklable
:class:`TrialTelemetry`, and the parent folds those exports back in
trial-index order with :meth:`Telemetry.absorb`.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from .manifest import RunManifest, collect_manifest
from .metrics import NULL_METRICS, MetricsRegistry, NullMetrics
from .trace import NULL_TRACER, NullTracer, Tracer


@dataclass
class TrialTelemetry:
    """A picklable per-trial telemetry capture."""

    index: int
    spans: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)


class Telemetry:
    """One live telemetry session: tracer + metrics + manifest + runs."""

    enabled = True

    def __init__(self, manifest: Optional[RunManifest] = None) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.manifest = manifest
        self.runs: List[Dict[str, Any]] = []

    # -- recording -------------------------------------------------------
    def record_run(self, invocation: str, payload: Dict[str, Any]) -> None:
        """Log one harness invocation (``run_trials``, an experiment, ...).

        The payload lands both in the manifest (config provenance) and
        as a ``type: run`` record that ``repro obs report`` renders and
        budget-checks.
        """
        self.runs.append({"type": "run", "invocation": invocation, **payload})
        if self.manifest is not None:
            summary = {
                key: value
                for key, value in payload.items()
                if not isinstance(value, (list, dict))
            }
            self.manifest.record_invocation(invocation, summary)

    def absorb(self, capture: Optional[TrialTelemetry]) -> None:
        """Fold a per-trial capture into this session.

        No-op on ``None`` so callers can pass results through without
        checking whether the trial was captured.  Must be called in
        trial-index order — that is what makes serial and parallel runs
        aggregate bit-identically.
        """
        if capture is None:
            return
        self.metrics.merge(capture.metrics)
        self.tracer.absorb(capture.spans)

    def export(self, index: int) -> TrialTelemetry:
        """Snapshot this session as a picklable per-trial capture."""
        return TrialTelemetry(
            index=index,
            spans=list(self.tracer.records),
            metrics=self.metrics.snapshot(),
        )

    # -- output ----------------------------------------------------------
    def records(self) -> List[Dict[str, Any]]:
        """All records of this session, manifest first, metrics last."""
        out: List[Dict[str, Any]] = []
        if self.manifest is not None:
            out.append(self.manifest.as_record())
        out.extend(self.runs)
        out.extend(self.tracer.records)
        out.append({"type": "metrics", "metrics": self.metrics.snapshot()})
        return out

    def write_jsonl(self, path: str) -> int:
        """Write this session as JSON lines; returns the record count.

        The trace is written atomically (temp file + rename) so a crash
        mid-write cannot leave a torn trace next to a valid run.
        """
        # Imported lazily: repro.obs must stay importable on its own
        # (repro.resilience.checkpoint imports repro.obs).
        from ..resilience.atomic import atomic_write

        records = self.records()
        with atomic_write(path) as handle:
            for record in records:
                handle.write(json.dumps(record, default=repr) + "\n")
        return len(records)


class _NullTelemetry:
    """The disabled session: shared no-op tracer and metrics."""

    __slots__ = ()
    enabled = False
    tracer: NullTracer = NULL_TRACER
    metrics: NullMetrics = NULL_METRICS
    manifest = None
    runs: List[Dict[str, Any]] = []  # always empty; do not mutate

    def record_run(self, invocation: str, payload: Dict[str, Any]) -> None:
        pass

    def absorb(self, capture: Optional[TrialTelemetry]) -> None:
        pass

    def export(self, index: int) -> TrialTelemetry:
        return TrialTelemetry(index=index)

    def records(self) -> List[Dict[str, Any]]:
        return []

    def write_jsonl(self, path: str) -> int:
        return 0


NULL = _NullTelemetry()

_ACTIVE: Optional[Telemetry] = None


def current() -> Telemetry:
    """The active telemetry session, or the no-op :data:`NULL`."""
    return _ACTIVE if _ACTIVE is not None else NULL  # type: ignore[return-value]


@contextmanager
def session(
    path: Optional[str] = None,
    config: Optional[Dict[str, Any]] = None,
    collect_env: bool = True,
) -> Iterator[Telemetry]:
    """Activate a telemetry session for the enclosed block.

    Args:
        path: when given, the session is written there as JSON lines on
            exit (even if the block raises — partial traces are still
            evidence).
        config: caller configuration recorded in the manifest.
        collect_env: set False to skip the git/platform probe (fast
            in-memory sessions, e.g. benchmarks and tests).
    """
    global _ACTIVE
    manifest = collect_manifest(config) if collect_env else None
    telemetry = Telemetry(manifest=manifest)
    previous = _ACTIVE
    _ACTIVE = telemetry
    try:
        yield telemetry
    finally:
        _ACTIVE = previous
        if path is not None:
            telemetry.write_jsonl(path)


@contextmanager
def capture(index: int = 0) -> Iterator[Telemetry]:
    """Activate a fresh, manifest-less session for one unit of work.

    Used by :func:`repro.experiments.parallel.execute_trial` (and the
    sweep runner) in both serial and worker processes: the unit runs
    against its own registry/tracer, then ``telemetry.export(index)``
    produces the picklable capture the parent absorbs.
    """
    global _ACTIVE
    telemetry = Telemetry()
    previous = _ACTIVE
    _ACTIVE = telemetry
    try:
        yield telemetry
    finally:
        _ACTIVE = previous
