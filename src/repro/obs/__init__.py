"""repro.obs — zero-dependency observability for the trial engine.

Three pieces:

* :mod:`repro.obs.trace` — hierarchical spans (experiment → sweep point
  → trial → pass → phase) with wall/CPU timings, emitted as JSON lines;
* :mod:`repro.obs.metrics` — counters / gauges / histograms; algorithm
  metrics are their results' ``details`` (``repro.core.skeleton``);
* :mod:`repro.obs.manifest` — run manifests (seeds, git SHA, config,
  environment, bench baselines) so every trace is self-describing.

:mod:`repro.obs.session` ties them together: ``obs.session(path=...)``
activates telemetry for a block and writes the trace on exit, while
``obs.current()`` hands instrumented code either the live session or
free no-op singletons.  ``repro obs report`` (see
:mod:`repro.obs.report`, imported lazily by the CLI) renders a trace
file into per-phase tables.
"""

from .manifest import RunManifest, bench_baselines, collect_manifest, git_sha
from .metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
)
from .session import (
    NULL,
    Telemetry,
    TrialTelemetry,
    capture,
    current,
    session,
)
from .trace import NULL_TRACER, NullTracer, SpanHandle, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "NullTracer",
    "NULL_TRACER",
    "SpanHandle",
    "Tracer",
    "RunManifest",
    "bench_baselines",
    "collect_manifest",
    "git_sha",
    "NULL",
    "Telemetry",
    "TrialTelemetry",
    "capture",
    "current",
    "session",
]
