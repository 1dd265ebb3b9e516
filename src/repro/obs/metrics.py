"""Counters, gauges and histograms for streaming-algorithm telemetry.

A :class:`MetricsRegistry` is a flat, name-keyed collection of three
instrument kinds:

* **counter** — a monotonically increasing integer (passes, edges
  consumed, retries, ...);
* **gauge** — a last-write-wins scalar (variance ratios, ...);
* **histogram** — a mergeable summary (count / sum / min / max) of a
  sequence of observations (per-trial space, and every scalar
  ``details`` entry of every algorithm run, ...).

Design constraints, in order:

1. **Telemetry off must be free.**  Instrumented code gets instruments
   through the active :mod:`repro.obs.session`; when no session is
   active they receive the no-op singletons below, and every batch
   emission site (for algorithms, :func:`repro.core.skeleton.finish`)
   is guarded by ``tel.enabled``: a ``run()`` pays a few attribute reads.
2. **Deterministic aggregation.**  A registry never stores wall-clock
   or other nondeterministic values (those belong to spans), and
   :meth:`MetricsRegistry.merge` folds per-trial snapshots in the
   caller's (trial-index) order, so serial and parallel runs of the
   same seed schedule aggregate to bit-identical contents.
3. **Picklable snapshots.**  :meth:`MetricsRegistry.snapshot` returns
   plain sorted dicts that cross process boundaries and serialize to
   JSON lines unchanged.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """A last-write-wins scalar."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value


class Histogram:
    """A mergeable count / sum / min / max summary of observations."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: Number) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, Number]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0,
            "max": self.max if self.max is not None else 0,
        }


class MetricsRegistry:
    """A name-keyed collection of counters, gauges and histograms.

    Instruments are created on first access; names are free-form but
    the convention is dotted lowercase with the owning subsystem as the
    prefix (``stream.passes``); an algorithm's are ``{name}.{details
    key}`` (``mv-triangle-random-order.size_S``).  See
    docs/observability.md for the names the instrumentation emits.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument access ---------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram()
        return instrument

    # -- convenience ----------------------------------------------------
    def inc(self, name: str, amount: Number = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: Number) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: Number) -> None:
        self.histogram(name).observe(value)

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # -- snapshot / merge ------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, Number]]:
        """A plain, sorted, picklable view of the registry contents."""
        return {
            "counters": {
                name: self._counters[name].value for name in sorted(self._counters)
            },
            "gauges": {name: self._gauges[name].value for name in sorted(self._gauges)},
            "histograms": {
                name: self._histograms[name].as_dict()
                for name in sorted(self._histograms)
            },
        }

    def merge(self, snapshot: Dict[str, Dict[str, Number]]) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters add, gauges take the incoming value (last write wins in
        merge order), histograms combine their summaries.  Callers must
        merge per-trial snapshots in trial-index order so that serial
        and parallel runs aggregate identically.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, summary in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name)
            count = summary.get("count", 0)
            if not count:
                continue
            histogram.count += count
            histogram.total += summary.get("sum", 0.0)
            for key, better in (("min", min), ("max", max)):
                incoming = summary.get(key)
                current = getattr(histogram, key)
                setattr(
                    histogram,
                    key,
                    incoming if current is None else better(current, incoming),
                )


class _NullInstrument:
    """Absorbs every instrument call; shared by all no-op handles."""

    __slots__ = ()
    value = 0
    count = 0
    total = 0.0
    mean = 0.0
    min = None
    max = None

    def inc(self, amount: Number = 1) -> None:
        pass

    def set(self, value: Number) -> None:
        pass

    def observe(self, value: Number) -> None:
        pass

    def as_dict(self) -> Dict[str, Number]:
        return {}


class NullMetrics:
    """The disabled-telemetry registry: every method is a no-op."""

    __slots__ = ()

    def counter(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def histogram(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def inc(self, name: str, amount: Number = 1) -> None:
        pass

    def set_gauge(self, name: str, value: Number) -> None:
        pass

    def observe(self, name: str, value: Number) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def snapshot(self) -> Dict[str, Dict[str, Number]]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def merge(self, snapshot: Dict[str, Dict[str, Number]]) -> None:
        pass


NULL_INSTRUMENT = _NullInstrument()
NULL_METRICS = NullMetrics()
