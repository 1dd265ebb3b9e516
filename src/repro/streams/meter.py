"""Space accounting for streaming algorithms.

The paper measures space in *words*: the number of edges, vertex ids
and counters an algorithm keeps.  Measuring Python object sizes would
drown the asymptotics in interpreter overhead, so every algorithm in
:mod:`repro.core` and :mod:`repro.baselines` reports its storage through
a :class:`SpaceMeter` that tracks named item counts and their peak.

Usage::

    meter = SpaceMeter()
    meter.add("sampled_edges", 1)        # stored one more edge
    meter.add("sampled_edges", -1)       # evicted one
    meter.add_units("sampled_edges", 4)  # four add(..., 1) calls at once
    meter.set("counters", 3 * n)         # fixed-size counter bank
    meter.peak                            # max total items ever held
    meter.breakdown()                     # per-category peaks
    meter.timeline()                      # (mutation_index, total) samples

Mutations that belong to one logical step — e.g. rebuilding two
categories where one shrinks before the other grows — can be wrapped in
``with meter.step():`` so that intermediate states are not recorded as
peaks (only the state at step exit counts).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple


class SpaceMeter:
    """Tracks the number of stored items, per named category and overall.

    Besides the running peak, the meter keeps a decimated *timeline* of
    ``(mutation_index, total_items)`` samples: every ``timeline_stride``-th
    mutation is recorded, and when the buffer reaches
    ``timeline_capacity`` samples it is thinned by half and the stride
    doubled, so memory stays bounded while the full run remains covered.
    Pass ``timeline_capacity=0`` to disable timeline recording entirely
    (used by the telemetry-off overhead benchmark as the comparator).
    """

    DEFAULT_TIMELINE_CAPACITY = 512

    def __init__(self, timeline_capacity: int = DEFAULT_TIMELINE_CAPACITY) -> None:
        self._current: dict = {}
        self._peak_per_category: dict = {}
        self._peak_total = 0
        self._current_total = 0
        self._in_step = False
        self._mutations = 0
        self._timeline_capacity = timeline_capacity
        self._timeline_stride = 1
        self._timeline: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    def add(self, category: str, count: int = 1) -> None:
        """Adjust the live item count of ``category`` by ``count``.

        Negative ``count`` models evictions; the live count may not go
        below zero (that would indicate an accounting bug, so it raises).
        """
        value = self._current.get(category, 0) + count
        if value < 0:
            raise ValueError(f"space meter for {category!r} went negative ({value})")
        self._current[category] = value
        total = self._current_total + count
        self._current_total = total
        # the commit is inlined: add runs once per stored item
        if self._in_step:
            return
        if value > self._peak_per_category.get(category, 0):
            self._peak_per_category[category] = value
        if total > self._peak_total:
            self._peak_total = total
        mutations = self._mutations + 1
        self._mutations = mutations
        if self._timeline_capacity > 0 and mutations % self._timeline_stride == 0:
            self._sample(mutations, total)

    def add_units(self, category: str, times: int) -> None:
        """Record ``times`` calls of ``add(category, 1)`` in one call.

        The meter ends in exactly the state those calls leave: live
        counts, peaks, the mutation count and every timeline sample
        (thinning included), and inside a :meth:`step` too.  An
        algorithm that stores items in bulk counts them first and
        charges them here.
        """
        if times < 0:
            raise ValueError(f"cannot add a negative number of units ({times})")
        if times == 0:
            return
        value = self._current.get(category, 0) + times
        self._current[category] = value
        before = self._current_total
        total = before + times
        self._current_total = total
        if self._in_step:
            return
        if value > self._peak_per_category.get(category, 0):
            self._peak_per_category[category] = value
        if total > self._peak_total:
            self._peak_total = total
        first = self._mutations
        last = first + times
        self._mutations = last
        if self._timeline_capacity <= 0:
            return
        # the unit adds sampled are those whose index is a multiple of
        # the stride in force when they run; a sample may double it
        stride = self._timeline_stride
        mutation = first - first % stride + stride
        while mutation <= last:
            self._sample(mutation, before + mutation - first)
            stride = self._timeline_stride
            mutation += stride - mutation % stride

    def set(self, category: str, count: int) -> None:
        """Set the live item count of ``category`` to an absolute value."""
        if count < 0:
            raise ValueError(f"space meter cannot be negative, got {count}")
        total = self._current_total + count - self._current.get(category, 0)
        self._current_total = total
        self._current[category] = count
        if self._in_step:
            return
        if count > self._peak_per_category.get(category, 0):
            self._peak_per_category[category] = count
        if total > self._peak_total:
            self._peak_total = total
        mutations = self._mutations + 1
        self._mutations = mutations
        if self._timeline_capacity > 0 and mutations % self._timeline_stride == 0:
            self._sample(mutations, total)

    @contextmanager
    def step(self) -> Iterator["SpaceMeter"]:
        """Group mutations into one logical step for peak accounting.

        Inside the block, ``add``/``set`` update live counts but defer
        peak (and timeline) updates to block exit, so a rebuild that
        shrinks one category before growing another does not record a
        phantom peak from an intermediate state that never co-existed
        with the final one.  Steps do not nest (the outer step wins).
        """
        if self._in_step:
            yield self
            return
        self._in_step = True
        try:
            yield self
        finally:
            self._in_step = False
            for category, value in self._current.items():
                if value > self._peak_per_category.get(category, 0):
                    self._peak_per_category[category] = value
            self._commit_total()

    def _commit_total(self) -> None:
        total = self._current_total
        if total > self._peak_total:
            self._peak_total = total
        self._mutations += 1
        if self._timeline_capacity > 0 and self._mutations % self._timeline_stride == 0:
            self._sample(self._mutations, total)

    def _sample(self, mutations: int, total: int) -> None:
        self._timeline.append((mutations, total))
        if len(self._timeline) >= self._timeline_capacity:
            # Thin to every other sample; doubling the stride keeps
            # future samples aligned with the survivors.
            self._timeline = self._timeline[1::2]
            self._timeline_stride *= 2

    # ------------------------------------------------------------------
    @property
    def current(self) -> int:
        """Total items held right now."""
        return self._current_total

    @property
    def peak(self) -> int:
        """Maximum total items held at any point so far."""
        return self._peak_total

    @property
    def mutations(self) -> int:
        """Number of committed meter updates (steps count as one)."""
        return self._mutations

    def current_of(self, category: str) -> int:
        return self._current.get(category, 0)

    def peak_of(self, category: str) -> int:
        return self._peak_per_category.get(category, 0)

    def breakdown(self) -> dict:
        """Per-category peak item counts (a copy)."""
        return dict(self._peak_per_category)

    def timeline(self, max_points: Optional[int] = None) -> List[Tuple[int, int]]:
        """Decimated ``(mutation_index, total_items)`` samples, in order.

        ``max_points`` further downsamples the returned copy (evenly,
        always keeping the last sample) — handy for embedding in span
        attributes without bloating the trace file.
        """
        samples = list(self._timeline)
        if max_points is not None and max_points > 0 and len(samples) > max_points:
            stride = -(-len(samples) // max_points)  # ceil division
            kept = samples[::stride]
            if kept[-1] != samples[-1]:
                kept.append(samples[-1])
            samples = kept
        return samples

    def merge(self, other: "SpaceMeter", prefix: str = "") -> None:
        """Fold another meter's peaks into this one (for sub-algorithms).

        Each of ``other``'s categories is recorded here (optionally
        prefixed) at its peak value, and the total peak grows by the
        other's total peak — a conservative upper bound appropriate for
        sub-algorithms that ran concurrently with this one.
        """
        for category, value in other._peak_per_category.items():
            name = f"{prefix}{category}"
            self._peak_per_category[name] = (
                self._peak_per_category.get(name, 0) + value
            )
            incoming = other._current.get(category, 0)
            self._current[name] = self._current.get(name, 0) + incoming
            self._current_total += incoming
        self._peak_total += other._peak_total

    def __repr__(self) -> str:
        return f"SpaceMeter(current={self.current}, peak={self.peak})"
