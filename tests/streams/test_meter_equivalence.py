"""SpaceMeter against its previous implementation, kept here as the oracle.

The meter's ``add`` and ``set`` commit peaks, the mutation count and the
timeline inline.  The reference below is the implementation they
replaced (``add``/``set`` -> ``_refresh`` -> ``_commit_total``); random
operation sequences must leave both in the same state.  The meter's
``add_units(c, k)`` is checked against ``k`` of the reference's
``add(c, 1)`` calls.
"""

import random
from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

import numpy as np
import pytest

from repro.streams import SpaceMeter


class _ReferenceMeter:
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
        new_value = self._current.get(category, 0) + count
        if new_value < 0:
            raise ValueError(
                f"space meter for {category!r} went negative ({new_value})"
            )
        self._current[category] = new_value
        self._current_total += count
        self._refresh(category)

    def add_units(self, category: str, times: int) -> None:
        for _ in range(times):
            self.add(category, 1)

    def set(self, category: str, count: int) -> None:
        """Set the live item count of ``category`` to an absolute value."""
        if count < 0:
            raise ValueError(f"space meter cannot be negative, got {count}")
        self._current_total += count - self._current.get(category, 0)
        self._current[category] = count
        self._refresh(category)

    @contextmanager
    def step(self) -> Iterator["_ReferenceMeter"]:
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

    def _refresh(self, category: str) -> None:
        if self._in_step:
            return
        value = self._current[category]
        if value > self._peak_per_category.get(category, 0):
            self._peak_per_category[category] = value
        self._commit_total()

    def _commit_total(self) -> None:
        total = self._current_total
        if total > self._peak_total:
            self._peak_total = total
        self._mutations += 1
        if self._timeline_capacity <= 0:
            return
        if self._mutations % self._timeline_stride == 0:
            self._timeline.append((self._mutations, total))
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


def _state(meter):
    return (
        list(meter._current.items()),
        list(meter._peak_per_category.items()),
        meter._current_total,
        meter._peak_total,
        meter._mutations,
        meter._timeline_stride,
        list(meter._timeline),
        meter._in_step,
    )


def _apply(meter, op):
    """Run one operation; return the error text it raised, if any."""
    kind, category, count = op
    try:
        if kind == "add":
            meter.add(category, count)
        elif kind == "units":
            meter.add_units(category, count)
        else:
            meter.set(category, count)
    except ValueError as error:
        return str(error)
    return None


def _random_ops(rng, length):
    ops = []
    for _ in range(length):
        kind = rng.choice(["add", "add", "add", "set"])
        category = rng.choice("abcd")
        if kind == "add":
            count = rng.choice([1, 1, 1, 2, 5, -1, -2, -7, 0])
        else:
            count = rng.choice([0, 1, 3, 10, 40, -1])
        ops.append((kind, category, count))
    return ops


@pytest.mark.parametrize("capacity", [0, 2, 3, 8, 512])
@pytest.mark.parametrize("seed", range(6))
def test_random_sequences_match_reference(capacity, seed):
    rng = random.Random(f"meter-equivalence-{capacity}-{seed}")
    meter = SpaceMeter(timeline_capacity=capacity)
    reference = _ReferenceMeter(timeline_capacity=capacity)
    errors = 0
    for _ in range(40):
        ops = _random_ops(rng, rng.randrange(1, 30))
        if rng.random() < 0.3:  # one logical step, with a nested one inside
            with meter.step(), reference.step():
                for op in ops:
                    assert _apply(meter, op) == _apply(reference, op)
                with meter.step(), reference.step():
                    assert _apply(meter, ops[0]) == _apply(reference, ops[0])
        else:
            for op in ops:
                error = _apply(meter, op)
                assert error == _apply(reference, op)
                errors += error is not None
        assert _state(meter) == _state(reference)
    assert meter.timeline() == reference.timeline()
    assert meter.timeline(max_points=5) == reference.timeline(max_points=5)
    assert errors > 0  # the negative-count paths were exercised



def _random_unit_ops(rng, length):
    ops = []
    for op in _random_ops(rng, length):
        if rng.random() < 0.4:
            # bulk runs long enough to cross several thinning events
            times = rng.choice([0, 1, 2, 3, 7, 64, 300, 2_000])
            op = ("units", op[1], times)
        ops.append(op)
    return ops


@pytest.mark.parametrize("capacity", [0, 2, 3, 8, 512])
@pytest.mark.parametrize("seed", range(6))
def test_add_units_matches_unit_adds(capacity, seed):
    rng = random.Random(f"meter-add-units-{capacity}-{seed}")
    meter = SpaceMeter(timeline_capacity=capacity)
    reference = _ReferenceMeter(timeline_capacity=capacity)
    for _ in range(30):
        ops = _random_unit_ops(rng, rng.randrange(1, 20))
        if rng.random() < 0.3:  # bulk adds inside a step commit at its exit
            with meter.step(), reference.step():
                for op in ops:
                    assert _apply(meter, op) == _apply(reference, op)
        else:
            for op in ops:
                assert _apply(meter, op) == _apply(reference, op)
        assert _state(meter) == _state(reference)
    assert meter.timeline() == reference.timeline()
    if capacity:
        assert meter._timeline_stride >= 8  # thinned three times or more


@pytest.mark.parametrize("capacity", [0, 2, 3, 8, 512])
def test_add_units_edge_cases(capacity):
    meter = SpaceMeter(timeline_capacity=capacity)
    reference = _ReferenceMeter(timeline_capacity=capacity)
    meter.add_units("a", 0)  # no call at all: no key, no mutation
    assert _state(meter) == _state(reference)
    with pytest.raises(ValueError):
        meter.add_units("a", -1)
    for times in (1, 5_000, 1, 3):
        meter.add_units("b", times)
        reference.add_units("b", times)
        assert _state(meter) == _state(reference)
    with meter.step(), reference.step():
        meter.add_units("c", 9)
        reference.add_units("c", 9)
        meter.add("b", -5_000)
        reference.add("b", -5_000)
    meter.add_units("d", 0)
    assert _state(meter) == _state(reference)


@pytest.mark.parametrize("capacity", [0, 3, 512])
def test_add_units_takes_integers_only(capacity):
    """A numpy count is charged as the ``int`` it holds, so no ``np.int64``
    reaches the mutation count or the timeline; a float count raises."""
    meters = []
    for times in (5, np.int64(5)):
        meter = SpaceMeter(timeline_capacity=capacity)
        meter.add_units("x", times)
        meter.add("x", 1)
        meter.add_units("x", np.count_nonzero([1, 0, 1]))
        meters.append(meter)
    plain, from_numpy = meters
    assert repr(from_numpy.timeline()) == repr(plain.timeline())
    assert type(from_numpy.mutations) is int
    assert all(type(value) is int for sample in from_numpy.timeline() for value in sample)
    for bad in (2.5, 2.0, np.float64(2.0)):
        with pytest.raises(TypeError):
            SpaceMeter(timeline_capacity=capacity).add_units("x", bad)
