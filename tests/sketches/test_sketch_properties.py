"""Hypothesis properties of the sketch substrate: linearity, merge
semantics, determinism."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches import CountSketch, KWiseHash

update_strategy = st.lists(
    st.tuples(st.integers(0, 20), st.integers(-5, 5)), max_size=40
)


class TestCountSketchProperties:
    @given(update_strategy, update_strategy)
    @settings(max_examples=40, deadline=None)
    def test_linearity_of_merge(self, first, second):
        """query(sketch(a) + sketch(b)) == query(sketch(a ++ b)) exactly."""
        a = CountSketch(rows=3, width=32, seed=5)
        b = CountSketch(rows=3, width=32, seed=5)
        combined = CountSketch(rows=3, width=32, seed=5)
        for key, delta in first:
            a.update(key, delta)
            combined.update(key, delta)
        for key, delta in second:
            b.update(key, delta)
            combined.update(key, delta)
        a.merge(b)
        for key in range(21):
            assert a.query(key) == pytest.approx(combined.query(key))

    @given(update_strategy)
    @settings(max_examples=40, deadline=None)
    def test_negation_cancels(self, updates):
        sketch = CountSketch(rows=3, width=32, seed=7)
        for key, delta in updates:
            sketch.update(key, delta)
        for key, delta in updates:
            sketch.update(key, -delta)
        for key in range(21):
            assert sketch.query(key) == pytest.approx(0.0)

    @given(update_strategy)
    @settings(max_examples=30, deadline=None)
    def test_determinism(self, updates):
        def build():
            sketch = CountSketch(rows=3, width=32, seed=11)
            for key, delta in updates:
                sketch.update(key, delta)
            return [sketch.query(key) for key in range(21)]

        assert build() == build()


class TestHashProperties:
    @given(st.integers(0, 10**12), st.integers(1, 100))
    @settings(max_examples=60, deadline=None)
    def test_value_stable_and_in_range(self, key, seed):
        from repro.sketches import MERSENNE_PRIME

        h = KWiseHash(k=4, seed=seed)
        assert h.value(key) == h.value(key)
        assert 0 <= h.value(key) < MERSENNE_PRIME

    @given(st.integers(0, 10**6), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_bernoulli_monotone_in_p(self, key, p):
        """If the coin comes up at rate p, it also comes up at any
        higher rate — the property level-sampling relies on."""
        h = KWiseHash(k=2, seed=13)
        if h.bernoulli(key, p):
            assert h.bernoulli(key, min(1.0, p + 0.1))
