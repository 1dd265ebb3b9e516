"""Hash family: determinism, distribution and independence checks."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches import KWiseHash, MERSENNE_PRIME, hash_family, stable_key


class TestStableKey:
    def test_deterministic(self):
        assert stable_key(("a", 1, (2, 3))) == stable_key(("a", 1, (2, 3)))

    def test_int_identity(self):
        assert stable_key(5) == 5
        assert stable_key(0) == 0

    def test_bool_distinct_from_int(self):
        assert stable_key(True) != stable_key(1)
        assert stable_key(False) != stable_key(0)

    def test_strings_differ(self):
        assert stable_key("u1") != stable_key("u2")

    def test_tuple_order_matters(self):
        assert stable_key((1, 2)) != stable_key((2, 1))

    def test_frozenset_order_free(self):
        assert stable_key(frozenset({1, 2})) == stable_key(frozenset({2, 1}))

    def test_frozenset_distinct_from_sorted_tuple(self):
        # Regression: frozensets used to hash as the tuple of their
        # sorted member keys, so frozenset({u, v}) — the undirected-edge
        # key — collided with the ordered pair (u, v) by construction.
        for members in ((1, 2), (0, 5, 9), ("a", "b")):
            ordered = tuple(sorted(members, key=stable_key))
            assert stable_key(frozenset(members)) != stable_key(ordered)

    def test_frozenset_distinct_from_any_permutation(self):
        assert stable_key(frozenset({3, 7})) != stable_key((3, 7))
        assert stable_key(frozenset({3, 7})) != stable_key((7, 3))

    def test_singleton_frozenset_distinct_from_element_and_tuple(self):
        assert stable_key(frozenset({4})) != stable_key(4)
        assert stable_key(frozenset({4})) != stable_key((4,))

    def test_rejects_unhashable_types(self):
        with pytest.raises(TypeError):
            stable_key(3.14)

    @given(st.integers(min_value=-(10**15), max_value=10**15))
    @settings(max_examples=50)
    def test_in_range(self, x):
        assert 0 <= stable_key(x) < MERSENNE_PRIME


class TestKWiseHash:
    def test_deterministic_per_seed(self):
        a = KWiseHash(k=4, seed=3)
        b = KWiseHash(k=4, seed=3)
        assert all(a.value(i) == b.value(i) for i in range(50))

    def test_seed_matters(self):
        a = KWiseHash(k=4, seed=3)
        b = KWiseHash(k=4, seed=4)
        assert any(a.value(i) != b.value(i) for i in range(50))

    def test_validates_k(self):
        with pytest.raises(ValueError):
            KWiseHash(k=0, seed=1)

    def test_uniform_in_unit_interval(self):
        h = KWiseHash(k=2, seed=5)
        values = [h.uniform(i) for i in range(2000)]
        assert all(0 < v < 1 for v in values)
        assert abs(sum(values) / len(values) - 0.5) < 0.03

    def test_bernoulli_rate(self):
        h = KWiseHash(k=2, seed=7)
        for p in (0.1, 0.5, 0.9):
            hits = sum(h.bernoulli(("item", i), p) for i in range(5000))
            assert abs(hits / 5000 - p) < 0.03

    def test_bernoulli_validates(self):
        with pytest.raises(ValueError):
            KWiseHash(k=2, seed=1).bernoulli(0, 1.5)

    def test_bernoulli_extremes(self):
        h = KWiseHash(k=2, seed=1)
        assert not any(h.bernoulli(i, 0.0) for i in range(100))
        assert all(h.bernoulli(i, 1.0) for i in range(100))

    def test_sign_balance(self):
        h = KWiseHash(k=4, seed=9)
        total = sum(h.sign(i) for i in range(4000))
        assert abs(total) < 300  # ~3 sigma for fair signs

    def test_sign_pairwise_uncorrelated(self):
        h = KWiseHash(k=4, seed=11)
        corr = sum(h.sign(2 * i) * h.sign(2 * i + 1) for i in range(4000))
        assert abs(corr) < 300

    def test_bucket_spread(self):
        h = KWiseHash(k=2, seed=13)
        counts = Counter(h.bucket(i, 16) for i in range(8000))
        assert len(counts) == 16
        assert max(counts.values()) < 2.0 * 8000 / 16

    def test_bucket_validates(self):
        with pytest.raises(ValueError):
            KWiseHash(k=2, seed=1).bucket(0, 0)

    def test_choice4_distribution(self):
        h = KWiseHash(k=2, seed=15)
        counts = Counter(h.choice4(i, 0.4, 0.4, 0.1) for i in range(10000))
        assert abs(counts[0] / 10000 - 0.4) < 0.03
        assert abs(counts[1] / 10000 - 0.4) < 0.03
        assert abs(counts[2] / 10000 - 0.1) < 0.02
        assert abs(counts[3] / 10000 - 0.1) < 0.02

    def test_choice4_validates(self):
        with pytest.raises(ValueError):
            KWiseHash(k=2, seed=1).choice4(0, 0.6, 0.6, 0.1)

    def test_hash_family_independent_members(self):
        family = hash_family(5, k=2, seed=21)
        assert len({h.value(123) for h in family}) > 1

    def test_mixed_key_types(self):
        h = KWiseHash(k=2, seed=23)
        # should accept all stable_key-supported types without error
        for key in (7, "v7", ("e", 1, 2), frozenset({1, 2})):
            assert 0 <= h.value(key) < MERSENNE_PRIME


class TestPinnedValues:
    """Outputs of the scalar reference path, pinned so that a change to
    how coefficients are drawn or keys are folded cannot go unnoticed."""

    def test_coefficients(self):
        assert KWiseHash(k=2, seed=100_003, namespace="threepass.select[1]")._coeffs == [
            670829460613301604,
            2045243249633982163,
        ]
        assert KWiseHash(k=4, seed=5, namespace="countsketch")._coeffs == [
            1111786066576917331,
            13446818363623809,
            187432850891124163,
            436872567424128707,
        ]
        assert KWiseHash(k=1, seed=5)._coeffs == [1963970042296486979]

    def test_nested_tuple_keys(self):
        assert stable_key((-1, (-(2**63), 2**63 - 1))) == 209459256744885112
        assert stable_key((7, -3, (0, -1))) == 963665979341209841
        assert stable_key(("d", "x", ("a", "b"))) == 1668675619419490017
        h = KWiseHash(k=2, seed=3, namespace="threepass.select[0]")
        assert h.value((-1, (-(2**63), 2**63 - 1))) == 1170547682927864455
