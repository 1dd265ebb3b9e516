"""Batch hashing kernels agree exactly with their scalar references.

Each kernel that lets many small samplers decide at once is checked
against the one-object-at-a-time API it replaces:

* :func:`derive_seeds` against :func:`derive_seed`;
* :func:`draw_coefficients` against ``KWiseHash(...)._coeffs``;
* :func:`stable_tuple_keys` against :func:`stable_key` on nested tuples;
* :func:`bernoulli_threshold` against :meth:`KWiseHash.bernoulli`'s
  float comparison.
"""

import math
import random

import pytest

from repro.seeding import derive_seed, derive_seeds
from repro.sketches import MERSENNE_PRIME, KWiseHash, stable_key, stable_key_array
from repro.sketches.hashing import bernoulli_threshold, draw_coefficients, stable_tuple_keys

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


class TestDeriveSeeds:
    def test_matches_derive_seed(self):
        seeds = [0, 1, -7, 100_003 * 5 + 3, 2**62, "s", None, (1, "x")]
        assert derive_seeds("sketch:kwise-hash", 2, "ns", seeds=seeds) == [
            derive_seed("sketch:kwise-hash", 2, "ns", seed=s) for s in seeds
        ]

    def test_empty_batch(self):
        assert derive_seeds("a", seeds=[]) == []

    def test_rejects_bad_component(self):
        with pytest.raises(TypeError):
            derive_seeds("", seeds=[1])


class TestDrawCoefficients:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_matches_kwise_hash(self, k):
        seeds = [0, 1, 2, 100_003, 100_003 * 7 + 11, -5]
        for namespace in ("", "threepass.select[0]", "threepass.select[1]"):
            assert draw_coefficients(k, namespace, seeds) == [
                KWiseHash(k, seed=s, namespace=namespace)._coeffs for s in seeds
            ]

    def test_empty_draw(self):
        assert draw_coefficients(2, "x", []) == []

    def test_validates_k(self):
        with pytest.raises(ValueError):
            draw_coefficients(0, "x", [1])


class TestStableTupleKeys:
    INTS = [0, 1, -1, 7, -3, 2**40, -(2**40), MERSENNE_PRIME, INT64_MIN, INT64_MAX]

    def _column(self, members):
        return stable_key_array(list(members))

    def test_pairs_in_a_pair(self):
        rng = random.Random(1)
        keys = [
            (rng.choice(self.INTS), (rng.choice(self.INTS), rng.choice(self.INTS)))
            for _ in range(200)
        ]
        folded = stable_tuple_keys(
            [self._column(d for d, _ in keys), self._column(e for _, e in keys)]
        )
        assert folded.tolist() == [stable_key(key) for key in keys]

    def test_triples_with_a_pair(self):
        rng = random.Random(2)
        keys = [
            (
                rng.choice(self.INTS),
                rng.choice(self.INTS),
                (rng.choice(self.INTS), rng.choice(self.INTS)),
            )
            for _ in range(200)
        ]
        folded = stable_tuple_keys([self._column(member) for member in zip(*keys)])
        assert folded.tolist() == [stable_key(key) for key in keys]

    def test_string_members_take_the_scalar_encoder(self):
        keys = [("d", "x", ("a", "b")), ("v1", "v2", ("v1", "v3")), ("", "é", ("z", ""))]
        folded = stable_tuple_keys([self._column(member) for member in zip(*keys)])
        assert folded.tolist() == [stable_key(key) for key in keys]

    def test_int_pair_path_of_stable_key_array(self):
        keys = [(INT64_MIN, INT64_MAX), (-1, 0), (5, -5), (MERSENNE_PRIME, 1)]
        assert stable_key_array(keys).tolist() == [stable_key(key) for key in keys]

    def test_needs_a_column(self):
        with pytest.raises(ValueError):
            stable_tuple_keys([])


class TestBernoulliThreshold:
    @pytest.mark.parametrize("p", [0.0, 0.4, 0.4 + 0.1234567, 0.5, 1 / 3, 0.999, 1.0])
    def test_matches_float_comparison(self, p):
        threshold = int(bernoulli_threshold(p))
        for value in (threshold - 2, threshold - 1, threshold, threshold + 1):
            if 0 <= value < MERSENNE_PRIME:
                assert (value < threshold) == (value < p * MERSENNE_PRIME)

    def test_matches_bernoulli(self):
        h = KWiseHash(2, seed=9, namespace="kernel")
        keys = list(range(2000))
        p = 0.4 + 0.07
        batch = h.values_array(stable_key_array(keys)) < bernoulli_threshold(p)
        assert batch.tolist() == [h.bernoulli(key, p) for key in keys]

    def test_validates(self):
        with pytest.raises(ValueError):
            bernoulli_threshold(1.5)
        assert int(bernoulli_threshold(1.0)) == math.ceil(1.0 * MERSENNE_PRIME)
