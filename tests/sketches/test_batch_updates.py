"""Batched sketch kernels agree exactly with the scalar API.

``update_batch`` on :class:`CountSketch` and the ``*_array`` methods on
:class:`KWiseHash` are pure vectorizations: for integer deltas every
code path is exact integer arithmetic (Mersenne 2^61-1 hashing in
uint64, float64 accumulation of integers well below 2^53), so equality
here is bitwise, not approximate.
"""

import random

import numpy as np
import pytest

from repro.sketches import (
    MERSENNE_PRIME,
    CountSketch,
    KWiseHash,
    stable_key,
    stable_key_array,
)
from repro.sketches.hashing import HashStack, _mod_p, _mul_terms, unit_uniforms


class TestStableKeyArray:
    def test_matches_scalar_on_ints(self):
        rng = random.Random(0)
        keys = [rng.randrange(-(2**40), 2**40) for _ in range(500)]
        keys += [0, -1, 1, MERSENNE_PRIME, -MERSENNE_PRIME, 2**61 - 2]
        batch = stable_key_array(keys)
        assert batch.dtype == np.uint64
        assert batch.tolist() == [stable_key(k) for k in keys]

    def test_matches_scalar_on_numpy_array(self):
        arr = np.array([5, -7, 123456789, 0], dtype=np.int64)
        assert stable_key_array(arr).tolist() == [stable_key(int(k)) for k in arr]

    def test_matches_scalar_on_tuples(self):
        keys = [(1, 2), (2, 1), (0, 0), (10**6, 10**6 + 1)]
        assert stable_key_array(keys).tolist() == [stable_key(k) for k in keys]

    def test_int_pairs_match_scalar(self):
        rng = random.Random(1)
        big = 2**62
        values = [0, 1, -1, MERSENNE_PRIME, -MERSENNE_PRIME, MERSENNE_PRIME - 1, big, -big]
        values += [2**63 - 1, -(2**63)]
        values += [rng.randrange(-(2**62), 2**62) for _ in range(60)]
        keys = [(u, v) for u in values for v in values[:20]]
        assert stable_key_array(keys).tolist() == [stable_key(k) for k in keys]

    def test_ints_beyond_int64_fall_back(self):
        for keys in ([2**64 + 3, 5], [(2**70, 1), (1, 2)], [(-(2**65), 7)]):
            assert stable_key_array(keys).tolist() == [stable_key(k) for k in keys]

    def test_bool_members_keep_their_scalar_keys(self):
        assert stable_key_array([True, 2, 5]).tolist() == [7, 2, 5]
        cases = [
            [False, 0, 1],
            [(True, 2), (3, 4)],
            [(0, False), (1, 1)],
            [(True, False)],
        ]
        for keys in cases:
            assert stable_key_array(keys).tolist() == [stable_key(k) for k in keys]

    def test_mixed_and_empty_inputs(self):
        keys = [(1, 2), (1, 2, 3), ("a", 1), 4]
        assert stable_key_array(keys).tolist() == [stable_key(k) for k in keys]
        assert stable_key_array(iter([(3, 4), (5, 6)])).tolist() == [
            stable_key((3, 4)),
            stable_key((5, 6)),
        ]
        assert stable_key_array([]).tolist() == []
        assert stable_key_array(range(-3, 3)).tolist() == [stable_key(k) for k in range(-3, 3)]


class TestMersenneKernels:
    BOUNDARIES = [0, 1, 2**31 - 1, 2**31, 2**60, MERSENNE_PRIME - 2, MERSENNE_PRIME - 1]

    def test_mulmod_matches_python(self):
        rng = random.Random(7)
        operands = self.BOUNDARIES + [rng.randrange(MERSENNE_PRIME) for _ in range(200)]
        pairs = [(a, b) for a in operands for b in self.BOUNDARIES]
        pairs += [(rng.randrange(MERSENNE_PRIME), rng.randrange(MERSENNE_PRIME)) for _ in range(2000)]
        a = np.array([p[0] for p in pairs], dtype=np.uint64)
        b = np.array([p[1] for p in pairs], dtype=np.uint64)
        assert _mod_p(_mul_terms(a, b)).tolist() == [(x * y) % MERSENNE_PRIME for x, y in pairs]

    def test_mod_p_reduces_any_uint64(self):
        rng = random.Random(8)
        values = [0, MERSENNE_PRIME - 1, MERSENNE_PRIME, MERSENNE_PRIME + 7, 2**63, 2**64 - 1]
        values += [rng.randrange(2**64) for _ in range(1000)]
        reduced = _mod_p(np.array(values, dtype=np.uint64))
        assert reduced.tolist() == [v % MERSENNE_PRIME for v in values]

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_stack_matches_each_member(self, k):
        hashes = [KWiseHash(k, seed=s, namespace=f"stack[{s}]") for s in range(9)]
        keys = [(u, v) for u in range(12) for v in range(u + 1, 12)] + [0, "x", -5]
        stable = stable_key_array(keys)
        values = HashStack(hashes).values(stable)
        assert values.shape == (len(hashes), len(keys))
        for row, h in zip(values.tolist(), hashes):
            assert row == h.values_array(stable).tolist()
            assert row == [h.value(key) for key in keys]

    def test_stack_rejects_mixed_degrees(self):
        with pytest.raises(ValueError):
            HashStack([KWiseHash(2, seed=0), KWiseHash(4, seed=0)])

    def test_uniforms_exact_on_pair_keys(self):
        h = KWiseHash(2, seed=3, namespace="l2-sampler.uniforms")
        keys = [(u, v) for u in range(200) for v in range(u + 1, 200)]
        # the expression L2SamplerBank.update_batch computes
        assert unit_uniforms(h.values_array(stable_key_array(keys))).tolist() == [
            h.uniform(key) for key in keys
        ]


class TestKWiseHashArrays:
    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("seed", [0, 17])
    def test_values_array_matches_scalar(self, k, seed):
        h = KWiseHash(k, seed=seed)
        rng = random.Random(k * 100 + seed)
        keys = [rng.randrange(0, MERSENNE_PRIME) for _ in range(300)]
        keys += [0, 1, MERSENNE_PRIME - 1]
        arr = np.array(keys, dtype=np.uint64)
        assert h.values_array(arr).tolist() == [h.value(key) for key in keys]

    def test_buckets_signs_uniforms_bernoulli(self):
        h = KWiseHash(4, seed=3)
        keys = [stable_key(k) for k in range(200)]
        arr = np.array(keys, dtype=np.uint64)
        assert h.buckets_array(arr, 37).tolist() == [h.bucket(k, 37) for k in keys]
        assert h.signs_array(arr).tolist() == [h.sign(k) for k in keys]
        uniforms = unit_uniforms(h.values_array(arr))
        assert uniforms.tolist() == [h.uniform(k) for k in keys]
        for p in (0.0, 0.25, 0.5, 1.0, 1e-9):
            assert h.bernoulli_array(arr, p).tolist() == [
                h.bernoulli(k, p) for k in keys
            ]


class TestCountSketchBatch:
    def test_batch_equals_scalar_sequence(self):
        scalar = CountSketch(rows=5, width=64, seed=11)
        batched = CountSketch(rows=5, width=64, seed=11)
        rng = random.Random(42)
        keys = [rng.randrange(0, 500) for _ in range(1000)]
        deltas = [rng.choice([-2, -1, 1, 1, 3]) for _ in range(1000)]
        for key, delta in zip(keys, deltas):
            scalar.update(key, delta)
        batched.update_batch(keys, deltas)
        for key in set(keys):
            assert scalar.query(key) == batched.query(key)

    def test_batch_default_delta_is_one(self):
        a = CountSketch(rows=3, width=32, seed=1)
        b = CountSketch(rows=3, width=32, seed=1)
        keys = list(range(50)) * 3
        for key in keys:
            a.update(key)
        b.update_batch(keys)
        assert all(a.query(k) == b.query(k) for k in range(50))

    def test_batch_accepts_tuple_keys(self):
        a = CountSketch(rows=3, width=32, seed=5)
        b = CountSketch(rows=3, width=32, seed=5)
        keys = [(u, u + 1) for u in range(40)]
        for key in keys:
            a.update(key, 2.0)
        b.update_batch(keys, [2.0] * len(keys))
        assert all(a.query(k) == b.query(k) for k in keys)

    def test_merge_after_batch(self):
        a = CountSketch(rows=3, width=32, seed=9)
        b = CountSketch(rows=3, width=32, seed=9)
        a.update_batch(range(20))
        b.update_batch(range(10, 30))
        a.merge(b)
        reference = CountSketch(rows=3, width=32, seed=9)
        reference.update_batch(list(range(20)) + list(range(10, 30)))
        assert all(a.query(k) == reference.query(k) for k in range(30))

