"""l2 sampler: sampling distribution proportional to f_i^2."""

import random
from collections import Counter

import numpy as np
import pytest

from repro.sketches import MERSENNE_PRIME, L2Sampler, L2SamplerBank


class TestL2Sampler:
    def test_validates_accept_scale(self):
        with pytest.raises(ValueError):
            L2Sampler(accept_scale=1.0)

    def test_value_estimate_accurate(self):
        """On a sparse vector the returned value estimate is near-exact."""
        vector = {"a": 10, "b": 3, "c": 1}
        f2 = sum(v * v for v in vector.values())
        recovered = {}
        for seed in range(120):
            sampler = L2Sampler(seed=seed, width=512, accept_scale=3.0)
            for key, value in vector.items():
                sampler.update(key, value)
            drawn = sampler.sample(list(vector), f2)
            if drawn is not None:
                key, estimate = drawn
                recovered.setdefault(key, []).append(estimate)
        assert recovered, "no sampler succeeded in 120 copies"
        for key, estimates in recovered.items():
            for estimate in estimates:
                assert abs(abs(estimate) - vector[key]) < 1.0

    def test_distribution_proportional_to_squares(self):
        """P[key sampled] tracks f_key^2 / F2."""
        vector = {"big": 8, "mid": 4, "small": 2}
        f2 = sum(v * v for v in vector.values())
        counts = Counter()
        successes = 0
        for seed in range(600):
            sampler = L2Sampler(seed=seed, width=256, accept_scale=4.0)
            for key, value in vector.items():
                sampler.update(key, value)
            drawn = sampler.sample(list(vector), f2)
            if drawn is not None:
                counts[drawn[0]] += 1
                successes += 1
        assert successes > 30
        # squares 64 : 16 : 4 -> big should dominate mid by roughly 4x
        # (the argmax step skews slightly further toward the largest
        # coordinate on tiny vectors, so the band is generous)
        assert counts["big"] > counts["mid"] > counts["small"] >= 0
        ratio = counts["big"] / max(1, counts["mid"])
        assert 2.0 < ratio < 12.0

    def test_no_updates_returns_none(self):
        sampler = L2Sampler(seed=1)
        assert sampler.sample(["a", "b"], 100.0) is None

    def test_rejects_negative_f2(self):
        sampler = L2Sampler(seed=1)
        with pytest.raises(ValueError):
            sampler.sample(["a"], -1.0)


class TestL2SamplerBank:
    def test_validates_count(self):
        with pytest.raises(ValueError):
            L2SamplerBank(count=0)

    def test_bank_collects_multiple_samples(self):
        vector = {i: 5 for i in range(20)}
        f2 = sum(v * v for v in vector.values())
        bank = L2SamplerBank(count=40, seed=3, accept_scale=4.0)
        for key, value in vector.items():
            bank.update(key, value)
        samples = bank.samples(list(vector), f2)
        assert len(samples) >= 3
        for key, estimate in samples:
            assert key in vector
            assert abs(abs(estimate) - 5) < 2.0

    def test_space_items(self):
        bank = L2SamplerBank(count=3, rows=4, width=32, seed=0)
        assert bank.space_items == 3 * 4 * 32
        assert len(bank) == 3


def _scalar_samples(bank, candidates, f2):
    """The per-sampler reference for ``L2SamplerBank.samples``."""
    drawn = [sampler.sample(candidates, f2) for sampler in bank._samplers]
    return [d for d in drawn if d is not None]


class TestBankBatchOracle:
    """``update_batch`` / batched ``samples`` equal the scalar path bit for bit."""

    @pytest.mark.parametrize("rows", [4, 5])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_batch_equals_scalar(self, rows, seed):
        rng = random.Random(seed)
        keys = [(rng.randrange(12), rng.randrange(12, 30)) for _ in range(400)]
        deltas = [rng.choice([1, -1, 2, 0.5, -3.25]) for _ in keys]
        scalar = L2SamplerBank(count=6, seed=seed, rows=rows, width=32)
        batched = L2SamplerBank(count=6, seed=seed, rows=rows, width=32)
        for key, delta in zip(keys, deltas):
            scalar.update(key, delta)
        for start in range(0, len(keys), 37):  # several blocks
            batched.update_batch(keys[start : start + 37], deltas[start : start + 37])
        assert batched._table.tolist() == scalar._table.tolist()
        candidates = sorted(set(keys)) + [(40, 41)]
        f2 = float(sum(d * d for d in deltas))
        drawn = 0
        for f2_estimate in (f2, f2 / 50, 0.0):
            expected = _scalar_samples(scalar, candidates, f2_estimate)
            assert batched.samples(candidates, f2_estimate) == expected
            assert scalar.samples(candidates, f2_estimate) == expected
            drawn += len(expected)
        assert drawn > 0

    def test_ties_go_to_the_first_candidate(self):
        # 3 and P + 3 fold to the same key, so every sketch ties them
        bank = L2SamplerBank(count=4, seed=5, rows=4, width=16)
        bank.update_batch([3, 3, 9], [2.0, 1.0, -1.0])
        for candidates in ([3, MERSENNE_PRIME + 3, 9], [MERSENNE_PRIME + 3, 3, 9]):
            drawn = bank.samples(candidates, 0.0)
            assert drawn and drawn == _scalar_samples(bank, candidates, 0.0)
            assert {key for key, _ in drawn} <= {candidates[0], 9}

    def test_default_deltas_and_string_keys(self):
        keys = [f"k{i % 9}" for i in range(60)]
        scalar = L2SamplerBank(count=4, seed=2, rows=3, width=16)
        batched = L2SamplerBank(count=4, seed=2, rows=3, width=16)
        for key in keys:
            scalar.update(key)
        batched.update_batch(keys)
        assert batched._table.tolist() == scalar._table.tolist()
        candidates = sorted(set(keys))
        assert batched.samples(candidates, 100.0) == _scalar_samples(scalar, candidates, 100.0)

    def test_samplers_share_the_bank_table(self):
        bank = L2SamplerBank(count=3, seed=1, rows=2, width=8)
        bank.update_batch([(0, 1)], [2.0])
        bank._samplers[1].update((2, 3), -1.0)
        stacked = np.vstack([s._sketch._table for s in bank._samplers])
        assert stacked.tolist() == bank._table.tolist()
        assert np.count_nonzero(bank._table[2:4]) > 0

    def test_batch_fills_no_memo(self):
        bank = L2SamplerBank(count=5, seed=4, rows=5, width=64)
        assert bank.space_items == 5 * 5 * 64
        keys = [(u, v) for u in range(20) for v in range(u + 1, 20)]
        bank.update_batch(keys)
        bank._samplers[0].update((0, 1))
        bank.samples(keys, 10.0)
        assert bank.space_items == 5 * 5 * 64

    def test_empty_inputs(self):
        bank = L2SamplerBank(count=2, seed=0, rows=3, width=8)
        bank.update_batch([])
        assert not bank._table.any()
        assert bank.samples([], 1.0) == []
        assert bank.samples([(0, 1)], 1.0) == []  # nothing recovered above 0
        with pytest.raises(ValueError):
            bank.samples([(0, 1)], -1.0)
        with pytest.raises(ValueError):
            bank.update_batch([(0, 1), (1, 2)], [1.0])
