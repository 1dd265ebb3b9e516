"""A5 and A4 hash each adjacency block as one array, bit-identically.

The reference runs swap the batched kernels for the scalar path they
replaced: one ``L2SamplerBank.update`` per wedge pair and one
``L2Sampler.sample`` per sampler for A5, one ``KWiseHash.bernoulli``
per pair key for A4.  Estimates and every ``details`` entry must be
equal, not merely close.
"""

import numpy as np
import pytest

import repro.core.fourcycle_moment as moment_mod
from repro.core import FourCycleL2Sampling, FourCycleMoment
from repro.graphs import erdos_renyi, four_cycle_count, wedge_counts
from repro.sketches import KWiseHash, L2SamplerBank
from repro.streams import AdjacencyListStream


def _scalar_update_batch(bank, keys, deltas=None):
    for i, key in enumerate(keys):
        bank.update(key, 1.0 if deltas is None else deltas[i])


def _scalar_samples(bank, candidates, f2_estimate):
    candidates = list(candidates)
    drawn = [sampler.sample(candidates, f2_estimate) for sampler in bank._samplers]
    return [d for d in drawn if d is not None]


def _scalar_bernoulli_array(hash_fn, keys, p):
    return np.array([hash_fn.bernoulli(key, p) for key in keys], dtype=bool)


@pytest.fixture
def scalar_path(monkeypatch):
    """Context that routes A5/A4 through the scalar reference path."""

    def enable():
        monkeypatch.setattr(L2SamplerBank, "update_batch", _scalar_update_batch)
        monkeypatch.setattr(L2SamplerBank, "samples", _scalar_samples)
        monkeypatch.setattr(KWiseHash, "bernoulli_array", _scalar_bernoulli_array)
        # pair keys reach the scalar bernoulli unfolded, as before batching
        monkeypatch.setattr(moment_mod, "stable_key_array", lambda keys: keys)

    return enable


def _graphs():
    ints = erdos_renyi(22, 0.45, seed=11)
    strings = ints.relabeled({v: f"v{v}" for v in ints.vertices()})
    return {"int": ints, "str": strings}


def _runs(graph):
    truth = max(1, four_cycle_count(graph))
    for seed in range(3):
        yield FourCycleL2Sampling(
            t_guess=truth, epsilon=0.3, num_samplers=10, seed=seed
        ), AdjacencyListStream(graph, seed=40 + seed)
        yield FourCycleL2Sampling(
            t_guess=truth, num_samplers=6, sampler_rows=4, sampler_width=64, seed=seed
        ), AdjacencyListStream(graph, seed=50 + seed)
        yield FourCycleMoment(
            t_guess=truth, epsilon=0.3, c=0.5, seed=seed
        ), AdjacencyListStream(graph, seed=60 + seed)


def _fingerprint(result):
    return (
        result.estimate,
        result.passes,
        result.space.peak,
        sorted(result.details.items()),
    )


@pytest.mark.parametrize("vertices", ["int", "str"])
def test_batched_runs_equal_scalar_reference(vertices, scalar_path):
    graph = _graphs()[vertices]
    batched = [_fingerprint(alg.run(stream)) for alg, stream in _runs(graph)]
    scalar_path()
    reference = [_fingerprint(alg.run(stream)) for alg, stream in _runs(graph)]
    assert batched == reference
    a5_samples = [details for _, _, _, details in batched[::3]]
    assert any(dict(d)["num_samples"] > 0 for d in a5_samples)
    a4_pairs = [dict(d)["sampled_pairs_with_wedges"] for _, _, _, d in batched[2::3]]
    assert any(a4_pairs)
    assert all(dict(d)["pair_probability"] < 1 for _, _, _, d in batched[2::3])


@pytest.mark.parametrize("vertices", ["int", "str"])
def test_a4_keeps_exactly_the_scalar_pair_sample(vertices):
    """Independent of the run's own code: the pairs A4 counts are the
    wedge-vector pairs the scalar ``bernoulli`` keeps."""
    graph = _graphs()[vertices]
    for seed in range(3):
        algorithm = FourCycleMoment(t_guess=200, epsilon=0.3, c=0.5, seed=seed)
        details = algorithm.run(AdjacencyListStream(graph, seed=seed)).details
        p = details["pair_probability"]
        pair_hash = KWiseHash(k=2, seed=seed, namespace="fourcycle-moment.pair")
        kept = [x for pair, x in wedge_counts(graph).items() if pair_hash.bernoulli(pair, p)]
        assert 0 < len(kept) == details["sampled_pairs_with_wedges"]
        cap = 1 / algorithm.epsilon
        assert details["f1_hat"] == pytest.approx(sum(min(x, cap) for x in kept) / p)
