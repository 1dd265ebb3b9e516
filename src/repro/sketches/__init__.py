"""Sketching substrate: hashing, CountSketch, l2 sampling, wedges."""

from .countsketch import CountSketch
from .estimators import (
    mean,
    median,
    median_of_means,
    relative_error,
    within_factor,
)
from .hashing import (
    MERSENNE_PRIME,
    KWiseHash,
    hash_family,
    stable_key,
    stable_key_array,
)
from .l2_sampler import L2Sampler, L2SamplerBank
from .reservoir import ReservoirSampler, UniformItemSampler
from .wedge_f2 import WedgeF2Estimator

__all__ = [
    "MERSENNE_PRIME",
    "KWiseHash",
    "hash_family",
    "stable_key",
    "stable_key_array",
    "CountSketch",
    "L2Sampler",
    "L2SamplerBank",
    "ReservoirSampler",
    "UniformItemSampler",
    "WedgeF2Estimator",
    "mean",
    "median",
    "median_of_means",
    "relative_error",
    "within_factor",
]
