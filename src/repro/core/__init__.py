"""The paper's algorithms (Theorems 2.1, 4.2, 4.3, 5.3, 5.6, 5.7)."""

from .boosting import MedianBoost, copies_for_failure_probability
from .fourcycle_adjacency_diamond import FourCycleAdjacencyDiamond
from .fourcycle_arbitrary_onepass import FourCycleArbitraryOnePass
from .fourcycle_arbitrary_threepass import (
    FourCycleArbitraryThreePass,
    subsample_q,
)
from .fourcycle_distinguisher import FourCycleDistinguisher
from .fourcycle_l2sampling import FourCycleL2Sampling
from .fourcycle_moment import FourCycleMoment
from .result import EstimateResult
from .triangle_random_order import TriangleRandomOrder
from .useful import UsefulAlgorithm, bernoulli_vertex_sample

__all__ = [
    "EstimateResult",
    "TriangleRandomOrder",
    "UsefulAlgorithm",
    "bernoulli_vertex_sample",
    "FourCycleAdjacencyDiamond",
    "FourCycleMoment",
    "FourCycleL2Sampling",
    "FourCycleArbitraryThreePass",
    "FourCycleArbitraryOnePass",
    "FourCycleDistinguisher",
    "subsample_q",
    "MedianBoost",
    "copies_for_failure_probability",
]
