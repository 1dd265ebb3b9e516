"""Success-probability amplification by independent copies.

Every theorem in the paper ends with the same remark: run Θ(log 1/δ)
copies in parallel and take the median (or, for distinguishers, the
majority).  :class:`MedianBoost` packages that pattern for any
algorithm in this library.

"Parallel" copies observe the *same* stream tokens, so the boost runs
each copy over re-iterations of the same stream instance — all our
stream sources replay identical token sequences per pass — and reports
the pass count of a single copy (what the parallel composition would
cost) while charging the *sum* of the copies' space.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List

from ..seeding import derive_seed
from ..sketches.estimators import median
from ..streams.meter import SpaceMeter
from ..streams.models import StreamSource
from .result import EstimateResult
from .skeleton import finish, pass_span

AlgorithmFactory = Callable[[int], Any]  # copy seed -> algorithm


def copies_for_failure_probability(delta: float, base_failure: float = 1.0 / 3) -> int:
    """How many copies drive a ``base_failure``-error algorithm below
    failure probability ``delta`` under a median/majority combine.

    The standard Chernoff bound gives ``k >= ln(1/delta) / (2 (1/2 -
    base_failure)^2)``; the result is rounded up to the next odd
    integer so the median is a single run's output.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not 0 < base_failure < 0.5:
        raise ValueError(
            f"base failure probability must be in (0, 0.5), got {base_failure}"
        )
    k = math.ceil(math.log(1.0 / delta) / (2.0 * (0.5 - base_failure) ** 2))
    return k + 1 if k % 2 == 0 else k


class MedianBoost:
    """Median-of-copies wrapper around any ``run(stream)`` algorithm.

    Args:
        algorithm_factory: ``copy_seed -> algorithm``; called once per
            copy with distinct seeds derived from ``seed``.
        copies: number of independent copies (odd keeps the median a
            real run output; even is allowed and averages the middle
            pair).
        seed: base seed for the copy seeds.
    """

    name = "median-boost"

    def __init__(
        self, algorithm_factory: AlgorithmFactory, copies: int = 5, seed: int = 0
    ) -> None:
        if copies < 1:
            raise ValueError(f"need at least one copy, got {copies}")
        self.algorithm_factory = algorithm_factory
        self.copies = copies
        self.seed = seed

    def run(self, stream: StreamSource) -> EstimateResult:
        results: List[EstimateResult] = []
        passes_per_copy = 0
        meter = SpaceMeter()
        for j in range(self.copies):
            before = stream.passes_taken
            algorithm = self.algorithm_factory(derive_seed("core:median-boost", j, seed=self.seed))
            # stamped with the copies' combined space so far
            with pass_span(f"copy[{j}]", meter, kind="copy"):
                result = algorithm.run(stream)
                meter.merge(result.space, prefix=f"copy{j}_")
            passes_per_copy = max(passes_per_copy, stream.passes_taken - before)
            results.append(result)
        estimate = median([r.estimate for r in results])
        details = {
            "copies": self.copies,
            "estimates": [r.estimate for r in results],
            "inner_algorithm": results[0].algorithm,
        }
        return finish(self.name, estimate, passes_per_copy, meter, details)
