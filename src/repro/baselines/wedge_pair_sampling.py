"""Wedge-pair sampling — the adjacency-list C4 comparator.

A simplified stand-in for the Kallaugher–McGregor–Price–Vorotnikova
(PODS 2019) adjacency-list four-cycle algorithm the paper's Theorem 4.2
improves on.  Their algorithm counts cycles individually by sampling
wedges; this baseline does the same in its cleanest unbiased form:

* every wedge ``u - t - v`` (a neighbor pair in ``t``'s adjacency list)
  is sampled independently with probability ``p_w`` (hash-defined);
* sampled wedges are bucketed by endpoint pair ``{u, v}``;
* ``X = sum_pairs C(k_pair, 2)`` where ``k_pair`` is the number of
  sampled wedges in the bucket.  Since two distinct wedges with the
  same endpoints form exactly one four-cycle and survive together with
  probability ``p_w^2``, ``E[X] = 2 T p_w^2`` and ``T_hat = X / (2
  p_w^2)``.

Counting cycles pair-by-pair is exactly what the diamond grouping of
Theorem 4.2 avoids: on large diamonds the bucket sizes are Binomial
and ``C(k, 2)`` has variance ``~ d^3 p_w^3``, which forces ``p_w``
(and hence space) up.  Experiment E5 shows the contrast.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.result import EstimateResult
from ..core.skeleton import finish, pass_span, require_adjacency
from ..graphs.graph import Vertex, normalize_edge
from ..sketches.hashing import KWiseHash
from ..streams.meter import SpaceMeter
from ..streams.models import AdjacencyListStream


class WedgePairSamplingFourCycles:
    """One-pass adjacency-list C4 estimator by independent wedge sampling.

    Args:
        wedge_probability: the sampling rate ``p_w``.  For a fair
            frontier comparison pick it so the expected sample
            ``p_w * W`` (W = total wedges) matches the competing
            algorithm's space.
        seed: seeds the wedge-sampling hash.
    """

    name = "wedge-pair-sampling"

    def __init__(self, wedge_probability: float, seed: int = 0) -> None:
        if not 0 < wedge_probability <= 1:
            raise ValueError(
                f"wedge probability must be in (0, 1], got {wedge_probability}"
            )
        self.wedge_probability = wedge_probability
        self.seed = seed

    def run(self, stream: AdjacencyListStream) -> EstimateResult:
        require_adjacency(self, stream)
        meter = SpaceMeter()
        wedge_hash = KWiseHash(
            k=2, seed=self.seed, namespace="wedge-pair-sampling.wedge"
        )
        buckets: Dict[Tuple[Vertex, Vertex], int] = {}

        with pass_span("pass1:wedge-sample", meter):
            for center, neighbors in stream.adjacency_lists():
                ordered = sorted(neighbors, key=repr)
                for i, u in enumerate(ordered):
                    for v in ordered[i + 1 :]:
                        if wedge_hash.bernoulli((center, u, v), self.wedge_probability):
                            pair = normalize_edge(u, v)
                            if pair not in buckets:
                                buckets[pair] = 0
                                meter.add("wedge_buckets")
                            buckets[pair] += 1

        pairs_sum = sum(k * (k - 1) // 2 for k in buckets.values())
        estimate = pairs_sum / (2.0 * self.wedge_probability**2)
        details = {
            "sampled_wedges": sum(buckets.values()),
            "buckets": len(buckets),
            "colliding_pairs": pairs_sum,
        }
        return finish(self.name, estimate, stream.passes_taken, meter, details)

    @classmethod
    def for_space_budget(
        cls, total_wedges: int, budget_items: int, seed: int = 0
    ) -> "WedgePairSamplingFourCycles":
        """Pick ``p_w`` so the expected sampled-wedge count is ``budget_items``."""
        if total_wedges <= 0:
            raise ValueError("graph has no wedges")
        p = min(1.0, budget_items / total_wedges)
        return cls(wedge_probability=max(p, 1e-9), seed=seed)
