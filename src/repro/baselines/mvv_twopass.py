"""McGregor–Vorotnikova–Vu-style two-pass arbitrary-order triangles.

The paper's Section 2 notes that in *arbitrary* order, heavy-edge
identification "is possible in two passes" (citing McGregor,
Vorotnikova & Vu, PODS 2016, and Cormode & Jowhari).  This baseline
implements the core two-pass estimator those results build on:

* **Pass 1** samples each edge independently with probability ``p``
  into ``S``.
* **Pass 2** counts, exactly, the number of triangles through each
  sampled edge: when stream edge ``(a, w)`` arrives with ``a`` an
  endpoint of some ``e = (u, v) in S``, the pair ``(e, w)`` is
  half-closed; when the second half arrives the wedge is complete and
  ``t_e`` increments.

``T_hat = sum_e t_e / (3 p)`` is unbiased (each triangle is seen once
per sampled edge).  Space is ``|S|`` plus the half-wedge table —
``sum_{e in S} (deg(u) + deg(v))`` keys — which is how the two-pass
results spend their Õ(m/sqrt(T)) budget.  Its role here: the two-pass
comparator that Theorem 2.1 matches with ONE pass given random order.
"""

from __future__ import annotations

import math
from typing import Dict, List, Set, Tuple

from ..core.result import EstimateResult
from ..core.skeleton import check_accuracy, finish, pass_span
from ..graphs.graph import Edge, Vertex, normalize_edge
from ..sketches.hashing import KWiseHash, stable_key_array
from ..streams.meter import SpaceMeter
from ..streams.models import StreamSource


class TwoPassTriangles:
    """Two-pass arbitrary-order triangle counting by edge sampling.

    Args:
        t_guess: the parameter ``T``; the sampling probability is
            ``p = min(1, c / (eps * sqrt(T)))`` — the same budget shape
            as the one-pass random-order algorithm, for fair frontier
            rows.
        epsilon: target accuracy.
        c: sampling-scale knob.
        seed: seeds the sampling hash.
    """

    name = "mvv-twopass-triangles"

    def __init__(
        self, t_guess: float, epsilon: float = 0.1, c: float = 1.0, seed: int = 0
    ) -> None:
        self.t_guess, self.epsilon = check_accuracy(t_guess, epsilon)
        self.c = c
        self.seed = seed

    def run(self, stream: StreamSource) -> EstimateResult:
        meter = SpaceMeter()
        p = min(1.0, self.c / (self.epsilon * math.sqrt(self.t_guess)))
        sample_hash = KWiseHash(k=2, seed=self.seed, namespace="mvv-twopass.sample")

        # ---- pass 1: the edge sample, indexed by endpoint -------------
        sampled: Set[Edge] = set()
        by_endpoint: Dict[Vertex, List[Edge]] = {}
        with pass_span("pass1:sample", meter):
            for chunk in stream.edge_chunks():
                edges = [normalize_edge(u, v) for u, v in chunk]
                hits = sample_hash.bernoulli_array(stable_key_array(edges), p).tolist()
                for (u, v), edge, hit in zip(chunk, edges, hits):
                    if not hit:
                        continue
                    sampled.add(edge)
                    by_endpoint.setdefault(u, []).append(edge)
                    by_endpoint.setdefault(v, []).append(edge)
                    meter.add("sampled_edges")

        # ---- pass 2: exact per-sampled-edge triangle counts -----------
        half_wedges: Set[Tuple[Edge, Vertex]] = set()
        triangle_hits: Dict[Edge, int] = {}
        with pass_span("pass2:count", meter):
            for a, b in stream.edges():
                for endpoint, other in ((a, b), (b, a)):
                    for edge in by_endpoint.get(endpoint, ()):
                        if other in edge:  # the sampled edge itself
                            continue
                        key = (edge, other)
                        if key in half_wedges:
                            # both wedge arms seen: a triangle through `edge`
                            triangle_hits[edge] = triangle_hits.get(edge, 0) + 1
                        else:
                            half_wedges.add(key)
                            meter.add("half_wedges")

        total_hits = sum(triangle_hits.values())
        estimate = total_hits / (3.0 * p)
        details = {
            "p": p,
            "sampled_edges": len(sampled),
            "triangle_hits": total_hits,
            "edges_in_triangles": len(triangle_hits),
        }
        return finish(self.name, estimate, stream.passes_taken, meter, details)
