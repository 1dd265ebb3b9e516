"""Theorem 5.7: one-pass four-cycle counting in the arbitrary order
model when ``T = Omega(n^2 / eps^2)``, using Õ(eps^-2 n) space.

The Section 4.2 moment approach re-implemented for arbitrary edge
arrivals: the F2(x) basic estimator now keeps the 3n running counters
``A_t, B_t, C_t`` per copy (updated on each edge arrival from both
endpoints), which also makes it work under edge *deletions* — the
dynamic setting the paper notes in Section 5.3.

The F1(z) term is estimated by sampling a set ``R`` of vertices
(probability ``p_v ~ eps^-2 / n``), storing the exact neighbor set of
each sampled vertex, and evaluating ``z`` on all pairs inside ``R``
scaled by ``1 / p_v^2``.  This replaces the paper's (unspecified in the
arbitrary-order section) pair sampling with an equivalent-variance
scheme whose space is ``p_v * 2m = O(eps^-2 m / n) <= O(eps^-2 n)`` —
documented in DESIGN.md as a substitution that preserves the claimed
space bound.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Set, Tuple

from ..graphs.graph import Vertex
from ..sketches.hashing import KWiseHash
from ..sketches.wedge_f2 import WedgeF2Estimator
from ..streams.meter import SpaceMeter
from ..streams.models import StreamSource
from .result import EstimateResult
from .skeleton import check_accuracy, finish, pass_span


class FourCycleArbitraryOnePass:
    """One-pass arbitrary-order C4 counter for dense graphs.

    Args:
        t_guess: the parameter ``T`` (only used for reporting; the
            sampling rates here depend on ``n`` and ``epsilon``).
        epsilon: target accuracy; also the cap ``1/eps`` in ``z``.
        c: scale on the vertex-sampling constant for the F1 term.
        groups / group_size: F2 median-of-means layout.
        seed: seeds all hash functions.
    """

    name = "mv-fourcycle-arbitrary-onepass"

    def __init__(
        self,
        t_guess: float,
        epsilon: float = 0.1,
        c: float = 2.0,
        groups: int = 5,
        group_size: int = 6,
        seed: int = 0,
    ) -> None:
        self.t_guess, self.epsilon = check_accuracy(t_guess, epsilon)
        self.c = c
        self.groups = groups
        self.group_size = group_size
        self.seed = seed

    # ------------------------------------------------------------------
    def run(self, stream: StreamSource) -> EstimateResult:
        meter = SpaceMeter()
        estimate, details = self._run_updates(
            ((u, v, 1) for u, v in stream.edges()), max(2, stream.num_vertices), meter
        )
        return finish(self.name, estimate, stream.passes_taken, meter, details)

    def run_dynamic(self, updates: Iterable[Tuple[Vertex, Vertex, int]], n: int) -> float:
        """The dynamic (insert/delete) variant the paper notes.

        Args:
            updates: iterable of ``(u, v, delta)`` with ``delta`` +1 for
                an insertion, -1 for a deletion.
            n: number of vertices.

        Returns ``(F2_hat - F1_hat) / 4`` where, since z-capping needs
        the final graph, the F1 term comes from the tracked sets after
        all updates (deletions remove entries).
        """
        return self._run_updates(updates, n, SpaceMeter())[0]

    # ------------------------------------------------------------------
    def _run_updates(
        self, updates: Iterable[Tuple[Vertex, Vertex, int]], n: int, meter: SpaceMeter
    ) -> Tuple[float, Dict[str, Any]]:
        """One pass of signed edge updates, then F1(z) over sampled pairs."""
        # pv ~ n / (eps^2 T); with T = Omega(n^2) this is O(1 / (eps^2 n))
        # and the stored neighbor sets total O(eps^-2 n) words.
        vertex_prob = min(
            1.0, self.c * math.log(max(2, n)) * n / (self.epsilon**2 * self.t_guess)
        )
        vertex_hash = KWiseHash(k=2, seed=self.seed, namespace="fourcycle-onepass.vertex")
        f2_estimator = WedgeF2Estimator(
            groups=self.groups, group_size=self.group_size, seed=self.seed
        )

        tracked_neighbors: Dict[Vertex, Set[Vertex]] = {}

        with pass_span("pass1:stream", meter):
            for u, v, delta in updates:
                f2_estimator.process_edge(u, v, delta=delta)
                for a, b in ((u, v), (v, u)):
                    if vertex_hash.bernoulli(a, vertex_prob):
                        bucket = tracked_neighbors.setdefault(a, set())
                        if delta > 0 and b not in bucket:
                            bucket.add(b)
                            meter.add("tracked_neighbor_entries")
                        elif delta < 0 and b in bucket:
                            bucket.discard(b)
                            meter.add("tracked_neighbor_entries", -1)
            meter.set("f2_counters", f2_estimator.space_items)

        # F1(z) over pairs inside the sampled vertex set
        with pass_span("post:f1-pairs", meter, kind="phase"):
            cap = 1.0 / self.epsilon
            sampled = sorted(tracked_neighbors, key=repr)
            f1_sum = 0.0
            for i, u in enumerate(sampled):
                neighbors_u = tracked_neighbors[u]
                for v in sampled[i + 1 :]:
                    common = len(neighbors_u & tracked_neighbors[v])
                    if common:
                        f1_sum += min(common, cap)
            f1_hat = f1_sum / (vertex_prob**2) if vertex_prob > 0 else 0.0

        f2_hat = f2_estimator.estimate()
        details = {
            "f2_hat": f2_hat,
            "f1_hat": f1_hat,
            "vertex_probability": vertex_prob,
            "sampled_vertices": len(sampled),
            "f2_copies": f2_estimator.num_copies,
        }
        return max(0.0, (f2_hat - f1_hat) / 4.0), details
