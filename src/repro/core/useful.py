"""The "Useful Algorithm" of Section 3.

An abstract one-pass estimator reused by two of the paper's headline
results: the adjacency-list diamond algorithm of Theorem 4.2 runs this
class, and the three-pass algorithm of Theorem 5.3 computes the same
quantities for all its heavy-edge oracles at once, as integer counts
(:func:`~repro.core.fourcycle_arbitrary_threepass._count_oracles`).

Setting (paper Section 3): a weighted graph ``H`` with edge weights in
``[1, lambda]`` and total weight ``W`` is revealed as a stream of its
*vertices*; when vertex ``v`` arrives we observe every edge between
``v`` and the members of two pre-drawn vertex samples ``R1`` and ``R2``
(each vertex sampled independently with probability ``p``).  The goal
is to estimate ``W`` against a scale parameter ``M``:

* if ``W <= M`` the estimate is ``W +- eps * M`` (Lemma 3.1a);
* the estimate separates ``W >= 2M`` from ``W <= M/2`` (Lemma 3.1b, c).

Mechanics: edges are directed toward the *earlier* endpoint, so
``sum_v win(v) = W``.  ``R1``-incident in-weight classifies vertices as
heavy (``win_1(v) >= p * sqrt(M)``) or light; light in-weight is summed
through the ``R2`` sample; each heavy vertex in ``R2`` gets an exact
counter.  Two independent samples keep the classifier and the
estimator independent.

This class is deliberately *caller-driven*: the caller streams vertices
through :meth:`process_vertex`, supplying the observable H-edges to
``R1 | R2``.  It never sees the rest of the graph — exactly the
information model of the paper.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, Mapping, Set, Tuple

HVertex = Hashable


class UsefulAlgorithm:
    """One-pass total-weight estimator over an observed vertex stream.

    Args:
        r1: the classifier sample (vertices drawn with probability ``p``).
        r2: the estimator sample (independent, same probability).
        p: the sampling probability used to draw ``r1`` and ``r2``.
        m_bound: the scale ``M``; the heavy threshold is ``p * sqrt(M)``.

    The caller must present *every* vertex of ``H`` exactly once, in
    stream order, giving for each the weights of its H-edges to members
    of ``r1 | r2`` (both already-seen and not-yet-seen members).
    """

    def __init__(
        self,
        r1: Iterable[HVertex],
        r2: Iterable[HVertex],
        p: float,
        m_bound: float,
    ) -> None:
        if not 0.0 < p <= 1.0:
            raise ValueError(f"sampling probability must be in (0, 1], got {p}")
        if m_bound <= 0:
            raise ValueError(f"scale M must be positive, got {m_bound}")
        self.r1: Set[HVertex] = set(r1)
        self.r2: Set[HVertex] = set(r2)
        self.p = p
        self.m_bound = m_bound
        self.heavy_threshold = p * math.sqrt(m_bound)

        self._seen: Set[HVertex] = set()
        self._a = 0.0  # running sum of wout_2(v) == sum over R2 of win
        self._a_heavy = 0.0  # AH: sum of win_2(v) over heavy v
        self._heavy_counters: Dict[HVertex, float] = {}  # a(u) for u in V'_H
        self._heavy_vertices: Set[HVertex] = set()  # all heavy v (diagnostics)
        self._finished = False

    # ------------------------------------------------------------------
    def process_vertex(
        self, v: HVertex, neighbor_weights: Mapping[HVertex, float]
    ) -> None:
        """Stream the next vertex of ``H``.

        Args:
            v: the arriving vertex.
            neighbor_weights: weights of all H-edges between ``v`` and
                members of ``r1 | r2`` (other entries are ignored, so a
                caller may pass a superset map).  ``v`` itself must not
                appear as its own neighbor.
        """
        if self._finished:
            raise RuntimeError("estimate() was already called; stream is closed")
        if v in neighbor_weights:
            raise ValueError(f"vertex {v!r} listed as its own neighbor")

        wout_2 = 0.0  # weight to R2 vertices seen earlier (out-edges of v)
        win_1 = 0.0  # weight to R1 vertices not yet seen (in-edges of v)
        win_2 = 0.0  # weight to R2 vertices not yet seen (in-edges of v)
        for u, weight in neighbor_weights.items():
            if weight < 0:
                raise ValueError(f"negative H-edge weight {weight} on {u!r}")
            in_r1 = u in self.r1
            in_r2 = u in self.r2
            if not (in_r1 or in_r2):
                continue
            seen = u in self._seen
            if in_r2:
                if seen:
                    wout_2 += weight
                else:
                    win_2 += weight
            if in_r1 and not seen:
                win_1 += weight
            # exact counters for heavy R2 vertices seen earlier
            if seen and u in self._heavy_counters:
                self._heavy_counters[u] += weight

        self._a += wout_2
        if win_1 >= self.heavy_threshold:
            self._heavy_vertices.add(v)
            if v in self.r2:
                self._heavy_counters.setdefault(v, 0.0)
            self._a_heavy += win_2

        self._seen.add(v)

    # ------------------------------------------------------------------
    def estimate(self) -> float:
        """The estimate ``W_hat = (AL + AH) / p`` (Lemma 3.1)."""
        self._finished = True
        a_light = self._a - sum(self._heavy_counters.values())
        return (a_light + self._a_heavy) / self.p

    def is_large(self) -> bool:
        """The Lemma 3.1(b, c) decision: ``W_hat >= M`` implies
        ``W >= M/2``; ``W_hat < M`` implies ``W <= 2M`` (whp)."""
        return self.estimate() >= self.m_bound

    # ------------------------------------------------------------------
    @property
    def heavy_vertices(self) -> Set[HVertex]:
        """All vertices classified heavy so far (diagnostics)."""
        return set(self._heavy_vertices)

    @property
    def heavy_counter_count(self) -> int:
        """Number of per-heavy-vertex exact counters currently held."""
        return len(self._heavy_counters)

    @property
    def space_items(self) -> int:
        """Words held: the two samples (with seen-bits folded in) plus
        one counter per heavy R2 vertex plus the O(1) globals."""
        return len(self.r1) + len(self.r2) + len(self._heavy_counters) + 3


def bernoulli_vertex_sample(
    vertices: Iterable[HVertex], p: float, seed: int
) -> Tuple[Set[HVertex], Set[HVertex]]:
    """Draw the two independent samples ``R1, R2`` the algorithm needs.

    A convenience for callers that have the vertex universe in hand
    (tests, the diamond algorithm's per-level setup).
    """
    from ..sketches.hashing import KWiseHash

    h1 = KWiseHash(k=2, seed=seed, namespace="useful.r1")
    h2 = KWiseHash(k=2, seed=seed, namespace="useful.r2")
    universe = list(vertices)
    r1 = {v for v in universe if h1.bernoulli(v, p)}
    r2 = {v for v in universe if h2.bernoulli(v, p)}
    return r1, r2
