"""Theorem 5.6: two-pass distinguisher between 0 and T four-cycles in
arbitrary-order streams, using Õ(m^{3/2} / T^{3/4}) space.

Pass 1 samples every edge independently with probability ``p = c /
sqrt(T)`` into ``S``.  If the graph has ``T`` four-cycles then, with
constant probability, ``S`` contains a *light* vertex-disjoint pair of
edges of some four-cycle (Lemma 5.5) — so the subgraph induced by the
endpoints ``V_S`` contains a four-cycle.  Pass 2 collects edges with
both endpoints in ``V_S`` until it finds a four-cycle or the stream
ends; by the Kővári–Sós–Turán bound (Lemma 5.4), a four-cycle-free
collection can never exceed ``2 |V_S|^{3/2}`` edges, which caps the
space at Õ(m^{3/2} / T^{3/4}).

The output is a decision, not an estimate: :meth:`decide` returns
whether a four-cycle was found.  On a four-cycle-free input the answer
is always ``False`` (one-sided error); on an input with at least ``T``
four-cycles the answer is ``True`` with constant probability.
"""

from __future__ import annotations

import math
from typing import Dict, Set, Tuple

from ..graphs.graph import Vertex, normalize_edge
from ..sketches.hashing import KWiseHash
from ..streams.meter import SpaceMeter
from ..streams.models import StreamSource
from .result import EstimateResult
from .skeleton import check_accuracy, finish, pass_span


class FourCycleDistinguisher:
    """The two-pass 0-vs-T four-cycle distinguisher.

    Args:
        t_guess: the promise parameter ``T``.
        c: scale on the edge-sampling probability ``p = c / sqrt(T)``
            (the paper's "sufficiently large constant").
        seed: seeds the sampling hash.

    Pass 2 stops at the Lemma 5.4 cap ``2 |V_S|^{3/2}``: crossing it
    without a four-cycle would contradict the lemma, so it raises.
    """

    name = "mv-fourcycle-distinguisher"

    def __init__(
        self,
        t_guess: float,
        c: float = 2.0,
        seed: int = 0,
    ) -> None:
        self.t_guess, _ = check_accuracy(t_guess)
        if c <= 0:
            raise ValueError(f"scale c must be positive, got {c}")
        self.c = c
        self.seed = seed

    # ------------------------------------------------------------------
    def decide(self, stream: StreamSource) -> bool:
        """Two passes; True iff a four-cycle was found."""
        return self.run(stream).estimate > 0

    def run(self, stream: StreamSource) -> EstimateResult:
        meter = SpaceMeter()
        p = min(1.0, self.c / math.sqrt(self.t_guess))
        sample_hash = KWiseHash(
            k=2, seed=self.seed, namespace="fourcycle-distinguisher.sample"
        )

        # ---- pass 1: sample edges, collect endpoint set V_S ----------
        sampled_vertices: Set[Vertex] = set()
        sampled_edges = 0
        with pass_span("pass1:sample", meter) as span:
            for u, v in stream.edges():
                if sample_hash.bernoulli(normalize_edge(u, v), p):
                    sampled_edges += 1
                    for w in (u, v):
                        if w not in sampled_vertices:
                            sampled_vertices.add(w)
                            meter.add("sampled_vertices")
            span.set("sampled_vertices", len(sampled_vertices))

        # ---- pass 2: collect induced edges until a C4 appears --------
        cap = max(4, math.ceil(2.0 * len(sampled_vertices) ** 1.5))
        adjacency: Dict[Vertex, Set[Vertex]] = {}
        collected = 0
        witness: Tuple[Vertex, ...] = ()
        with pass_span("pass2:induced-search", meter) as span:
            for u, v in stream.edges():
                if u not in sampled_vertices or v not in sampled_vertices:
                    continue
                cycle = self._closes_four_cycle(adjacency, u, v)
                if cycle:
                    witness = cycle
                    break
                adjacency.setdefault(u, set()).add(v)
                adjacency.setdefault(v, set()).add(u)
                collected += 1
                meter.add("induced_edges")
                if collected > cap:
                    raise AssertionError(
                        "collected more than 2|V_S|^{3/2} edges without a "
                        "four-cycle — contradicts Lemma 5.4"
                    )
            span.set("induced_edges", collected)

        found = bool(witness)
        details = {
            "found": found,
            "witness": witness,
            "sample_probability": p,
            "sampled_edges": sampled_edges,
            "sampled_vertices": len(sampled_vertices),
            "induced_edges_collected": collected,
            "kst_cap": cap,
        }
        estimate = self.t_guess if found else 0.0
        return finish(self.name, estimate, stream.passes_taken, meter, details)

    @staticmethod
    def _closes_four_cycle(
        adjacency: Dict[Vertex, Set[Vertex]], u: Vertex, v: Vertex
    ) -> Tuple[Vertex, ...]:
        """If adding edge (u, v) closes a four-cycle, return its vertices.

        A new four-cycle through ``(u, v)`` is a path ``u - x - y - v``
        already present, with ``x != v``, ``y != u`` and ``x != y``.
        """
        neighbors_u = adjacency.get(u)
        neighbors_v = adjacency.get(v)
        if not neighbors_u or not neighbors_v:
            return ()
        for x in neighbors_u:
            if x == v:
                continue
            x_neighbors = adjacency.get(x, set())
            for y in neighbors_v:
                if y == u or y == x:
                    continue
                if y in x_neighbors:
                    return (u, x, y, v)
        return ()

