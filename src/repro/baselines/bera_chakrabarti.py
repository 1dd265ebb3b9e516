"""Bera–Chakrabarti-style four-cycle counting in arbitrary order.

Bera & Chakrabarti (STACS 2017) gave the previous best arbitrary-order
four-cycle bound the paper quotes: a (1+eps)-approximation in
``Õ(eps^-2 m^2 / T)`` space.  Their general technique samples tuples of
edges uniformly and tests whether they extend to the target subgraph
in later passes.  We implement the faithful-in-spirit two-pass variant
for C4:

* **Pass 1** draws ``k`` independent ordered pairs of uniform edges
  (two reservoir samplers per pair).
* **Pass 2** checks, for each vertex-disjoint pair, whether it forms
  the two *opposite* edges of a four-cycle — i.e. whether either of the
  two possible connecting edge pairs is present.

Every four-cycle has 4 ordered opposite-edge pairs among the ``m^2``
ordered pairs, so ``E[Z] = 4T/m^2`` per pair and ``T_hat = m^2 *
mean(Z) / 4``.  Concentration needs ``k = Theta(eps^-2 m^2 / T)``
samples — the ``m^2/T`` space the paper's Theorem 5.3 beats whenever
``T <= m^{4/3}``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Set, Tuple

from ..core.result import EstimateResult
from ..core.skeleton import check_accuracy, finish, pass_span
from ..seeding import component_rng
from ..graphs.graph import Edge, normalize_edge
from ..streams.meter import SpaceMeter
from ..streams.models import StreamSource


class BeraChakrabartiFourCycles:
    """Two-pass edge-pair sampling C4 estimator.

    Args:
        t_guess: the parameter ``T``; the number of sampled pairs is
            ``k = ceil(c * eps^-2 * m^2 / T)``, capped by ``max_pairs``.
        epsilon: target accuracy.
        c: scale on the pair count.
        max_pairs: hard cap to keep adversarial parameterizations from
            requesting more pairs than edges squared.
        seed: seeds the reservoir samplers.
    """

    name = "bera-chakrabarti"

    def __init__(
        self,
        t_guess: float,
        epsilon: float = 0.2,
        c: float = 1.0,
        max_pairs: int = 200_000,
        seed: int = 0,
    ) -> None:
        self.t_guess, self.epsilon = check_accuracy(t_guess, epsilon)
        self.c = c
        self.max_pairs = max_pairs
        self.seed = seed

    def run(self, stream: StreamSource) -> EstimateResult:
        meter = SpaceMeter()
        m = stream.num_edges
        if m < 4:
            return finish(self.name, 0.0, 1, meter, {"empty": True})
        k = min(
            self.max_pairs,
            max(1, math.ceil(self.c * m * m / (self.epsilon**2 * self.t_guess))),
        )

        # ---- pass 1: draw k ordered uniform edge pairs ----------------
        # m is known up front, so a uniform edge sample is just a
        # pre-drawn stream position (equivalent to, and much faster
        # than, 2k reservoir samplers).
        rng = component_rng("bera-chakrabarti.positions", seed=self.seed)
        positions = [rng.randrange(m) for _ in range(2 * k)]
        wanted: Dict[int, List[int]] = {}
        for slot, pos in enumerate(positions):
            wanted.setdefault(pos, []).append(slot)
        slot_edges: List[Edge] = [None] * (2 * k)  # type: ignore[list-item]
        with pass_span("pass1:pair-sample", meter):
            for pos, edge in enumerate(stream.edges()):
                for slot in wanted.get(pos, ()):
                    slot_edges[slot] = edge
            meter.set("sampled_edges", 2 * k)

        pairs: List[Tuple[Edge, Edge]] = [
            (slot_edges[2 * j], slot_edges[2 * j + 1]) for j in range(k)
        ]

        # connecting edges to watch for in pass 2, indexed per pair
        watch: Dict[Edge, List[int]] = {}
        completions: List[List[Tuple[Edge, Edge]]] = []
        for j, (e1, e2) in enumerate(pairs):
            options: List[Tuple[Edge, Edge]] = []
            if e1 is not None and e2 is not None:
                a, b = e1
                c_v, d_v = e2
                if len({a, b, c_v, d_v}) == 4:
                    options = [
                        (normalize_edge(b, c_v), normalize_edge(d_v, a)),
                        (normalize_edge(b, d_v), normalize_edge(c_v, a)),
                    ]
            completions.append(options)
            for pair_of_edges in options:
                for edge in pair_of_edges:
                    watch.setdefault(edge, []).append(j)
        meter.set("watched_edges", len(watch))

        # ---- pass 2: observe which connecting edges exist -------------
        present: Set[Edge] = set()
        with pass_span("pass2:check-completions", meter) as span:
            for u, v in stream.edges():
                edge = normalize_edge(u, v)
                if edge in watch:
                    present.add(edge)
            meter.set("present_marks", len(present))
            span.set("watched_edges", len(watch))

        z_total = 0
        for options in completions:
            for first, second in options:
                if first in present and second in present:
                    z_total += 1
        estimate = (m * m * z_total) / (4.0 * k)
        details = {"pairs": k, "z_total": z_total, "watched_edges": len(watch)}
        return finish(self.name, estimate, stream.passes_taken, meter, details)
