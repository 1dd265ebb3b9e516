"""The Section 5.4 / Theorem 5.8 lower-bound construction.

DISJOINTNESS embeds into four-cycle counting as two overlapping stars:
special vertices ``u`` (Alice's hub) and ``w`` (Bob's hub) plus groups
``V_1, ..., V_r`` of ``k`` vertices each.  For every 1-bit of her
string, Alice connects ``u`` to all of group ``V_i``; Bob likewise
connects ``w``.  If the strings are disjoint the graph is two
edge-disjoint stars — zero four-cycles; if they intersect anywhere,
every doubly-connected vertex pairs with every other to close a cycle
through ``u`` and ``w``, giving at least ``C(k, 2) = Theta(k^2)``
cycles.  Since the graph has ``Theta(n)`` edges, any algorithm
distinguishing 0 from ``T = Theta(k^2)`` four-cycles solves DISJ and
needs ``Omega(n / k) = Omega(m / sqrt(T))`` space.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Tuple

from ..graphs.graph import Graph
from .communication import DisjointnessInstance

HUB_ALICE = "u"
HUB_BOB = "w"


def group_vertex(group: int, offset: int) -> str:
    return f"g{group}_{offset}"


@dataclass
class TwoStarConstruction:
    """A materialized Theorem 5.8 instance."""

    instance: DisjointnessInstance
    k: int
    graph: Graph = field(repr=False)
    alice_edges: List[Tuple[str, str]] = field(repr=False)
    bob_edges: List[Tuple[str, str]] = field(repr=False)

    @property
    def expected_four_cycles(self) -> int:
        """Exactly ``C(k * q, 2)`` for ``q`` intersecting positions."""
        doubly_connected = self.k * len(self.instance.intersection_indices)
        return doubly_connected * (doubly_connected - 1) // 2

    def all_edges(self) -> List[Tuple[str, str]]:
        return self.alice_edges + self.bob_edges

    def stream_edges(self, seed: int = 0) -> List[Tuple[str, str]]:
        """Alice's edges then Bob's (each shuffled) — the natural
        communication-protocol arrival order."""
        rng = random.Random(f"twostar-order-{seed}")
        alice = list(self.alice_edges)
        bob = list(self.bob_edges)
        rng.shuffle(alice)
        rng.shuffle(bob)
        return alice + bob


def build_two_stars(instance: DisjointnessInstance, k: int) -> TwoStarConstruction:
    """Embed a DISJ instance into the two-star graph with group size ``k``."""
    if k < 2:
        raise ValueError(f"group size k must be >= 2 for any four-cycle, got {k}")
    graph = Graph()
    graph.add_vertex(HUB_ALICE)
    graph.add_vertex(HUB_BOB)
    alice_edges: List[Tuple[str, str]] = []
    bob_edges: List[Tuple[str, str]] = []
    for group, (bit_a, bit_b) in enumerate(zip(instance.s1, instance.s2)):
        for offset in range(k):
            vertex = group_vertex(group, offset)
            graph.add_vertex(vertex)
            if bit_a:
                edge = (HUB_ALICE, vertex)
                graph.add_edge(*edge)
                alice_edges.append(edge)
            if bit_b:
                edge = (HUB_BOB, vertex)
                graph.add_edge(*edge)
                bob_edges.append(edge)
    return TwoStarConstruction(
        instance=instance,
        k=k,
        graph=graph,
        alice_edges=alice_edges,
        bob_edges=bob_edges,
    )


def solve_disjointness_with_distinguisher(
    instance: DisjointnessInstance,
    k: int,
    distinguisher_factory,
    seed: int = 0,
) -> Tuple[int, int]:
    """Run the Theorem 5.8 reduction end to end.

    Builds the two-star graph, streams it through a 0-vs-T four-cycle
    distinguisher (``T = C(k, 2)``), and returns ``(protocol_answer,
    space_items)``.  A correct distinguisher yields a correct DISJ
    protocol, which is the content of the lower bound.
    """
    from ..streams.models import ArbitraryOrderStream

    construction = build_two_stars(instance, k)
    stream = ArbitraryOrderStream(construction.stream_edges(seed=seed))
    t_promise = k * (k - 1) // 2
    algorithm = distinguisher_factory(t_promise)
    result = algorithm.run(stream)
    return int(result.estimate > 0), result.space_items
