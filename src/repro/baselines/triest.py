"""TRIEST — reservoir-based one-pass triangle counting.

De Stefani, Epasto, Riondato & Upfal (KDD 2016).  The natural
fixed-memory comparator the repro band cites: a reservoir of ``M``
edges plus a running triangle counter.  Two variants:

* **base** — counters track triangles *inside the reservoir* (updated
  on both insertions and evictions); the estimate rescales by
  ``t(t-1)(t-2) / (M(M-1)(M-2))``.
* **impr** — counts on *every* arriving edge against the current
  reservoir with weight ``max(1, (t-1)(t-2) / (M(M-1)))``, never
  decrements; unbiased with strictly smaller variance than base.

Neither variant is parameterized by ``T`` (memory is fixed up front),
which is the practical contrast with the paper's ``m/sqrt(T)``-space
algorithm in experiment E1.
"""

from __future__ import annotations

from typing import Dict, Set

from ..core.result import EstimateResult
from ..core.skeleton import finish, pass_span
from ..graphs.graph import Vertex
from ..seeding import component_rng
from ..streams.meter import SpaceMeter
from ..streams.models import StreamSource


class _ReservoirGraph:
    """An edge reservoir maintained as an adjacency structure.

    ``variant`` namespaces the eviction RNG so the base and impr
    variants (and anything else holding a reservoir at the same seed)
    draw decorrelated streams.
    """

    def __init__(self, capacity: int, seed: int, variant: str = "base") -> None:
        self.capacity = capacity
        self._rng = component_rng("triest.reservoir", variant, seed=seed)
        self.edges: list = []
        self.adj: Dict[Vertex, Set[Vertex]] = {}
        self.evictions = 0

    def common_neighbors(self, u: Vertex, v: Vertex) -> int:
        set_u = self.adj.get(u)
        set_v = self.adj.get(v)
        if not set_u or not set_v:
            return 0
        return len(set_u & set_v)

    def _insert(self, u: Vertex, v: Vertex) -> None:
        self.edges.append((u, v))
        self.adj.setdefault(u, set()).add(v)
        self.adj.setdefault(v, set()).add(u)

    def _remove_at(self, slot: int):
        u, v = self.edges[slot]
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        return u, v

    def offer(self, u: Vertex, v: Vertex, t: int, on_remove=None) -> bool:
        """Algorithm-R step at time ``t`` (1-based).

        ``on_remove(evicted_edge)`` fires after the evicted edge left the
        adjacency structure but *before* the new edge enters it, so
        eviction-time counter updates see a consistent reservoir.
        Returns whether the new edge was kept.
        """
        if len(self.edges) < self.capacity:
            self._insert(u, v)
            return True
        slot = self._rng.randrange(t)
        if slot < self.capacity:
            evicted = self._remove_at(slot)
            self.evictions += 1
            if on_remove is not None:
                on_remove(evicted)
            self.edges[slot] = (u, v)
            self.adj.setdefault(u, set()).add(v)
            self.adj.setdefault(v, set()).add(u)
            return True
        return False


class _Triest:
    """Both variants' constructor: reservoir capacity ``memory`` (edges)."""

    def __init__(self, memory: int, seed: int = 0) -> None:
        if memory < 6:
            raise ValueError(f"TRIEST needs memory >= 6, got {memory}")
        self.memory = memory
        self.seed = seed


class TriestBase(_Triest):
    """TRIEST-base with reservoir capacity ``memory`` (edges)."""

    name = "triest-base"

    def run(self, stream: StreamSource) -> EstimateResult:
        meter = SpaceMeter()
        reservoir = _ReservoirGraph(self.memory, seed=self.seed, variant="base")
        tau = 0
        t = 0

        def on_remove(evicted):
            nonlocal tau
            tau -= reservoir.common_neighbors(*evicted)

        with pass_span("pass1:reservoir", meter):
            for u, v in stream.edges():
                t += 1
                if reservoir.offer(u, v, t, on_remove=on_remove):
                    # count triangles the new edge closes inside the reservoir
                    tau += reservoir.common_neighbors(u, v)
                meter.set("reservoir_edges", len(reservoir.edges))

        m_cap = self.memory
        if t <= m_cap:
            scale = 1.0
        else:
            scale = max(
                1.0,
                (t * (t - 1) * (t - 2)) / (m_cap * (m_cap - 1) * (m_cap - 2)),
            )
        estimate = max(0.0, tau * scale)
        details = {
            "tau": tau,
            "scale": scale,
            "stream_length": t,
            "reservoir_evictions": reservoir.evictions,
        }
        return finish(self.name, estimate, stream.passes_taken, meter, details)


class TriestImpr(_Triest):
    """TRIEST-impr: weighted increments, no decrements."""

    name = "triest-impr"

    def run(self, stream: StreamSource) -> EstimateResult:
        meter = SpaceMeter()
        reservoir = _ReservoirGraph(self.memory, seed=self.seed, variant="impr")
        tau = 0.0
        t = 0
        m_cap = self.memory
        with pass_span("pass1:reservoir", meter):
            for u, v in stream.edges():
                t += 1
                # impr: count before the sampling decision, with weight eta(t)
                eta = max(1.0, ((t - 1) * (t - 2)) / (m_cap * (m_cap - 1)))
                closed = reservoir.common_neighbors(u, v)
                if closed:
                    tau += eta * closed
                reservoir.offer(u, v, t)
                meter.set("reservoir_edges", len(reservoir.edges))
        details = {"stream_length": t, "reservoir_evictions": reservoir.evictions}
        return finish(self.name, max(0.0, tau), stream.passes_taken, meter, details)
