"""Theorem 4.2: two-pass (1+eps)-approximate four-cycle counting in the
adjacency list model via diamonds, using Õ(eps^-5 m / sqrt(T)) space.

A *(u, v)-diamond* of size ``h`` is the complete bipartite graph
between ``{u, v}`` and their ``h`` common neighbors; it holds
``C(h, 2)`` four-cycles, and every four-cycle lies in exactly two
diamonds (one per diagonal).  Instead of counting cycles one by one,
the algorithm estimates, per size class, the *number of diamonds* —
a lower-variance quantity — and converts to cycles via ``C(h, 2)``.

Per size-class boundary ``b`` (levels ``b = s * 2^k`` for each of
``O(1/eps)`` boundary shifts ``s = (1+eps)^j``):

* **Pass 1** samples vertices with probability ``p_v ~ b log^3 n /
  (sqrt(T) eps^2)`` and, on each sampled vertex, samples incident edges
  with probability ``p_e ~ log n / (eps^2 b)``.  Two independent copies
  (``V^1, E^1`` and ``V^2, E^2``) feed the Useful Algorithm's two
  samples.

* **Pass 2** streams adjacency blocks: on block ``(v, N(v))`` and for
  each sampled ``u``, ``a(u, v)`` counts two-paths ``u - w - v`` with
  ``uw`` in the sampled edge set, giving the size estimate ``d_hat =
  a / p_e`` (Lemma 4.1: a (1 +- eps/10) estimate when ``d >= b``).
  Pairs with ``(1 + eps/6) b <= d_hat < 2 (1 - eps/6) b`` become edges
  of the class graph ``H_b`` with weight ``C(d_hat, 2) / C(b, 2)``;
  the Useful Algorithm (Section 3) estimates ``H_b``'s total weight in
  the same pass.

* The per-class estimates are summed within each shift; the *largest*
  shift total is kept (the shift argument guarantees some shift misses
  at most an O(eps) fraction of cycles near class boundaries) and
  halved (each cycle lives in two diamonds).

Practical scaling: ``c`` scales every sampling constant and
``log_power`` selects the power of ``log n`` used (the paper's 3 and 1;
default 1 keeps laptop-scale runs below exact mode).
"""

from __future__ import annotations

import math
from typing import Dict, List, Set

from ..graphs.graph import Vertex
from ..sketches.hashing import KWiseHash
from ..streams.meter import SpaceMeter
from ..streams.models import AdjacencyListStream
from .result import EstimateResult
from .skeleton import check_accuracy, finish, pass_span, require_adjacency
from .useful import UsefulAlgorithm


def _choose2(value: float) -> float:
    """Continuous ``C(value, 2)`` (the size estimates are fractional)."""
    return value * (value - 1) / 2.0


class _ClassInstance:
    """State of one (shift, level) size class: samples + Useful run."""

    def __init__(
        self,
        boundary: float,
        pv: float,
        pe: float,
        epsilon: float,
        t_guess: float,
        seed: int,
    ) -> None:
        self.boundary = boundary
        self.pv = pv
        self.pe = pe
        self.accept_low = (1 + epsilon / 6.0) * boundary
        self.accept_high = 2.0 * (1 - epsilon / 6.0) * boundary
        self.norm = max(_choose2(boundary), 0.5)
        self.m_bound = max(1.0, 2.0 * t_guess / self.norm)
        self.vertex_hashes = [
            KWiseHash(k=2, seed=seed, namespace="diamond.vertex[0]"),
            KWiseHash(k=2, seed=seed, namespace="diamond.vertex[1]"),
        ]
        self.edge_hashes = [
            KWiseHash(k=2, seed=seed, namespace="diamond.edge[0]"),
            KWiseHash(k=2, seed=seed, namespace="diamond.edge[1]"),
        ]
        self.sampled: List[Set[Vertex]] = [set(), set()]  # V^1, V^2
        # inverted index: middle vertex w -> sampled endpoints u with
        # (u, w) in the sampled edge set of u's copy
        self.edge_index: List[Dict[Vertex, List[Vertex]]] = [dict(), dict()]
        self.sampled_edge_count = 0
        self.useful: UsefulAlgorithm | None = None

    # ------------------------------------------------------------------
    def observe_pass1(self, vertex: Vertex, neighbors: List[Vertex]) -> None:
        for copy in (0, 1):
            if not self.vertex_hashes[copy].bernoulli(vertex, self.pv):
                continue
            self.sampled[copy].add(vertex)
            for w in neighbors:
                if self.edge_hashes[copy].bernoulli((vertex, w), self.pe):
                    self.edge_index[copy].setdefault(w, []).append(vertex)
                    self.sampled_edge_count += 1

    def start_pass2(self) -> None:
        self.useful = UsefulAlgorithm(
            r1=self.sampled[0],
            r2=self.sampled[1],
            p=self.pv,
            m_bound=self.m_bound,
        )

    def observe_pass2(self, vertex: Vertex, neighbors: List[Vertex]) -> None:
        """Compute a(u, v) for sampled u, filter, feed the Useful run."""
        if self.useful is None:
            raise RuntimeError("start_pass2() was not called")
        # a(u, v): walk v's list once, credit sampled endpoints via the
        # inverted index.  For u sampled in both copies, copy 1's edge
        # sample is canonical.
        counts0: Dict[Vertex, int] = {}
        counts1: Dict[Vertex, int] = {}
        for w in neighbors:
            for counts, index in (
                (counts0, self.edge_index[0]),
                (counts1, self.edge_index[1]),
            ):
                for u in index.get(w, ()):
                    if u != vertex:
                        counts[u] = counts.get(u, 0) + 1
        weights: Dict[Vertex, float] = {}
        for u in counts0.keys() | counts1.keys():
            if u in self.sampled[0]:
                count = counts0.get(u, 0)
            else:
                count = counts1.get(u, 0)
            d_hat = count / self.pe
            if self.accept_low <= d_hat < self.accept_high:
                weights[u] = _choose2(d_hat) / self.norm
        self.useful.process_vertex(vertex, weights)

    # ------------------------------------------------------------------
    def estimate_cycles(self) -> float:
        """This class's four-cycle estimate ``max(0, W_hat) * norm``."""
        if self.useful is None:
            raise RuntimeError("pass 2 did not run")
        return max(0.0, self.useful.estimate()) * self.norm

    @property
    def space_items(self) -> int:
        useful_items = self.useful.space_items if self.useful is not None else 0
        return self.sampled_edge_count + useful_items


class FourCycleAdjacencyDiamond:
    """Two-pass adjacency-list diamond-counting C4 estimator.

    Args:
        t_guess: the parameter ``T``.
        epsilon: target accuracy; also sets the number of shifts.
        c: global scale on both sampling probabilities.
        seed: seeds all hash functions.
        log_power: power of ``log2 n`` in the vertex-sampling
            probability (paper: 3; practical default: 1).
        num_shifts: ablation override for the number of boundary
            shifts.  The paper uses ``log_{1+eps} 2`` shifts so that
            some shift misses few diamonds near class boundaries;
            forcing ``num_shifts=1`` exposes the boundary-loss the
            shifts exist to repair (see the ablation benchmark).
    """

    name = "mv-fourcycle-diamond"

    def __init__(
        self,
        t_guess: float,
        epsilon: float = 0.2,
        c: float = 1.0,
        seed: int = 0,
        log_power: float = 1.0,
        num_shifts: int = None,
    ) -> None:
        self.t_guess, self.epsilon = check_accuracy(t_guess, epsilon)
        if num_shifts is not None and num_shifts < 1:
            raise ValueError(f"num_shifts must be >= 1, got {num_shifts}")
        self.c = c
        self.seed = seed
        self.log_power = log_power
        self.num_shifts = num_shifts

    # ------------------------------------------------------------------
    def _build_classes(self, n: int) -> List[List[_ClassInstance]]:
        """One list of level instances per shift."""
        eps = self.epsilon
        num_shifts = (
            self.num_shifts
            if self.num_shifts is not None
            else max(1, math.ceil(math.log(2.0) / math.log(1.0 + eps)))
        )
        max_level = max(1, math.ceil(math.log2(n)))
        log_term = max(1.0, math.log2(n)) ** self.log_power
        sqrt_t = math.sqrt(self.t_guess)

        shifts: List[List[_ClassInstance]] = []
        for j in range(num_shifts):
            shift = (1.0 + eps) ** j
            levels: List[_ClassInstance] = []
            for k in range(max_level + 1):
                boundary = shift * (2**k)
                if (1 + eps / 6.0) * boundary > n:  # no diamond can be accepted
                    continue
                pv = min(1.0, self.c * boundary * log_term / (sqrt_t * eps**2))
                pe = min(1.0, self.c * log_term / (eps**2 * boundary))
                levels.append(
                    _ClassInstance(
                        boundary=boundary,
                        pv=pv,
                        pe=pe,
                        epsilon=eps,
                        t_guess=self.t_guess,
                        seed=self.seed * 100_003 + j * 211 + k * 7,
                    )
                )
            shifts.append(levels)
        return shifts

    def run(self, stream: AdjacencyListStream) -> EstimateResult:
        require_adjacency(self, stream)
        n = max(2, stream.num_vertices)
        meter = SpaceMeter()
        shifts = self._build_classes(n)
        all_classes = [inst for levels in shifts for inst in levels]

        # ---- pass 1: draw vertex + edge samples per class -------------
        with pass_span("pass1:sample", meter) as span:
            for vertex, neighbors in stream.adjacency_lists():
                for inst in all_classes:
                    inst.observe_pass1(vertex, neighbors)
            for idx, inst in enumerate(all_classes):
                meter.set(f"class_{idx}", inst.space_items)
            sampled_edges = sum(inst.sampled_edge_count for inst in all_classes)
            span.set("sampled_edges", sampled_edges)

        # ---- pass 2: estimate sizes, feed the Useful runs --------------
        with pass_span("pass2:size-estimate", meter):
            for inst in all_classes:
                inst.start_pass2()
            for vertex, neighbors in stream.adjacency_lists():
                for inst in all_classes:
                    inst.observe_pass2(vertex, neighbors)
            for idx, inst in enumerate(all_classes):
                meter.set(f"class_{idx}", inst.space_items)

        # ---- combine: per-shift totals, keep the max, halve ------------
        with pass_span("post:combine", meter, kind="phase"):
            shift_totals: List[float] = []
            per_class: List[Dict[str, float]] = []
            for j, levels in enumerate(shifts):
                total = 0.0
                for inst in levels:
                    cycles = inst.estimate_cycles()
                    total += cycles
                    per_class.append(
                        {
                            "shift_index": j,
                            "boundary": inst.boundary,
                            "pv": inst.pv,
                            "pe": inst.pe,
                            "cycles": cycles,
                        }
                    )
                shift_totals.append(total)
            best_shift = max(range(len(shift_totals)), key=lambda j: shift_totals[j])

        usefuls = [inst.useful for inst in all_classes]
        details = {
            "shift_totals": shift_totals,
            "best_shift": best_shift,
            "num_classes": len(all_classes),
            "per_class": per_class,
            "sampled_edges": sampled_edges,
            "useful_heavy_vertices": sum(len(u.heavy_vertices) for u in usefuls),
            "useful_heavy_counters": sum(u.heavy_counter_count for u in usefuls),
        }
        estimate = shift_totals[best_shift] / 2.0
        return finish(self.name, estimate, stream.passes_taken, meter, details)
