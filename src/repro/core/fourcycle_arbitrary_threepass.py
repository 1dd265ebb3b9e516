"""Theorem 5.3: three-pass (1+eps)-approximate four-cycle counting in
the arbitrary order model, using Õ(m / T^{1/4}) space.

Structure (paper Section 5.1):

* **Pass 1** draws, with ``p ~ log n / (eps^2 T^{1/4})``:
  an edge sample ``S0``; a vertex sample ``Q1`` with all incident edges
  ``S1``; and an independent ``Q2 / S2``.

* **Pass 2** stores, for every stream edge ``e``, each four-cycle
  ``tau`` that ``e`` completes with three edges of ``S0`` (expected
  ``~ 4 T p^3`` stored pairs).

* **Pass 3** classifies every edge of every stored cycle as heavy
  (in at least ``~ eta * sqrt(T)`` four-cycles) or light, using one
  *Useful Algorithm* run per edge ``e`` over the derived graph ``H_e``:
  vertices of ``H_e`` are the edges of ``G`` adjacent to ``e``, and
  edges of ``H_e`` are the four-cycles through ``e``.  The Useful
  samples ``R1(e), R2(e)`` are carved out of ``Q1/S1`` and ``Q2/S2``
  with the paper's ``f/g`` sub-sampling hashes, which restore
  per-H_e-vertex independence even though a single sampled vertex of
  ``G`` can contribute up to two H_e vertices (Section 5.1's ``q``
  satisfying ``(p(0.4+q))^2 = pq``).

* The estimate is ``A0 / (4 p^3) + A1 / p^3`` where ``A0`` counts
  stored pairs whose cycle is all-light and ``A1`` those with heavy
  ``e`` and three light companions.  Cycles with two or more heavy
  edges are dropped; Lemma 5.1 bounds them by ``82 T / eta``.

The parameter ``eta`` trades accuracy (the ``164/eta`` loss) against
the variance control that heavy-edge removal buys; the paper treats it
as a large constant.
"""

from __future__ import annotations

import math
from typing import Dict, List, Set, Tuple

from ..graphs.graph import Edge, Vertex, normalize_edge
from ..sketches.hashing import KWiseHash
from ..streams.meter import SpaceMeter
from ..streams.models import StreamSource
from .result import EstimateResult
from .skeleton import check_accuracy, finish, pass_span
from .useful import UsefulAlgorithm

Cycle = Tuple[Vertex, Vertex, Vertex, Vertex]  # (a, b, c, d) in cycle order


def subsample_q(p: float) -> float:
    """The paper's ``q``: the smaller root of ``p (0.4 + q)^2 = q``.

    Ensures that including an H_e vertex ``(d, x)`` with probability
    ``0.4 + q`` (given ``d`` sampled, both of ``d``'s candidate edges
    present) makes the pair of H_e vertices at ``d`` behave like two
    independent ``p (0.4 + q)`` draws.  Valid (``q <= 0.2``) for
    ``p <~ 0.55``; the caller falls back to direct selection above that.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"q is defined for p in (0, 1), got {p}")
    a, b, c = p, 0.8 * p - 1.0, 0.16 * p
    disc = b * b - 4 * a * c
    if disc < 0:
        raise ValueError(f"no real q for p={p}")
    return (-b - math.sqrt(disc)) / (2 * a)


class _EdgeOracle:
    """One heavy/light classifier: a Useful run over ``H_e``."""

    def __init__(
        self,
        edge: Edge,
        q1: Set[Vertex],
        q2: Set[Vertex],
        s1_adj: Dict[Vertex, Set[Vertex]],
        s2_adj: Dict[Vertex, Set[Vertex]],
        p: float,
        m_bound: float,
        seed: int,
    ) -> None:
        self.edge = edge
        self._s_adj = (s1_adj, s2_adj)
        self._select_hash = [
            KWiseHash(k=2, seed=seed, namespace="threepass.select[0]"),
            KWiseHash(k=2, seed=seed, namespace="threepass.select[1]"),
        ]
        if 0.0 < p < 0.5:
            q = subsample_q(p)
            self._mode = "paper"
            self._include_both_prob = q
            effective_p = p * (0.4 + q)
        else:
            # dense regime (p >= 0.5, outside the paper's p < 0.1 remit):
            # select each candidate H_e vertex with probability 0.4; at
            # p == 1 the pair events are exactly independent, and the
            # residual correlation for p in (0.5, 1) is at most a factor
            # 1/p on the pair probability.
            self._mode = "direct"
            self._include_both_prob = 0.0
            effective_p = 0.4 * min(1.0, p)
        self.effective_p = effective_p
        # build R1(e), R2(e): H_e vertices selected from each sample
        self._r = [
            self._build_sample(copy, q1 if copy == 0 else q2)
            for copy in (0, 1)
        ]
        self.useful = UsefulAlgorithm(
            r1=self._r[0], r2=self._r[1], p=effective_p, m_bound=m_bound
        )

    # ------------------------------------------------------------------
    def _build_sample(self, copy: int, q_set: Set[Vertex]) -> Set[Edge]:
        """Select H_e vertices ``(d, x)`` with ``d`` in the Q sample."""
        a, b = self.edge
        selected: Set[Edge] = set()
        adj = self._s_adj[copy]
        candidates: Set[Vertex] = set()
        for x in (a, b):
            candidates.update(d for d in adj.get(x, ()) if d in q_set)
        candidates.discard(a)
        candidates.discard(b)
        hash_fn = self._select_hash[copy]
        for d in candidates:
            has_to_a = a in adj.get(d, ())
            has_to_b = b in adj.get(d, ())
            edges_present = [x for x, has in ((a, has_to_a), (b, has_to_b)) if has]
            if not edges_present:
                continue
            if self._mode == "direct":
                for x in edges_present:
                    if hash_fn.bernoulli((d, x, self.edge), 0.4):
                        selected.add(normalize_edge(d, x))
                continue
            q = self._include_both_prob
            if len(edges_present) == 2:
                choice = hash_fn.choice4((d, self.edge), 0.4, 0.4, q)
                if choice in (0, 2):
                    selected.add(normalize_edge(d, edges_present[0]))
                if choice in (1, 2):
                    selected.add(normalize_edge(d, edges_present[1]))
            else:
                if hash_fn.bernoulli((d, self.edge), 0.4 + q):
                    selected.add(normalize_edge(d, edges_present[0]))
        return selected

    # ------------------------------------------------------------------
    def process_stream_edge(self, f: Edge) -> None:
        """Pass-3 hook: ``f`` shares exactly one endpoint with ``e``.

        ``f`` is a vertex of ``H_e``; its observable H_e-neighbors are
        the selected sample members ``g = (d, opposite)`` hanging off
        the *other* endpoint of ``e``, connected iff the witness edge
        between the outer endpoints exists (checkable because ``d``'s
        full adjacency is in the S sample that produced ``g``).
        """
        a, b = self.edge
        fu, fv = f
        if fu in (a, b):
            shared, outer = fu, fv
        else:
            shared, outer = fv, fu
        opposite = b if shared == a else a
        weights: Dict[Edge, float] = {}
        for copy in (0, 1):
            adj = self._s_adj[copy]
            for g in self._r[copy]:
                gu, gv = g
                if opposite == gu:
                    d = gv
                elif opposite == gv:
                    d = gu
                else:
                    continue  # g hangs off the same endpoint as f
                if d in (a, b, outer, shared) or outer in (opposite, d):
                    continue
                # witness edge (outer, d): d's adjacency is complete in S
                if outer in adj.get(d, ()):
                    weights[g] = 1.0
        self.useful.process_vertex(f, weights)

    def classify(self, eta_sqrt_t: float) -> bool:
        """True iff heavy: the Useful estimate reaches ``eta sqrt(T)``."""
        return self.useful.estimate() >= eta_sqrt_t

    @property
    def space_items(self) -> int:
        """Only the oracle's *extra* words: its heavy counters and O(1)
        globals.  The samples it reads (S1, S2) are shared across all
        oracles and metered once by the caller, matching the paper's
        space accounting."""
        return self.useful.heavy_counter_count + 3


class FourCycleArbitraryThreePass:
    """The three-pass arbitrary-order C4 counter.

    Args:
        t_guess: the parameter ``T``.
        epsilon: target accuracy (drives the sampling probability).
        eta: the heavy-edge threshold multiplier (paper: a large
            constant; the accuracy guarantee is ``1 - 164/eta - eps``).
        c: scale on the sampling probability.
        seed: seeds all hashes.
        use_log_factor: include ``log n`` in the sampling probability.
    """

    name = "mv-fourcycle-threepass"

    def __init__(
        self,
        t_guess: float,
        epsilon: float = 0.2,
        eta: float = 8.0,
        c: float = 1.0,
        seed: int = 0,
        use_log_factor: bool = True,
    ) -> None:
        self.t_guess, self.epsilon = check_accuracy(t_guess, epsilon)
        if eta <= 0:
            raise ValueError(f"eta must be positive, got {eta}")
        self.eta = eta
        self.c = c
        self.seed = seed
        self.use_log_factor = use_log_factor

    # ------------------------------------------------------------------
    def run(self, stream: StreamSource) -> EstimateResult:
        n = max(2, stream.num_vertices)
        meter = SpaceMeter()
        log_factor = math.log2(n) if self.use_log_factor else 1.0
        p = min(
            1.0,
            self.c * log_factor / (self.epsilon**2 * self.t_guess**0.25),
        )

        edge_hash = KWiseHash(k=2, seed=self.seed, namespace="threepass.edge")
        q1_hash = KWiseHash(k=2, seed=self.seed, namespace="threepass.q1")
        q2_hash = KWiseHash(k=2, seed=self.seed, namespace="threepass.q2")

        # ---- pass 1: draw S0, Q1/S1, Q2/S2 ---------------------------
        s0_adj: Dict[Vertex, Set[Vertex]] = {}
        q_sets: Tuple[Set[Vertex], Set[Vertex]] = (set(), set())
        s_adjs: Tuple[Dict[Vertex, Set[Vertex]], Dict[Vertex, Set[Vertex]]] = (
            {},
            {},
        )
        with pass_span("pass1:sample", meter):
            for u, v in stream.edges():
                edge = normalize_edge(u, v)
                if edge_hash.bernoulli(edge, p):
                    s0_adj.setdefault(u, set()).add(v)
                    s0_adj.setdefault(v, set()).add(u)
                    meter.add("S0_edges")
                for q_set, s_adj, q_hash in (
                    (q_sets[0], s_adjs[0], q1_hash),
                    (q_sets[1], s_adjs[1], q2_hash),
                ):
                    hit = False
                    for w in (u, v):
                        if q_hash.bernoulli(w, p):
                            q_set.add(w)
                            hit = True
                    if hit:
                        s_adj.setdefault(u, set()).add(v)
                        s_adj.setdefault(v, set()).add(u)
                        meter.add("S1_S2_edges")

        # ---- pass 2: store cycles completed by three S0 edges --------
        stored: List[Tuple[Edge, Cycle]] = []
        with pass_span("pass2:store-cycles", meter) as span:
            for a, b in stream.edges():
                for cycle in self._completions(s0_adj, a, b):
                    stored.append(((a, b), cycle))
                    meter.add("stored_cycles")
            span.set("stored_cycles", len(stored))

        # ---- pass 3: classify every involved edge --------------------
        eta_sqrt_t = self.eta * math.sqrt(self.t_guess)
        oracles: Dict[Edge, _EdgeOracle] = {}
        edge_index: Dict[Vertex, List[_EdgeOracle]] = {}
        for _, (a, b, c_v, d_v) in stored:
            for e in (
                normalize_edge(a, b),
                normalize_edge(b, c_v),
                normalize_edge(c_v, d_v),
                normalize_edge(d_v, a),
            ):
                if e in oracles:
                    continue
                oracle = _EdgeOracle(
                    edge=e,
                    q1=q_sets[0],
                    q2=q_sets[1],
                    s1_adj=s_adjs[0],
                    s2_adj=s_adjs[1],
                    p=p,
                    m_bound=eta_sqrt_t,
                    seed=self.seed * 100_003 + len(oracles),
                )
                oracles[e] = oracle
                for w in e:
                    edge_index.setdefault(w, []).append(oracle)

        # always taken, even with no stored cycle: Theorem 5.3 spends
        # three passes whatever the sample holds
        with pass_span("pass3:classify", meter) as span:
            for u, v in stream.edges():
                f = normalize_edge(u, v)
                seen: Set[Edge] = set()
                for w in (u, v):
                    for oracle in edge_index.get(w, ()):
                        if oracle.edge == f or oracle.edge in seen:
                            continue
                        seen.add(oracle.edge)
                        # f must share exactly one endpoint with e
                        a, b = oracle.edge
                        shared = (u in (a, b)) + (v in (a, b))
                        if shared == 1:
                            oracle.process_stream_edge(f)
            for oracle in oracles.values():
                meter.add("oracle_counters", oracle.space_items)
            span.set("num_oracles", len(oracles))

        heavy: Dict[Edge, bool] = {
            e: oracle.classify(eta_sqrt_t) for e, oracle in oracles.items()
        }

        # ---- combine --------------------------------------------------
        a0 = 0
        a1 = 0
        for e_raw, (a, b, c_v, d_v) in stored:
            e = normalize_edge(*e_raw)
            cycle_edges = [
                normalize_edge(a, b),
                normalize_edge(b, c_v),
                normalize_edge(c_v, d_v),
                normalize_edge(d_v, a),
            ]
            others = [g for g in cycle_edges if g != e]
            e_heavy = heavy.get(e, False)
            others_heavy = sum(1 for g in others if heavy.get(g, False))
            if not e_heavy and others_heavy == 0:
                a0 += 1
            elif e_heavy and others_heavy == 0:
                a1 += 1
        estimate = a0 / (4.0 * p**3) + a1 / (p**3)

        usefuls = [oracle.useful for oracle in oracles.values()]
        details = {
            "p": p,
            "eta_sqrt_t": eta_sqrt_t,
            "stored_pairs": len(stored),
            "a0": a0,
            "a1": a1,
            "num_oracles": len(oracles),
            "num_heavy_edges": sum(heavy.values()),
            "useful_heavy_vertices": sum(len(u.heavy_vertices) for u in usefuls),
            "useful_heavy_counters": sum(u.heavy_counter_count for u in usefuls),
        }
        return finish(self.name, estimate, stream.passes_taken, meter, details)

    # ------------------------------------------------------------------
    @staticmethod
    def _completions(
        s0_adj: Dict[Vertex, Set[Vertex]], a: Vertex, b: Vertex
    ) -> List[Cycle]:
        """All cycles ``a-b-c-d`` whose other three edges are in S0."""
        cycles: List[Cycle] = []
        neighbors_b = s0_adj.get(b)
        neighbors_a = s0_adj.get(a)
        if not neighbors_b or not neighbors_a:
            return cycles
        for c in neighbors_b:
            if c == a:
                continue
            c_neighbors = s0_adj.get(c, set())
            for d in neighbors_a:
                if d == b or d == c or d == a:
                    continue
                if d in c_neighbors:
                    cycles.append((a, b, c, d))
        return cycles
