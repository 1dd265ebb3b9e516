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

Implementation: pass 1 reads the stream through
:meth:`~repro.streams.models.StreamSource.edge_chunks`, hashes each
chunk with one ``bernoulli_array`` per sample, inserts the hits in
stream order and charges the meter once per chunk and category; pass 2
charges its stored cycles once.
:func:`_build_oracles` selects every oracle's ``R1(e), R2(e)`` in one
batch: the tuple keys are folded from member-key columns and hashed
under one function per sample copy.  Each oracle indexes
its members by the endpoint of ``e`` they hang off, so in pass 3 the
H_e-neighbours of a stream edge are one set intersection per sample
copy.  Estimates, details and space accounting equal the
one-oracle-at-a-time scalar path exactly.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..graphs.graph import Edge, Vertex, normalize_edge
from ..sketches.hashing import (
    KWiseHash,
    bernoulli_threshold,
    stable_key_array,
    stable_tuple_keys,
    unit_uniforms,
)
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


def _selection_rates(p: float) -> Tuple[Optional[float], float]:
    """``(q, effective_p)``: how H_e vertices are selected at ``p``.

    Paper mode (``0 < p < 0.5``) draws with the sub-sampling ``q`` of
    :func:`subsample_q`, and each H_e vertex lands in a sample with
    probability ``p (0.4 + q)``.  Direct mode (``q`` is ``None``; the
    dense regime ``p >= 0.5``, outside the paper's ``p < 0.1`` remit)
    selects each candidate H_e vertex with probability 0.4; at ``p == 1``
    the pair events are exactly independent, and the residual
    correlation for ``p`` in (0.5, 1) is at most a factor ``1/p`` on the
    pair probability.
    """
    if 0.0 < p < 0.5:
        q = subsample_q(p)
        return q, p * (0.4 + q)
    return None, 0.4 * min(1.0, p)


# Selected H_e vertices of one sample copy, by the endpoint x of e they
# hang off: {x: {d: g}} with g = (d, x) normalized.
Hanging = Dict[Vertex, Dict[Vertex, Edge]]


class _EdgeOracle:
    """One heavy/light classifier: a Useful run over ``H_e``.

    ``hanging[copy]`` holds the members of ``R1(e)`` (copy 0) or
    ``R2(e)`` (copy 1) by the endpoint of ``e`` they hang off (see
    :func:`_build_oracles`); ``s_adjs`` are the shared samples S1, S2.
    """

    def __init__(
        self,
        edge: Edge,
        hanging: Tuple[Hanging, Hanging],
        s_adjs: Tuple[Dict[Vertex, Set[Vertex]], Dict[Vertex, Set[Vertex]]],
        effective_p: float,
        m_bound: float,
    ) -> None:
        self.edge = edge
        self.effective_p = effective_p
        a, b = edge
        # for f through endpoint w of e: the copies whose members hang
        # off the other endpoint, with the S sample that drew them
        self._facing = {
            w: [(copy[o], s_adj) for copy, s_adj in zip(hanging, s_adjs) if o in copy]
            for w, o in ((a, b), (b, a))
        }
        r1, r2 = (
            [g for by_d in copy.values() for g in by_d.values()] for copy in hanging
        )
        self.useful = UsefulAlgorithm(r1=r1, r2=r2, p=effective_p, m_bound=m_bound)
        self._members = self.useful.r1 | self.useful.r2

    def process_stream_edge(self, f: Edge, shared: Vertex, outer: Vertex) -> None:
        """Pass-3 hook: ``f = {shared, outer}`` meets ``e`` in ``shared`` only.

        ``f`` is a vertex of ``H_e``; its observable H_e-neighbors are
        the selected sample members ``g = (d, opposite)`` hanging off
        the *other* endpoint of ``e``, connected iff the witness edge
        ``(outer, d)`` exists.  That is checkable because ``d``'s full
        adjacency is in the S sample that produced ``g``, so the
        witnesses are the ``d`` hanging off ``opposite`` that are also
        ``outer``'s S-neighbours.  (``d`` is never an endpoint of ``e``,
        and never ``outer``: S holds no self loop.)
        """
        weights: Dict[Edge, float] = {}
        for by_d, s_adj in self._facing[shared]:
            for d in by_d.keys() & s_adj.get(outer, ()):
                weights[by_d[d]] = 1.0
        # an empty call only marks f seen, which matters for members only
        if weights or f in self._members:
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


def _build_oracles(
    edges: Sequence[Edge],
    q_sets: Tuple[Set[Vertex], Set[Vertex]],
    s_adjs: Tuple[Dict[Vertex, Set[Vertex]], Dict[Vertex, Set[Vertex]]],
    p: float,
    m_bound: float,
    seed: int,
) -> List[_EdgeOracle]:
    """One oracle per edge ``e = (a, b)``, with its samples ``R1(e), R2(e)``.

    Sample copy ``c`` selects H_e vertices ``(d, x)``, ``x`` an endpoint
    of ``e``, among the candidates ``d`` in ``Q_c`` that S_c joins to
    ``a`` or ``b``.  All oracles decide with the copy's one function
    ``KWiseHash(2, seed, "threepass.select[c]")``.  Every key holds
    ``e``, so within one oracle the keys are distinct and its decisions
    are pairwise independent, as its Useful run needs:

    * paper mode: a candidate joined to both endpoints takes
      ``choice4((d, e), 0.4, 0.4, q)`` (``(d, a)``, ``(d, b)``, both or
      neither); one joined to a single endpoint ``x`` keeps ``(d, x)``
      iff ``bernoulli((d, e), 0.4 + q)``.
    * direct mode: each present ``(d, x)`` is kept iff
      ``bernoulli((d, x, e), 0.4)``.

    All oracles' candidates are decided at once: the tuple keys are
    folded from member-key columns and hashed with one ``values_array``
    call, and the decisions apply the scalar methods' exact rules (the
    integer Bernoulli threshold; unit uniforms against ``0.4``,
    ``0.4 + 0.4`` and ``0.4 + 0.4 + q``).
    """
    if not edges:
        return []
    q, effective_p = _selection_rates(p)
    hangings: List[Tuple[Hanging, Hanging]] = [({}, {}) for _ in edges]
    endpoint_keys = np.stack(
        [stable_key_array([e[0] for e in edges]), stable_key_array([e[1] for e in edges])],
        axis=1,
    )
    edge_keys = stable_tuple_keys([endpoint_keys[:, 0], endpoint_keys[:, 1]])
    for copy in (0, 1):
        q_set, s_adj = q_sets[copy], s_adjs[copy]
        near: Dict[Vertex, Set[Vertex]] = {}  # memo: Q-filtered S-neighbours

        def near_of(x: Vertex) -> Set[Vertex]:
            found = near.get(x)
            if found is None:
                found = near[x] = {d for d in s_adj.get(x, ()) if d in q_set}
            return found

        # one entry per candidate: its oracle, d, and the endpoints of e
        # that S joins d to (bit 1 = a, bit 2 = b)
        owners: List[int] = []
        ds: List[Vertex] = []
        joined: List[int] = []
        for i, (a, b) in enumerate(edges):
            near_a, near_b = near_of(a), near_of(b)
            for d in near_a:
                if d != b:
                    owners.append(i)
                    ds.append(d)
                    joined.append(3 if d in near_b else 1)
            for d in near_b:
                if d != a and d not in near_a:
                    owners.append(i)
                    ds.append(d)
                    joined.append(2)
        if not owners:
            continue
        select = KWiseHash(2, seed, f"threepass.select[{copy}]")
        owner = np.array(owners, dtype=np.intp)
        to = np.array(joined, dtype=np.int64)
        d_keys = stable_key_array(ds)
        # kept[side]: the candidates whose (d, endpoint side of e) is selected
        if q is None:
            kept = []
            for side in (0, 1):
                rows = np.flatnonzero(to & (1 << side))
                keys = stable_tuple_keys(
                    [d_keys[rows], endpoint_keys[owner[rows], side], edge_keys[owner[rows]]]
                )
                kept.append(rows[select.values_array(keys) < bernoulli_threshold(0.4)])
        else:
            values = select.values_array(stable_tuple_keys([d_keys, edge_keys[owner]]))
            # joined to both: choice4 gives 0 (a), 1 (b), 2 (both) or 3 (neither)
            choice = np.searchsorted(
                [0.4, 0.4 + 0.4, 0.4 + 0.4 + q], unit_uniforms(values), side="right"
            )
            # joined to one: bernoulli at 0.4 + q
            single = values < bernoulli_threshold(0.4 + q)
            kept = [
                np.flatnonzero(
                    np.where(to == 3, (choice == side) | (choice == 2), single & (to == 1 << side))
                )
                for side in (0, 1)
            ]
        for side, rows in enumerate(kept):
            for r in rows.tolist():
                i, d = owners[r], ds[r]
                x = edges[i][side]
                hangings[i][copy].setdefault(x, {})[d] = normalize_edge(d, x)
    return [
        _EdgeOracle(e, hanging, s_adjs, effective_p, m_bound)
        for e, hanging in zip(edges, hangings)
    ]


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
            for chunk in stream.edge_chunks():
                in_s0 = edge_hash.bernoulli_array(
                    stable_key_array([normalize_edge(u, v) for u, v in chunk]), p
                )
                u_keys = stable_key_array([u for u, _ in chunk])
                v_keys = stable_key_array([v for _, v in chunk])
                in_q = [
                    (q_hash.bernoulli_array(u_keys, p), q_hash.bernoulli_array(v_keys, p))
                    for q_hash in (q1_hash, q2_hash)
                ]
                in_s = [u_in | v_in for u_in, v_in in in_q]
                # insert in stream order
                for j in np.flatnonzero(in_s0).tolist():
                    u, v = chunk[j]
                    s0_adj.setdefault(u, set()).add(v)
                    s0_adj.setdefault(v, set()).add(u)
                for q_set, s_adj, (u_in, v_in), hits in zip(q_sets, s_adjs, in_q, in_s):
                    q_set.update(chunk[j][0] for j in np.flatnonzero(u_in).tolist())
                    q_set.update(chunk[j][1] for j in np.flatnonzero(v_in).tolist())
                    for j in np.flatnonzero(hits).tolist():
                        u, v = chunk[j]
                        s_adj.setdefault(u, set()).add(v)
                        s_adj.setdefault(v, set()).add(u)
                # one charge per category, in order of first occurrence:
                # every add is +1, so peaks and timeline ignore the order
                s0_count = np.count_nonzero(in_s0)
                s_count = np.count_nonzero(in_s[0]) + np.count_nonzero(in_s[1])
                charges = [("S0_edges", s0_count), ("S1_S2_edges", s_count)]
                if s0_count and s_count and np.argmax(in_s0) > np.argmax(in_s[0] | in_s[1]):
                    charges.reverse()
                for category, count in charges:
                    meter.add_units(category, int(count))

        # ---- pass 2: store cycles completed by three S0 edges --------
        stored: List[Tuple[Edge, Cycle]] = []
        with pass_span("pass2:store-cycles", meter) as span:
            for a, b in stream.edges():
                for cycle in self._completions(s0_adj, a, b):
                    stored.append(((a, b), cycle))
            meter.add_units("stored_cycles", len(stored))
            span.set("stored_cycles", len(stored))

        # ---- pass 3: classify every involved edge --------------------
        eta_sqrt_t = self.eta * math.sqrt(self.t_guess)
        # every edge of a stored cycle, ordered by repr, so no output
        # follows set-iteration order (which for str vertices changes
        # with PYTHONHASHSEED)
        oracle_edges = sorted(
            {
                e
                for _, (a, b, c_v, d_v) in stored
                for e in (
                    normalize_edge(a, b),
                    normalize_edge(b, c_v),
                    normalize_edge(c_v, d_v),
                    normalize_edge(d_v, a),
                )
            },
            key=repr,
        )
        oracles = _build_oracles(oracle_edges, q_sets, s_adjs, p, eta_sqrt_t, self.seed)
        edge_index: Dict[Vertex, List[_EdgeOracle]] = {}
        for oracle in oracles:
            for w in oracle.edge:
                edge_index.setdefault(w, []).append(oracle)

        # always taken, even with no stored cycle: Theorem 5.3 spends
        # three passes whatever the sample holds
        with pass_span("pass3:classify", meter) as span:
            for u, v in stream.edges():
                f = normalize_edge(u, v)
                # an oracle found through endpoint w of f meets f in w
                # alone, unless it is f's own
                for shared, outer in ((u, v), (v, u)):
                    for oracle in edge_index.get(shared, ()):
                        if oracle.edge != f:
                            oracle.process_stream_edge(f, shared, outer)
            for oracle in oracles:
                meter.add("oracle_counters", oracle.space_items)
            span.set("num_oracles", len(oracles))

        heavy: Dict[Edge, bool] = {
            oracle.edge: oracle.classify(eta_sqrt_t) for oracle in oracles
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

        usefuls = [oracle.useful for oracle in oracles]
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
