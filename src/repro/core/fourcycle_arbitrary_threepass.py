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

Implementation: every pass reads
:meth:`~repro.streams.models.StreamSource.edge_chunks`, and every sample
is held over vertex ids.  Pass 1 hashes each chunk with one
``bernoulli_array`` per sample, numbers the endpoints of the S0, S1 and
S2 hits as it stores them (one dict) and charges the meter once per
chunk and category; S0, S1, S2 and the joins to Q1, Q2 become sorted
directed key arrays (CSR, flattened).  Passes 2 and 3 read each chunk
as ids, a vertex no sample holds as a sentinel id (:func:`_chunk_ids`).
:func:`_store_cycles` joins each pass-2 chunk with S0 into ``(k, 4)``
cycle rows, whose edges become the oracles, ordered by the ``repr`` of
their label edges.  :func:`_select` selects every oracle's ``R1(e),
R2(e)`` in one batch, hashing the labels under one function per sample
copy, and :func:`_count_oracles` runs every oracle's Useful quantities
together, per pass-3 chunk, as integer counts over array joins.
Estimates, details and space accounting equal one float-weighted
Useful run per oracle exactly
(``tests/core/test_a6_reference.py`` keeps that path as the reference).
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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


# A row per selected H_e vertex g = (d, x): the oracle i of e, the sample
# copy c (0 selects R1(e), 1 selects R2(e)), d's vertex id, and the side
# (0 or 1) of the endpoint x = e[side] that g hangs off.
Rows = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
INF = np.iinfo(np.int64).max
_NO_PAIRS = np.zeros((0, 2), dtype=np.int64)
_NO_IDS = np.zeros(0, dtype=np.int64)


def _contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which ``keys`` occur in ``sorted_keys`` (ending in an ``INF`` sentinel)."""
    return sorted_keys[np.searchsorted(sorted_keys, keys)] == keys


def _gather(ptr: np.ndarray, xs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The CSR rows ``xs`` flattened: ``(which, at)``, ``which`` indexing ``xs``
    and ``at`` the positions ``ptr[x] .. ptr[x + 1] - 1`` of each row."""
    counts = ptr[xs + 1] - ptr[xs]
    which = np.repeat(np.arange(len(xs)), counts)
    return which, np.arange(len(which)) + np.repeat(ptr[xs] - np.cumsum(counts) + counts, counts)


def _adjacency(pairs: np.ndarray, size: int) -> np.ndarray:
    """Sorted directed keys ``u * size + v`` of the edges ``pairs``, both
    directions, each once: the CSR of their adjacency, flattened."""
    keys = np.concatenate([pairs[:, 0] * size + pairs[:, 1], pairs[:, 1] * size + pairs[:, 0]])
    return np.unique(keys)


def _chunk_ids(chunk: Sequence[Edge], ids: Dict[Vertex, int]) -> Tuple[np.ndarray, np.ndarray]:
    """The endpoint ids ``(u, v)`` of a chunk's tokens; a vertex no sample
    holds gets the id ``len(ids)``, which no key uses."""
    flat = np.fromiter(map(ids.get, chain.from_iterable(chunk), repeat(len(ids))), np.int64)
    return flat[0::2], flat[1::2]


def _store_cycles(
    chunks: Iterable[Sequence[Edge]], s0: np.ndarray, ids: Dict[Vertex, int]
) -> np.ndarray:
    """Pass 2: every four-cycle ``a-b-c-d`` that a stream token ``(a, b)``
    completes with three edges of S0, as rows ``(a, b, c, d)`` of ids.

    ``s0`` holds S0 as sorted directed keys ``u * size + v`` (``size =
    len(ids) + 1``, an ``INF`` sentinel last).  Per chunk, ``c`` runs over
    ``N0(b) - {a}`` and ``d`` over ``N0(a) - {b}`` with ``(c, d)`` in S0,
    which also rules out ``d = c`` (S0 has no self loop).  Every token
    stores its own rows, so a repeated token's cycles are stored again.
    """
    size = len(ids) + 1
    ptr = np.searchsorted(s0, np.arange(size + 1) * size)
    stored = [np.zeros((0, 4), dtype=np.int64)]
    for chunk in chunks:
        a, b = _chunk_ids(chunk, ids)
        token, at = _gather(ptr, b)
        c = s0[at] % size
        keep = c != a[token]
        token, c = token[keep], c[keep]
        wedge, at = _gather(ptr, a[token])
        token, c, d = token[wedge], c[wedge], s0[at] % size
        keep = (d != b[token]) & _contains(s0, c * size + d)
        token, c, d = token[keep], c[keep], d[keep]
        stored.append(np.stack([a[token], b[token], c, d], axis=1))
    return np.concatenate(stored)


def _select(
    ends: np.ndarray,
    keys: np.ndarray,
    near: Sequence[np.ndarray],
    p: float,
    seed: int,
) -> Rows:
    """The rows of every oracle's ``R1(e), R2(e)``; oracle ``i`` has the
    edge ``e = (a, b)`` with vertex ids ``ends[i]``.

    Sample copy ``c`` selects H_e vertices ``(d, x)``, ``x`` an endpoint
    of ``e``, among the candidates ``d`` in ``Q_c`` that S_c joins to
    ``a`` or ``b``; ``near[c]`` holds those joins as sorted directed keys
    ``x * size + d`` (``size = len(keys) + 1``, an ``INF`` sentinel last).
    All oracles decide with the copy's one function
    ``KWiseHash(2, seed, "threepass.select[c]")`` over keys of the
    original labels (``keys`` holds each vertex id's stable key).  Every
    key holds ``e``, so within one oracle the keys are distinct and its
    decisions are pairwise independent, as its Useful run needs:

    * paper mode: a candidate joined to both endpoints takes
      ``choice4((d, e), 0.4, 0.4, q)`` (``(d, a)``, ``(d, b)``, both or
      neither); one joined to a single endpoint ``x`` keeps ``(d, x)``
      iff ``bernoulli((d, e), 0.4 + q)``.
    * direct mode: each present ``(d, x)`` is kept iff
      ``bernoulli((d, x, e), 0.4)``.

    The tuple keys are folded from member-key columns and hashed with one
    ``values_array`` call per copy, and the decisions apply the scalar
    methods' exact rules (the integer Bernoulli threshold; unit uniforms
    against ``0.4``, ``0.4 + 0.4`` and ``0.4 + 0.4 + q``).
    """
    q, _ = _selection_rates(p)
    size = len(keys) + 1
    endpoint_keys = keys[ends]
    edge_keys = stable_tuple_keys([endpoint_keys[:, 0], endpoint_keys[:, 1]])
    rows = [(_NO_IDS,) * 4]
    for copy in (0, 1):
        ptr = np.searchsorted(near[copy], np.arange(size + 1) * size)
        # the candidates: each oracle's d joined to a (bit 1), then those
        # joined to b alone (bit 2); bit 1 + 2 marks d joined to both
        owners, ds, joined = [], [], []
        for side in (0, 1):
            x, other = ends[:, side], ends[:, 1 - side]
            owner, at = _gather(ptr, x)
            d = near[copy][at] % size
            both = _contains(near[copy], other[owner] * size + d)
            keep = d != other[owner]
            if side:  # a d also joined to a is a candidate through a already
                keep &= ~both
            owners.append(owner[keep])
            ds.append(d[keep])
            joined.append(np.where(both[keep], 3, 1 << side))
        owner, d, to = (np.concatenate(column) for column in (owners, ds, joined))
        if not len(owner):
            continue
        select = KWiseHash(2, seed, f"threepass.select[{copy}]")
        d_keys = keys[d]
        # kept[side]: the candidates whose (d, endpoint side of e) is selected
        if q is None:
            kept = []
            for side in (0, 1):
                at = np.flatnonzero(to & (1 << side))
                folded = stable_tuple_keys(
                    [d_keys[at], endpoint_keys[owner[at], side], edge_keys[owner[at]]]
                )
                kept.append(at[select.values_array(folded) < bernoulli_threshold(0.4)])
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
        for side, at in enumerate(kept):
            rows.append((owner[at], np.full(len(at), copy), d[at], np.full(len(at), side)))
    oracle, copy_of, d_of, side_of = (np.concatenate(column) for column in zip(*rows))
    return oracle, copy_of, d_of, side_of


def _count_oracles(
    stream: StreamSource,
    ends: np.ndarray,
    rows: Rows,
    ids: Dict[Vertex, int],
    witness: np.ndarray,
    effective_p: float,
    m_bound: float,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Pass 3: every oracle's Useful run (Lemma 3.1) as integer counts.

    An observation is a pair ``(f, g)``: the stream token ``f`` meets
    oracle ``i``'s ``e`` in one endpoint, ``g = (d, x)`` is a member of
    ``R1(e) | R2(e)`` hanging off the other one, and the witness
    ``(outer(f), d)`` is in ``S_c`` for a copy ``c`` that selected ``g``;
    ``witness`` holds S1 and S2 as sorted keys ``(c * size + u) * size +
    v``.  A ``g`` in both samples counts once per ``f``, in both roles.
    ``g`` is seen iff its first stream position precedes ``f``'s; a token
    endpoint no sample holds has the sentinel id ``size - 1``
    (:func:`_chunk_ids`), so it matches no ``g``, row or witness.  Per
    oracle: ``A`` counts seen R2 observations; ``f`` is heavy iff its
    unseen R1 observations reach ``p sqrt(M)``, and then adds its unseen
    R2 observations to ``AH``; an R2 member heavy on arrival opens a
    counter ``a(g)`` of the observations after that arrival.

    Returns each oracle's estimate ``(A - sum a + AH) / p``, its number
    of counters and the number of distinct heavy ``(oracle, f)``.  All
    sums are integers below 2^53, so the floats equal a float-weighted
    Useful run's exactly.
    """
    num, size = len(ends), len(ids) + 1
    oracle, copy, d, side = rows
    member_keys, member = np.unique((oracle * size + d) * 2 + side, return_inverse=True)
    members = len(member_keys)
    m_oracle = member_keys // (2 * size)
    m_d, m_x = member_keys // 2 % size, ends[m_oracle, member_keys % 2]
    roles = np.zeros((2, members), dtype=bool)  # in R1(e), in R2(e)
    roles[copy, member] = True
    g_keys, m_g = np.unique(np.minimum(m_d, m_x) * size + np.maximum(m_d, m_x), return_inverse=True)
    g_keys, member_keys = np.append(g_keys, INF), np.append(member_keys, INF)
    first = np.full(len(g_keys), INF)  # each g's first stream position
    opened = np.full(members, INF)  # where an R2 member's counter opened
    # rows by the endpoint of e they face: the one g does not hang off
    x, facing = ends[oracle, side], ends[oracle, 1 - side]
    by_facing = np.argsort(facing, kind="stable")
    row_ptr = np.searchsorted(facing[by_facing], np.arange(size + 1))
    a_seen, a_heavy = np.zeros(num, dtype=np.int64), np.zeros(num, dtype=np.int64)
    counted = np.zeros(members, dtype=np.int64)
    heavy_vertices = [_NO_PAIRS]  # (oracle, key of f) of every heavy f
    threshold = effective_p * math.sqrt(m_bound)
    position = 0
    for chunk in stream.edge_chunks():
        u, v = _chunk_ids(chunk, ids)
        when = position + np.arange(len(chunk))
        position += len(chunk)
        f_keys = np.minimum(u, v) * size + np.maximum(u, v)
        at = np.searchsorted(g_keys, f_keys)
        hit = g_keys[at] == f_keys
        np.minimum.at(first, at[hit], when[hit])
        # half tokens: f = (shared, outer) meets the e of the rows facing shared
        shared, outer = np.concatenate([u, v]), np.concatenate([v, u])
        when, f_keys = np.concatenate([when, when]), np.concatenate([f_keys, f_keys])
        half, at = _gather(row_ptr, shared)
        r = by_facing[at]
        hit = (outer[half] != x[r]) & _contains(
            witness, (copy[r] * size + outer[half]) * size + d[r]
        )
        pairs = np.unique(half[hit] * members + member[r[hit]])
        half, m = pairs // members, pairs % members
        i, seen = m_oracle[m], first[m_g[m]] < when[half]
        r1, r2 = roles[0, m], roles[1, m]
        units, unit = np.unique(half * num + i, return_inverse=True)
        heavy = np.bincount(unit[r1 & ~seen], minlength=len(units)) >= threshold
        a_seen += np.bincount(i[r2 & seen], minlength=num)
        a_heavy += np.bincount(i[r2 & ~seen & heavy[unit]], minlength=num)
        h_half, h_i = units[heavy] // num, units[heavy] % num
        heavy_vertices.append(np.stack([h_i, f_keys[h_half]], axis=1))
        # a heavy f that is an R2 member of its own oracle opens its counter
        f_member = (h_i * size + outer[h_half]) * 2 + (ends[h_i, 1] == shared[h_half])
        at = np.searchsorted(member_keys, f_member)
        found = member_keys[at] == f_member
        at, h_half = at[found], h_half[found]
        np.minimum.at(opened, at[roles[1, at]], when[h_half[roles[1, at]]])
        counted += np.bincount(m[when[half] > opened[m]], minlength=members)
    a_counters = np.bincount(m_oracle, weights=counted, minlength=num)
    estimates = (a_seen - a_counters + a_heavy) / effective_p
    counters = np.bincount(m_oracle[opened < INF], minlength=num)
    return estimates, counters, len(np.unique(np.concatenate(heavy_vertices), axis=0))


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
        # the samples over vertex ids, numbered as they are stored
        ids: Dict[Vertex, int] = {}
        s0_pairs: List[np.ndarray] = [_NO_PAIRS]
        s_pairs: Tuple[List[np.ndarray], List[np.ndarray]] = ([_NO_PAIRS], [_NO_PAIRS])
        q_ids: Tuple[List[np.ndarray], List[np.ndarray]] = ([], [])
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
                kept = np.flatnonzero(in_s0 | in_s[0] | in_s[1])
                pairs = np.array(
                    [
                        (ids.setdefault(u, len(ids)), ids.setdefault(v, len(ids)))
                        for u, v in [chunk[j] for j in kept.tolist()]
                    ],
                    dtype=np.int64,
                ).reshape(-1, 2)
                s0_pairs.append(pairs[in_s0[kept]])
                for copy, ((u_in, v_in), hits) in enumerate(zip(in_q, in_s)):
                    s_pairs[copy].append(pairs[hits[kept]])
                    q_ids[copy].extend([pairs[u_in[kept], 0], pairs[v_in[kept], 1]])
                # one charge per category, in order of first occurrence:
                # every add is +1, so peaks and timeline ignore the order
                s0_count = np.count_nonzero(in_s0)
                s_count = np.count_nonzero(in_s[0]) + np.count_nonzero(in_s[1])
                charges = [("S0_edges", s0_count), ("S1_S2_edges", s_count)]
                if s0_count and s_count and np.argmax(in_s0) > np.argmax(in_s[0] | in_s[1]):
                    charges.reverse()
                for category, count in charges:
                    meter.add_units(category, count)
        size = len(ids) + 1
        s0 = np.append(_adjacency(np.concatenate(s0_pairs), size), INF)

        # ---- pass 2: store cycles completed by three S0 edges --------
        with pass_span("pass2:store-cycles", meter) as span:
            # each row begins with the stream edge that completed it
            stored = _store_cycles(stream.edge_chunks(), s0, ids)
            meter.add_units("stored_cycles", len(stored))
            span.set("stored_cycles", len(stored))

        # ---- pass 3: classify every involved edge --------------------
        eta_sqrt_t = self.eta * math.sqrt(self.t_guess)
        # each stored cycle's edges, the stream edge e first, as undirected
        # keys; the oracles' edges ordered by the repr of their labels, so
        # no output follows the numbering
        nxt = np.roll(stored, -1, axis=1)
        edge_keys, index = np.unique(
            np.minimum(stored, nxt) * size + np.maximum(stored, nxt), return_inverse=True
        )
        labels = list(ids)
        edges = [normalize_edge(labels[k // size], labels[k % size]) for k in edge_keys.tolist()]
        order = sorted(range(len(edges)), key=lambda i: repr(edges[i]))
        ends = np.array([[ids[x] for x in edges[i]] for i in order], dtype=np.int64).reshape(-1, 2)
        oracle_of = np.argsort(order)[index].reshape(-1, 4)  # each cycle's edges' oracles
        adjacency = [_adjacency(np.concatenate(pairs), size) for pairs in s_pairs]
        near = []  # S_c joins to Q_c, for the selection
        for adj, q in zip(adjacency, q_ids):
            in_q = np.zeros(size, dtype=bool)
            in_q[np.concatenate([_NO_IDS, *q])] = True
            near.append(np.append(adj[in_q[adj % size]], INF))
        witness = np.concatenate([adjacency[0], adjacency[1] + size * size, [INF]])
        rows = _select(ends, stable_key_array(labels), near, p, self.seed)

        # always taken, even with no stored cycle: Theorem 5.3 spends
        # three passes whatever the sample holds
        _, effective_p = _selection_rates(p)
        with pass_span("pass3:classify", meter) as span:
            estimates, counters, heavy_vertices = _count_oracles(
                stream, ends, rows, ids, witness, effective_p, eta_sqrt_t
            )
            # each oracle's heavy counters and O(1) globals; the samples
            # it reads (S1, S2) are shared and metered once in pass 1
            for count in counters.tolist():
                meter.add("oracle_counters", count + 3)
            span.set("num_oracles", len(ends))

        # ---- combine --------------------------------------------------
        # a cycle with two or more heavy edges is dropped (Lemma 5.1)
        heavy = estimates >= eta_sqrt_t
        e_heavy, kept = heavy[oracle_of[:, 0]], ~heavy[oracle_of[:, 1:]].any(axis=1)
        a0 = int(np.count_nonzero(kept & ~e_heavy))
        a1 = int(np.count_nonzero(kept & e_heavy))
        estimate = a0 / (4.0 * p**3) + a1 / (p**3)

        details = {
            "p": p,
            "eta_sqrt_t": eta_sqrt_t,
            "stored_pairs": len(stored),
            "a0": a0,
            "a1": a1,
            "num_oracles": len(ends),
            "num_heavy_edges": int(np.count_nonzero(heavy)),
            "useful_heavy_vertices": heavy_vertices,
            "useful_heavy_counters": int(counters.sum()),
        }
        return finish(self.name, estimate, stream.passes_taken, meter, details)
