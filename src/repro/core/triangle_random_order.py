"""Theorem 2.1: one-pass (1+eps)-approximate triangle counting in the
random order model, using Õ(eps^-2 * m / sqrt(T)) space.

The algorithm (paper Section 2.1) runs three interleaved components in
a single pass over a randomly ordered edge stream:

1. **Finding potentially heavy edges.**  For levels ``i = 0..L`` with
   ``L = log2(sqrt(T))``, a vertex sample ``V_i`` (probability ``p_i ~
   eps^-2 log n / 2^i``, hash-defined) collects ``E_i``: the edges
   incident to ``V_i`` among the first ``q_i * m`` stream positions,
   ``q_i = 2^i / sqrt(T)``.  An edge ``e`` arriving *after* the level-i
   prefix is stored in the candidate set ``P`` if it closes a triangle
   with two edges of ``E_i``.  Because the order is random, an edge in
   many triangles is very unlikely to escape every level.

2. **Rough estimator.**  The prefix ``S`` of the first ``r * m``
   positions (``r ~ eps^-1 / sqrt(T)``) is stored; ``C`` collects every
   edge that closes a triangle with a wedge inside ``S``.

3. **Post-processing oracle.**  ``O = E_L`` (whose prefix is the whole
   stream) gives ``t^O_e ~ Bin(t_e, p)`` with ``p = p_L``; an edge is
   *heavy* when ``t^O_e >= p * sqrt(T)``.  Light triangles are estimated
   from ``C`` and ``S`` (scaled by ``1/(3 r^2)``); triangles with heavy
   edges are counted from the heavy edges caught in ``P``, each triangle
   weighted ``1/(1+j)`` where ``j`` is the number of *other* heavy edges
   in it so that multi-heavy triangles are not over-counted.

Implementation: ``V_i`` is a stateless hash of the vertex, so the pass
reads :meth:`~repro.streams.models.StreamSource.edge_chunks` and asks
it once per chunk rather than once per edge.  Each chunk's endpoint key
columns are folded once; every level whose prefix overlaps the chunk
hashes its in-prefix slice with ``bernoulli_array``, giving each edge a
bit mask of the levels that store it.  The levels below the oracle
share one map ``u -> {v: mask}``, so an edge costs two dict updates
however many levels store it; the oracle ``E_L`` keeps its adjacency
sets for post-processing.  A level past its prefix receives no more
edges, so its stored edges are frozen, and the ``P`` test is one
intersection ``N(u) & N(v)`` whose masks share a bit of a closed level
(``_closes_level_wedge``).  The ``C`` test is a yes/no answer too
(``_closes_wedge``).  The meter is charged per chunk with
``add_units``, category by category in order of first occurrence,
which leaves it as the per-item adds would: every add is ``+1``, so the
peaks and the timeline do not depend on their order.  Estimates,
details and the space record are identical to the edge-at-a-time
scalar path.  The heavy part counts triangles per ``j`` as integers and
combines them once, so its float sum does not follow set iteration
order (which for str vertices changes with ``PYTHONHASHSEED``).

Practical scaling: at laptop sizes the paper's literal ``10 c eps^-2
log n`` constants usually drive every ``p_i`` to 1 (a correct but
space-free "exact mode").  The ``c`` knob scales all sampling constants
at once; EXPERIMENTS.md records the values used per experiment.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from ..graphs.graph import Edge, Vertex, normalize_edge
from ..sketches.hashing import KWiseHash, stable_key_array
from ..streams.meter import SpaceMeter
from ..streams.models import StreamSource
from .result import EstimateResult
from .skeleton import check_accuracy, finish, pass_span

_Adjacency = Dict[Vertex, Set[Vertex]]
# u -> {v: bit mask of the levels that store the edge (u, v)}
_MaskedAdjacency = Dict[Vertex, Dict[Vertex, int]]


def _adj_add(adj: _Adjacency, u: Vertex, v: Vertex) -> None:
    adj.setdefault(u, set()).add(v)
    adj.setdefault(v, set()).add(u)


def _closes_wedge(adj: _Adjacency, u: Vertex, v: Vertex) -> bool:
    """Whether some ``w`` has both ``(u, w)`` and ``(v, w)`` present."""
    set_u = adj.get(u)
    set_v = adj.get(v)
    if not set_u or not set_v:
        return False
    return not set_u.isdisjoint(set_v)


def _closes_level_wedge(
    masked: _MaskedAdjacency, u: Vertex, v: Vertex, level_bits: int
) -> bool:
    """Whether some ``w`` has ``(u, w)`` and ``(v, w)`` in one level of
    ``level_bits``."""
    masks_u = masked.get(u)
    masks_v = masked.get(v)
    if not masks_u or not masks_v:
        return False
    for w in masks_u.keys() & masks_v.keys():
        if masks_u[w] & masks_v[w] & level_bits:
            return True
    return False


def _level_masks(
    chunk: Sequence[Edge],
    start: int,
    samplers: Sequence[Tuple[KWiseHash, float, int]],
) -> Tuple[List[int], List[Tuple[int, int, int]]]:
    """Per edge of ``chunk``, the bit mask of the level samples that store
    it; and per bit that any edge sets, ``(bit, first index, edges)``.

    The chunk holds stream positions ``start + 1 .. start + len(chunk)``.
    Bit ``b`` stands for ``samplers[b] = (f_i, p_i, prefix length)``: it
    is set iff the edge lies in that prefix and an endpoint is in
    ``V_i``.  Each sampler hashes both endpoint columns of its in-prefix
    slice with one ``bernoulli_array`` call per column.
    """
    masks = np.zeros(len(chunk), dtype=np.int64)
    units = []
    u_keys = v_keys = None
    for bit, (level_hash, prob, prefix) in enumerate(samplers):
        stop = min(prefix - start, len(chunk))
        if stop <= 0:
            continue
        if u_keys is None:
            u_keys = stable_key_array([u for u, _ in chunk])
            v_keys = stable_key_array([v for _, v in chunk])
        hit = level_hash.bernoulli_array(u_keys[:stop], prob)
        hit |= level_hash.bernoulli_array(v_keys[:stop], prob)
        count = int(np.count_nonzero(hit))
        if count:
            units.append((bit, int(hit.argmax()), count))
            masks[:stop] |= hit.astype(np.int64) << bit
    return masks.tolist(), units


def _level_edge_counts(
    levels: Sequence[int],
    stored_levels: Sequence[int],
    masked: _MaskedAdjacency,
    oracle_adj: _Adjacency,
) -> List[int]:
    """The number of distinct edges each level stores.

    Counted from the stored adjacency, so a token the stream repeats is
    one edge, as it is in the adjacency itself.
    """
    if not levels:
        return []
    entries: Counter = Counter()
    for neighbours in masked.values():
        entries.update(neighbours.values())
    counts = dict.fromkeys(levels, 0)
    for bit, level in enumerate(stored_levels[:-1]):
        counts[level] = sum(n for mask, n in entries.items() if mask >> bit & 1) // 2
    counts[levels[-1]] = sum(len(neighbours) for neighbours in oracle_adj.values()) // 2
    return list(counts.values())


def _common_neighbors(adj: _Adjacency, u: Vertex, v: Vertex) -> List[Vertex]:
    """Vertices ``w`` with both ``(u, w)`` and ``(v, w)`` present."""
    set_u = adj.get(u)
    set_v = adj.get(v)
    if not set_u or not set_v:
        return []
    if len(set_u) > len(set_v):
        set_u, set_v = set_v, set_u
    return [w for w in set_u if w in set_v]


class TriangleRandomOrder:
    """McGregor–Vorotnikova one-pass random-order triangle counter.

    Args:
        t_guess: the parameter ``T`` — a guess / promised bound on the
            triangle count (the standard parameterization; see paper
            Section 1.1).
        epsilon: target relative accuracy (paper assumes < 1/100 for the
            proofs; any value in (0, 1) runs).
        c: global scale on the sampling constants.  ``c = 1`` with
            ``use_log_factor=True`` is the paper's setting; smaller
            values trade accuracy for space at experiment scale.
        seed: seeds every hash function and nothing else (the stream
            order supplies the rest of the randomness).
        use_log_factor: include the ``log n`` factor in the level
            sampling probabilities (the paper's high-probability knob).
        disable_heavy_path: ablation switch — skip the heavy-edge
            machinery entirely (no level structures are queried for
            candidates, no heavy estimate is added) and return only the
            light estimator.  This is precisely the estimator "implicit
            in previous work" that Section 2.1.1 describes, and the
            ablation benchmark shows it break on heavy-edge workloads.
    """

    name = "mv-triangle-random-order"

    def __init__(
        self,
        t_guess: float,
        epsilon: float = 0.1,
        c: float = 1.0,
        seed: int = 0,
        use_log_factor: bool = True,
        disable_heavy_path: bool = False,
    ) -> None:
        self.t_guess, self.epsilon = check_accuracy(t_guess, epsilon)
        if c <= 0:
            raise ValueError(f"scale c must be positive, got {c}")
        self.c = c
        self.seed = seed
        self.use_log_factor = use_log_factor
        self.disable_heavy_path = disable_heavy_path

    # ------------------------------------------------------------------
    def run(self, stream: StreamSource) -> EstimateResult:
        """One pass over ``stream``; returns the triangle estimate."""
        n = max(2, stream.num_vertices)
        m = stream.num_edges
        meter = SpaceMeter()
        if m == 0:
            return finish(self.name, 0.0, 1, meter, {"empty": True})

        sqrt_t = math.sqrt(self.t_guess)
        num_levels = max(0, math.ceil(math.log2(sqrt_t))) if sqrt_t > 1 else 0
        levels = [] if self.disable_heavy_path else list(range(num_levels + 1))

        log_factor = math.log2(n) if self.use_log_factor else 1.0
        sample_const = 10.0 * self.c * log_factor / (self.epsilon**2)
        level_prob = [min(1.0, sample_const / (2**i)) for i in levels]
        prefix_len = [min(m, math.floor(m * (2**i) / sqrt_t)) for i in levels]
        if levels:
            # level L is the oracle: its prefix must be the whole stream
            prefix_len[-1] = m
            oracle_prob = level_prob[-1]
        else:  # ablation mode: no oracle, every edge is light
            oracle_prob = 1.0

        level_hash = [
            KWiseHash(
                k=8, seed=self.seed, namespace=f"triangle-random-order.level[{i}]"
            )
            for i in levels
        ]
        r = min(1.0, self.c / (self.epsilon * sqrt_t))
        s_len = max(1, math.ceil(r * m))
        r_effective = s_len / m

        s_adj: _Adjacency = {}
        s_edges: List[Edge] = []
        candidates_c: Set[Edge] = set()
        potential_p: Set[Edge] = set()

        # ---------------- the single pass ------------------------------
        # a level with an empty prefix stores nothing; mask bit b names
        # stored_levels[b] (at most log2(m) + 2 levels, so it fits int64)
        stored_levels = [i for i in levels if prefix_len[i] > 0]
        samplers = [(level_hash[i], level_prob[i], prefix_len[i]) for i in stored_levels]
        stored_names = [f"level_{i}_edges" for i in stored_levels]
        # E_0 .. E_{L-1} share one map u -> {v: mask}; the oracle E_L
        # keeps its own sets, which post-processing reads
        masked: _MaskedAdjacency = {}
        oracle_adj: _Adjacency = {}
        oracle_bit = 1 << (len(stored_levels) - 1) if stored_levels else 0
        prefix_ends = [prefix_len[i] for i in stored_levels] + [math.inf]
        closing = 0  # the next stored level to pass its prefix
        closed_mask = 0  # bits of the stored levels past their prefix
        pos = 0  # stream position of the current edge
        # meter charges of one chunk: (first position, order within an
        # edge, category, units), flushed in first-occurrence order; an
        # edge charges P first, then its levels, then S or C
        rank_s_or_c = len(stored_levels) + 1
        with pass_span("pass1:stream", meter):
            for chunk in stream.edge_chunks():
                masks, units = _level_masks(chunk, pos, samplers)
                charges = [
                    (pos + first + 1, bit + 1, stored_names[bit], count)
                    for bit, first, count in units
                ]
                in_s = min(len(chunk), s_len - pos)
                if in_s > 0:
                    charges.append((pos + 1, rank_s_or_c, "prefix_S", in_s))
                p_at: List[int] = []
                c_at: List[int] = []
                for (u, v), mask in zip(chunk, masks):
                    pos += 1
                    while prefix_ends[closing] < pos:
                        closed_mask |= 1 << closing
                        closing += 1
                    edge = normalize_edge(u, v)
                    # past level i's prefix E_i is frozen: the edge is a
                    # candidate if it closes a wedge of a closed level (the
                    # oracle closes only if the stream outruns its declared m)
                    if (
                        closed_mask
                        and edge not in potential_p
                        and (
                            _closes_level_wedge(masked, u, v, closed_mask)
                            or (
                                closed_mask & oracle_bit
                                and _closes_wedge(oracle_adj, u, v)
                            )
                        )
                    ):
                        potential_p.add(edge)
                        p_at.append(pos)
                    if mask:
                        if mask & oracle_bit:
                            _adj_add(oracle_adj, u, v)
                            mask ^= oracle_bit
                        if mask:
                            neighbours = masked.setdefault(u, {})
                            neighbours[v] = neighbours.get(v, 0) | mask
                            neighbours = masked.setdefault(v, {})
                            neighbours[u] = neighbours.get(u, 0) | mask
                    if pos <= s_len:
                        _adj_add(s_adj, u, v)
                        s_edges.append(edge)
                    elif edge not in candidates_c and _closes_wedge(s_adj, u, v):
                        candidates_c.add(edge)
                        c_at.append(pos)
                if p_at:
                    charges.append((p_at[0], 0, "potential_heavy_P", len(p_at)))
                if c_at:
                    charges.append((c_at[0], rank_s_or_c, "candidates_C", len(c_at)))
                for _, _, category, count in sorted(charges):
                    meter.add_units(category, count)

            # triangles entirely inside S were not visible while S was filling
            in_c = len(candidates_c)
            for u, v in s_edges:
                edge = (u, v)
                if edge not in candidates_c and _closes_wedge(s_adj, u, v):
                    candidates_c.add(edge)
            meter.add_units("candidates_C", len(candidates_c) - in_c)

        # ---------------- post-processing ------------------------------
        with pass_span("post:estimate", meter, kind="phase"):
            heavy_threshold = oracle_prob * sqrt_t
            heavy_cache: Dict[Edge, bool] = {}
            oracle_calls = 0

            def oracle_count(u: Vertex, v: Vertex) -> int:
                set_u = oracle_adj.get(u)
                set_v = oracle_adj.get(v)
                if not set_u or not set_v:
                    return 0
                return len(set_u & set_v)

            def is_heavy(u: Vertex, v: Vertex) -> bool:
                nonlocal oracle_calls
                edge = normalize_edge(u, v)
                cached = heavy_cache.get(edge)
                if cached is None:
                    oracle_calls += 1
                    cached = oracle_count(u, v) >= heavy_threshold
                    heavy_cache[edge] = cached
                return cached

            # light part: T0_hat = X / (3 r^2), X = light wedges in S closed
            # by a light edge of C
            light_wedge_pairs = 0
            for u, v in candidates_c:
                if is_heavy(u, v):
                    continue
                for w in _common_neighbors(s_adj, u, v):
                    if not is_heavy(u, w) and not is_heavy(v, w):
                        light_wedge_pairs += 1
            t0_hat = light_wedge_pairs / (3.0 * r_effective**2)

            # heavy part: each triangle of a caught heavy edge, weighted by
            # 1/(1+j) with j = number of other heavy edges in it.  Counted
            # per j as integers and combined once, so the float sum does
            # not follow set iteration order
            with_j = [0, 0, 0]
            heavy_caught = 0
            for u, v in potential_p:
                if not is_heavy(u, v):
                    continue
                heavy_caught += 1
                for w in _common_neighbors(oracle_adj, u, v):
                    with_j[int(is_heavy(u, w)) + int(is_heavy(v, w))] += 1
            heavy_sum = with_j[0] + with_j[1] / 2 + with_j[2] / 3
            heavy_hat = heavy_sum / oracle_prob

        details = {
            "t0_hat": t0_hat,
            "heavy_hat": heavy_hat,
            "num_levels": len(levels),
            "oracle_prob": oracle_prob,
            "heavy_threshold": heavy_threshold,
            "prefix_fraction_r": r_effective,
            "size_S": len(s_edges),
            "size_C": len(candidates_c),
            "size_P": len(potential_p),
            "heavy_edges_caught": heavy_caught,
            "oracle_calls": oracle_calls,
            "level_edge_counts": _level_edge_counts(
                levels, stored_levels, masked, oracle_adj
            ),
        }
        return finish(
            self.name, t0_hat + heavy_hat, stream.passes_taken, meter, details
        )
