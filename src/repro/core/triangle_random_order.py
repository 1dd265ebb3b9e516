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

Practical scaling: at laptop sizes the paper's literal ``10 c eps^-2
log n`` constants usually drive every ``p_i`` to 1 (a correct but
space-free "exact mode").  The ``c`` knob scales all sampling constants
at once; EXPERIMENTS.md records the values used per experiment.
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

_Adjacency = Dict[Vertex, Set[Vertex]]


def _adj_add(adj: _Adjacency, u: Vertex, v: Vertex) -> None:
    adj.setdefault(u, set()).add(v)
    adj.setdefault(v, set()).add(u)


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
        level_adj: List[_Adjacency] = [dict() for _ in levels]

        r = min(1.0, self.c / (self.epsilon * sqrt_t))
        s_len = max(1, math.ceil(r * m))
        r_effective = s_len / m

        s_adj: _Adjacency = {}
        s_edges: List[Edge] = []
        candidates_c: Set[Edge] = set()
        potential_p: Set[Edge] = set()

        # ---------------- the single pass ------------------------------
        with pass_span("pass1:stream", meter):
            for pos, (u, v) in enumerate(stream.edges(), start=1):
                edge = normalize_edge(u, v)
                for i in levels:
                    if pos <= prefix_len[i]:
                        if level_hash[i].bernoulli(u, level_prob[i]) or level_hash[
                            i
                        ].bernoulli(v, level_prob[i]):
                            _adj_add(level_adj[i], u, v)
                            meter.add(f"level_{i}_edges")
                    elif edge not in potential_p and _common_neighbors(
                        level_adj[i], u, v
                    ):
                        potential_p.add(edge)
                        meter.add("potential_heavy_P")
                if pos <= s_len:
                    _adj_add(s_adj, u, v)
                    s_edges.append(edge)
                    meter.add("prefix_S")
                elif edge not in candidates_c and _common_neighbors(s_adj, u, v):
                    candidates_c.add(edge)
                    meter.add("candidates_C")

            # triangles entirely inside S were not visible while S was filling
            for u, v in s_edges:
                edge = (u, v)
                if edge not in candidates_c and _common_neighbors(s_adj, u, v):
                    candidates_c.add(edge)
                    meter.add("candidates_C")

        # ---------------- post-processing ------------------------------
        with pass_span("post:estimate", meter, kind="phase"):
            oracle_adj = level_adj[-1] if level_adj else {}
            heavy_threshold = oracle_prob * sqrt_t
            heavy_cache: Dict[Edge, bool] = {}
            oracle_calls = 0

            def oracle_count(u: Vertex, v: Vertex) -> int:
                return len(_common_neighbors(oracle_adj, u, v))

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
            # 1/(1+j) with j = number of other heavy edges in it
            heavy_sum = 0.0
            heavy_caught = 0
            for u, v in potential_p:
                if not is_heavy(u, v):
                    continue
                heavy_caught += 1
                for w in _common_neighbors(oracle_adj, u, v):
                    other_heavy = int(is_heavy(u, w)) + int(is_heavy(v, w))
                    heavy_sum += 1.0 / (1 + other_heavy)
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
            "level_edge_counts": [
                sum(len(neigh) for neigh in adj.values()) // 2 for adj in level_adj
            ],
        }
        return finish(
            self.name, t0_hat + heavy_hat, stream.passes_taken, meter, details
        )
