"""Synthetic graph generators — the workloads for every experiment.

The paper evaluates nothing empirically, so these generators define the
workload families our experiment suite uses to validate each theorem:

* families where the triangle / four-cycle count ``T`` can be planted
  and swept (``planted_triangles``, ``planted_diamonds``), so the
  ``m / sqrt(T)``-style space claims can be measured as scaling laws;

* heavy-edge adversarial families (``heavy_edge_graph``,
  ``book_graph``) that break naive samplers and exercise the
  heavy/light machinery that is the core of Theorems 2.1 and 5.3;

* dense families with ``T = Omega(n^2)`` for the large-``T`` one-pass
  algorithms (Theorems 4.3 and 5.7);

* four-cycle-free graphs (``friendship_graph``, incidence
  constructions) for the distinguisher of Theorem 5.6.

All generators are deterministic given ``seed``.
"""

from __future__ import annotations

import random
from typing import Callable, List, Sequence

import numpy as np

from ..seeding import component_rng, numpy_generator
from .graph import Graph


def generator_rng(name: str, seed: int) -> "np.random.Generator":
    """The namespaced numpy RNG a vectorized generator draws from.

    Every generator derives its stream from ``("generator:" + name,
    seed)`` — never the raw seed — so ``erdos_renyi(seed=7)`` and
    ``gnm_random_graph(seed=7)`` draw decorrelated randomness.  The
    seed-audit (``repro verify seeds``) probes exactly this function.
    """
    return numpy_generator(f"generator:{name}", seed=seed)


def generator_scalar_rng(name: str, seed: int) -> "random.Random":
    """The namespaced ``random.Random`` a scalar generator draws from."""
    return component_rng(f"generator:{name}", seed=seed)


def _row_blocked_bernoulli(
    n: int,
    rng: "np.random.Generator",
    row_probs: Callable[[int], "np.ndarray"],
    graph: Graph,
    offset: int = 0,
) -> None:
    """Add edges ``{u, v}`` (u < v) keeping one vectorized draw per row.

    For each ``u`` the probabilities for the pairs ``(u, u+1..n-1)`` come
    from ``row_probs(u)`` and are compared against one uniform block —
    O(n) numpy calls total instead of the old O(n^2) scalar loop.
    ``offset`` shifts vertex labels (for bipartite right-hand sides).
    """
    for u in range(n - 1):
        draws = rng.random(n - u - 1)
        hits = np.nonzero(draws < row_probs(u))[0]
        for v in hits:
            graph.add_edge(offset + u, offset + u + 1 + int(v))


# ----------------------------------------------------------------------
# classical random graphs
# ----------------------------------------------------------------------
def erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p): each of the C(n, 2) edges present independently w.p. ``p``.

    Vectorized: one Bernoulli block per row of the upper triangle (see
    :func:`_row_blocked_bernoulli`); deterministic given ``seed``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    rng = generator_rng("erdos-renyi", seed)
    graph = Graph()
    for v in range(n):
        graph.add_vertex(v)
    probs = np.float64(p)
    _row_blocked_bernoulli(n, rng, lambda u: probs, graph)
    return graph


def gnm_random_graph(n: int, m: int, seed: int = 0) -> Graph:
    """G(n, m): exactly ``m`` distinct edges chosen uniformly at random.

    Vectorized rejection sampling: draw endpoint pairs in batches,
    canonicalize, and keep the first ``m`` distinct pairs in draw order
    — the same "sample until m distinct" process as a scalar loop, so
    the edge set is a uniform ``m``-subset.
    """
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise ValueError(f"cannot place {m} edges on {n} vertices (max {max_edges})")
    rng = generator_rng("gnm", seed)
    graph = Graph()
    for v in range(n):
        graph.add_vertex(v)
    if m == 0:
        return graph
    codes = np.empty(0, dtype=np.int64)
    distinct = 0
    while distinct < m:
        batch = max(16, 2 * (m - distinct))
        us = rng.integers(0, n, size=batch)
        vs = rng.integers(0, n, size=batch)
        keep = us != vs
        lo = np.minimum(us[keep], vs[keep])
        hi = np.maximum(us[keep], vs[keep])
        codes = np.concatenate([codes, lo * n + hi])
        distinct = np.unique(codes).size
    _, first_index = np.unique(codes, return_index=True)
    chosen = codes[np.sort(first_index)[:m]]
    for code in chosen:
        graph.add_edge(int(code) // n, int(code) % n)
    return graph


def barabasi_albert(n: int, attach: int, seed: int = 0) -> Graph:
    """Preferential-attachment graph: each new vertex links to ``attach``
    existing vertices chosen proportionally to degree.

    Produces the skewed degree distributions typical of the social
    networks that motivate triangle counting.
    """
    if attach < 1 or n <= attach:
        raise ValueError(f"need n > attach >= 1, got n={n}, attach={attach}")
    rng = generator_scalar_rng("barabasi-albert", seed)
    graph = Graph()
    # seed clique keeps early attachment well defined
    for v in range(attach + 1):
        for u in range(v):
            graph.add_edge(u, v)
    repeated: List[int] = []  # vertex repeated once per incident edge
    for u, v in graph.edges():
        repeated.extend((u, v))
    for v in range(attach + 1, n):
        targets = set()
        while len(targets) < attach:
            targets.add(rng.choice(repeated))
        for u in targets:
            graph.add_edge(u, v)
            repeated.extend((u, v))
    return graph


def chung_lu(weights: Sequence[float], seed: int = 0) -> Graph:
    """Chung–Lu random graph: edge ``{u, v}`` appears with probability
    ``min(1, w_u w_v / sum(w))`` — expected degrees ~ the weights.

    The standard model for prescribed (e.g. power-law) degree
    sequences; used by the ``power-law`` workload family.
    """
    if len(weights) == 0:
        raise ValueError("need at least one weight")
    weight_arr = np.asarray(weights, dtype=np.float64)
    if np.any(weight_arr < 0):
        raise ValueError("weights must be non-negative")
    total = float(weight_arr.sum())
    if total <= 0:
        raise ValueError("weights must have positive sum")
    rng = generator_rng("chung-lu", seed)
    graph = Graph()
    n = len(weights)
    for v in range(n):
        graph.add_vertex(v)
    _row_blocked_bernoulli(
        n,
        rng,
        lambda u: np.minimum(1.0, weight_arr[u] * weight_arr[u + 1 :] / total),
        graph,
    )
    return graph


def power_law_graph(
    n: int, exponent: float = 2.5, min_weight: float = 1.0, seed: int = 0
) -> Graph:
    """Chung–Lu graph with Pareto(``exponent``) expected degrees.

    Heavy-tailed degrees are where triangle and four-cycle counts
    concentrate on few hub edges — the adversarial shape for naive
    samplers.
    """
    if exponent <= 1:
        raise ValueError(f"power-law exponent must exceed 1, got {exponent}")
    rng = generator_scalar_rng("power-law.weights", seed)
    weights = [
        min_weight * (1.0 - rng.random()) ** (-1.0 / (exponent - 1.0))
        for _ in range(n)
    ]
    return chung_lu(weights, seed=seed)


def user_item_bipartite(
    users: int,
    items: int,
    interactions_per_user: int,
    popular_items: int = 0,
    popularity_boost: int = 4,
    seed: int = 0,
) -> Graph:
    """A user-item co-engagement bipartite graph.

    Users are ``0..users-1``; items ``users..users+items-1``.  Each
    user interacts with ``interactions_per_user`` distinct items,
    drawn with the first ``popular_items`` items over-weighted by
    ``popularity_boost`` — the skew that creates the large diamonds
    (two hot items shared by many users) Theorem 4.2 is built for.
    Triangle-free by construction.
    """
    if interactions_per_user > items:
        raise ValueError("cannot draw more distinct items than exist")
    rng = generator_scalar_rng("user-item", seed)
    population = list(range(users, users + items))
    weights = [
        popularity_boost if i < popular_items else 1 for i in range(items)
    ]
    graph = Graph()
    for v in range(users + items):
        graph.add_vertex(v)
    for user in range(users):
        chosen: set = set()
        while len(chosen) < interactions_per_user:
            item = rng.choices(population, weights=weights, k=1)[0]
            chosen.add(item)
        for item in chosen:
            graph.add_edge(user, item)
    return graph


def random_bipartite(a: int, b: int, p: float, seed: int = 0) -> Graph:
    """Random bipartite graph (triangle-free by construction).

    Left vertices are ``0..a-1``; right vertices are ``a..a+b-1``.
    Vectorized: one Bernoulli block per left vertex.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    rng = generator_rng("random-bipartite", seed)
    graph = Graph()
    for v in range(a + b):
        graph.add_vertex(v)
    for u in range(a):
        hits = np.nonzero(rng.random(b) < p)[0]
        for v in hits:
            graph.add_edge(u, a + int(v))
    return graph


# ----------------------------------------------------------------------
# deterministic structured graphs
# ----------------------------------------------------------------------
def complete_graph(n: int) -> Graph:
    """K_n: ``C(n, 3)`` triangles and ``3 * C(n, 4)`` four-cycles."""
    graph = Graph()
    for v in range(n):
        graph.add_vertex(v)
    for u in range(n):
        for v in range(u + 1, n):
            graph.add_edge(u, v)
    return graph


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: no triangles, ``C(a,2) * C(b,2)`` four-cycles."""
    graph = Graph()
    for u in range(a):
        for v in range(a, a + b):
            graph.add_edge(u, v)
    return graph


def cycle_graph(n: int) -> Graph:
    """C_n: one four-cycle when ``n == 4``, none otherwise (n >= 3)."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    graph = Graph()
    for v in range(n):
        graph.add_edge(v, (v + 1) % n)
    return graph


def path_graph(n: int) -> Graph:
    """P_n: no cycles at all."""
    graph = Graph()
    graph.add_vertex(0)
    for v in range(1, n):
        graph.add_edge(v - 1, v)
    return graph


def star_graph(n: int) -> Graph:
    """K_{1,n}: center 0, leaves 1..n.  No cycles, maximal wedge count."""
    graph = Graph()
    graph.add_vertex(0)
    for v in range(1, n + 1):
        graph.add_edge(0, v)
    return graph


def grid_graph(rows: int, cols: int) -> Graph:
    """The rows x cols grid: ``(rows-1)*(cols-1)`` four-cycles, 0 triangles."""
    graph = Graph()
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                graph.add_edge(v, v + 1)
            if r + 1 < rows:
                graph.add_edge(v, v + cols)
    return graph


def diamond_k2h(h: int, offset: int = 0) -> Graph:
    """The paper's (u, v)-diamond of size ``h``: K_{2,h}.

    Endpoints are ``offset`` and ``offset + 1``; the ``h`` middle
    vertices follow.  Contains exactly ``C(h, 2)`` four-cycles.
    """
    if h < 1:
        raise ValueError("diamond size must be positive")
    graph = Graph()
    u, v = offset, offset + 1
    for i in range(h):
        w = offset + 2 + i
        graph.add_edge(u, w)
        graph.add_edge(v, w)
    return graph


def book_graph(pages: int) -> Graph:
    """Triangle book: one shared edge {0, 1} plus ``pages`` apex vertices.

    The shared edge sits in ``pages`` triangles — the canonical heavy
    edge — while every other edge sits in exactly one.
    """
    graph = Graph()
    graph.add_edge(0, 1)
    for i in range(pages):
        apex = 2 + i
        graph.add_edge(0, apex)
        graph.add_edge(1, apex)
    return graph


def friendship_graph(triangles: int) -> Graph:
    """``triangles`` triangles sharing a single hub vertex 0.

    Contains no four-cycles (any C4 would need two common neighbors for
    some pair, but every non-hub pair shares at most the hub).
    """
    graph = Graph()
    graph.add_vertex(0)
    for i in range(triangles):
        a, b = 1 + 2 * i, 2 + 2 * i
        graph.add_edge(0, a)
        graph.add_edge(0, b)
        graph.add_edge(a, b)
    return graph


# ----------------------------------------------------------------------
# planted-count workloads (the experiment drivers)
# ----------------------------------------------------------------------
def planted_triangles(
    n: int,
    num_triangles: int,
    extra_edges: int = 0,
    seed: int = 0,
    disjoint: bool = True,
) -> Graph:
    """A graph whose triangle count is dominated by planted triangles.

    When ``disjoint`` is true the planted triangles are vertex disjoint
    (``3 * num_triangles <= n`` required) so that, before noise edges,
    the count is exactly ``num_triangles`` and every edge is light.
    ``extra_edges`` random noise edges are added afterwards and may
    create additional triangles; callers use the exact counters for the
    true ``T``.
    """
    rng = generator_scalar_rng("planted-triangles", seed)
    graph = Graph()
    for v in range(n):
        graph.add_vertex(v)
    if disjoint:
        if 3 * num_triangles > n:
            raise ValueError(
                f"{num_triangles} disjoint triangles need {3 * num_triangles} "
                f"vertices, graph has {n}"
            )
        vertices = list(range(n))
        rng.shuffle(vertices)
        for i in range(num_triangles):
            a, b, c = vertices[3 * i : 3 * i + 3]
            graph.add_edge(a, b)
            graph.add_edge(b, c)
            graph.add_edge(a, c)
    else:
        for _ in range(num_triangles):
            a, b, c = rng.sample(range(n), 3)
            graph.add_edge(a, b)
            graph.add_edge(b, c)
            graph.add_edge(a, c)
    _add_noise_edges(graph, n, extra_edges, rng)
    return graph


def planted_four_cycles(
    n: int,
    num_cycles: int,
    extra_edges: int = 0,
    seed: int = 0,
) -> Graph:
    """Vertex-disjoint planted four-cycles plus random noise edges.

    Requires ``4 * num_cycles <= n``.  Before noise, the four-cycle
    count is exactly ``num_cycles`` and the triangle count is zero.
    """
    if 4 * num_cycles > n:
        raise ValueError(
            f"{num_cycles} disjoint four-cycles need {4 * num_cycles} vertices"
        )
    rng = generator_scalar_rng("planted-four-cycles", seed)
    graph = Graph()
    for v in range(n):
        graph.add_vertex(v)
    vertices = list(range(n))
    rng.shuffle(vertices)
    for i in range(num_cycles):
        a, b, c, d = vertices[4 * i : 4 * i + 4]
        graph.add_edge(a, b)
        graph.add_edge(b, c)
        graph.add_edge(c, d)
        graph.add_edge(d, a)
    _add_noise_edges(graph, n, extra_edges, rng)
    return graph


def planted_diamonds(
    n: int,
    sizes: Sequence[int],
    extra_edges: int = 0,
    seed: int = 0,
) -> Graph:
    """Vertex-disjoint diamonds (K_{2,h}) of the given ``sizes``.

    The workload for the adjacency-list diamond algorithm (Theorem 4.2):
    before noise the four-cycle count is ``sum_h C(h, 2)`` and diamonds
    of very different sizes coexist, exercising the size-class grouping.
    """
    needed = sum(2 + h for h in sizes)
    if needed > n:
        raise ValueError(f"diamonds need {needed} vertices, graph has {n}")
    rng = generator_scalar_rng("planted-diamonds", seed)
    graph = Graph()
    for v in range(n):
        graph.add_vertex(v)
    vertices = list(range(n))
    rng.shuffle(vertices)
    cursor = 0
    for h in sizes:
        if h < 1:
            raise ValueError("diamond sizes must be positive")
        u, v = vertices[cursor], vertices[cursor + 1]
        for i in range(h):
            w = vertices[cursor + 2 + i]
            graph.add_edge(u, w)
            graph.add_edge(v, w)
        cursor += 2 + h
    _add_noise_edges(graph, n, extra_edges, rng)
    return graph


def heavy_edge_graph(
    n: int,
    heavy_triangles: int,
    light_triangles: int,
    seed: int = 0,
) -> Graph:
    """The adversarial workload for Theorem 2.1.

    One book of ``heavy_triangles`` pages (a single edge in many
    triangles) plus ``light_triangles`` disjoint light triangles.  Naive
    prefix samplers mis-estimate because the heavy edge concentrates
    the count; the paper's heavy-edge identification must kick in.
    """
    needed = 2 + heavy_triangles + 3 * light_triangles
    if needed > n:
        raise ValueError(f"workload needs {needed} vertices, graph has {n}")
    rng = generator_scalar_rng("heavy-edge", seed)
    graph = Graph()
    for v in range(n):
        graph.add_vertex(v)
    graph.add_edge(0, 1)
    for i in range(heavy_triangles):
        apex = 2 + i
        graph.add_edge(0, apex)
        graph.add_edge(1, apex)
    base = 2 + heavy_triangles
    for i in range(light_triangles):
        a, b, c = base + 3 * i, base + 3 * i + 1, base + 3 * i + 2
        graph.add_edge(a, b)
        graph.add_edge(b, c)
        graph.add_edge(a, c)
    return graph


def dense_wedge_graph(n: int, p: float = 0.5, seed: int = 0) -> Graph:
    """A dense G(n, p) graph with ``T = Omega(n^2)`` four-cycles.

    The workload for the large-T one-pass algorithms (Theorems 4.3 and
    5.7); with constant ``p`` the expected C4 count is Theta(n^4).
    """
    return erdos_renyi(n, p, seed=seed)


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """Disjoint union with integer relabeling (blocks stacked in order)."""
    union = Graph()
    offset = 0
    for graph in graphs:
        mapping = {v: offset + i for i, v in enumerate(sorted(graph.vertices(), key=repr))}
        for v in graph.vertices():
            union.add_vertex(mapping[v])
        for u, v in graph.edges():
            union.add_edge(mapping[u], mapping[v])
        offset += graph.num_vertices
    return union


def _add_noise_edges(graph: Graph, n: int, extra_edges: int, rng: random.Random) -> None:
    """Add ``extra_edges`` fresh uniformly random edges to ``graph``."""
    attempts = 0
    added = 0
    limit = 100 * (extra_edges + 1) + 10 * n
    while added < extra_edges and attempts < limit:
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and graph.add_edge(u, v):
            added += 1
    if added < extra_edges:
        raise RuntimeError(
            f"could not place {extra_edges} noise edges (graph too dense?)"
        )
