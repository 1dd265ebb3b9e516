"""White-box tests of algorithm internals.

The end-to-end tests pin the estimators' outputs; these pin the
intermediate machinery: the diamond algorithm's size classes, the
three-pass algorithm's pass-2 cycle join and H_e sub-sampling,
and the random-order algorithm's common-neighbor primitive.
"""

import math
import random

import numpy as np
import pytest

from repro.core.fourcycle_adjacency_diamond import _ClassInstance, _choose2
from repro.core.fourcycle_arbitrary_threepass import (
    INF,
    _adjacency,
    _select,
    _selection_rates,
    _store_cycles,
    subsample_q,
)
from repro.core.triangle_random_order import _adj_add, _common_neighbors
from repro.graphs import normalize_edge
from repro.sketches import KWiseHash
from repro.sketches.hashing import stable_key_array


class TestCommonNeighbors:
    def test_basic(self):
        adj = {}
        _adj_add(adj, 0, 1)
        _adj_add(adj, 0, 2)
        _adj_add(adj, 1, 2)
        assert set(_common_neighbors(adj, 0, 1)) == {2}

    def test_missing_vertex(self):
        adj = {}
        _adj_add(adj, 0, 1)
        assert _common_neighbors(adj, 0, 99) == []
        assert _common_neighbors(adj, 98, 99) == []

    def test_symmetric(self):
        adj = {}
        for edge in [(0, 2), (1, 2), (0, 3), (1, 3)]:
            _adj_add(adj, *edge)
        assert set(_common_neighbors(adj, 0, 1)) == {2, 3}
        assert set(_common_neighbors(adj, 1, 0)) == {2, 3}


class TestChoose2:
    def test_integers(self):
        assert _choose2(4) == 6.0
        assert _choose2(2) == 1.0
        assert _choose2(1) == 0.0

    def test_fractional(self):
        assert _choose2(2.5) == pytest.approx(2.5 * 1.5 / 2)


class TestClassInstance:
    def _instance(self, boundary=4.0, pv=1.0, pe=1.0, epsilon=0.3):
        return _ClassInstance(
            boundary=boundary, pv=pv, pe=pe, epsilon=epsilon, t_guess=100.0, seed=3
        )

    def test_accept_window(self):
        inst = self._instance(boundary=4.0, epsilon=0.3)
        assert inst.accept_low == pytest.approx(4.0 * 1.05)
        assert inst.accept_high == pytest.approx(8.0 * 0.95)

    def test_norm_floor(self):
        tiny = self._instance(boundary=1.0)
        assert tiny.norm == 0.5  # C(1,2) = 0 floored
        big = self._instance(boundary=10.0)
        assert big.norm == _choose2(10.0)

    def test_pass1_collects_sampled_edges(self):
        inst = self._instance(pv=1.0, pe=1.0)
        inst.observe_pass1("u", ["a", "b", "c"])
        assert "u" in inst.sampled[0] and "u" in inst.sampled[1]
        # pe=1: every incident edge indexed, in both copies
        assert inst.sampled_edge_count == 6
        assert set(inst.edge_index[0]) == {"a", "b", "c"}

    def test_pass2_requires_start(self):
        inst = self._instance()
        with pytest.raises(RuntimeError):
            inst.observe_pass2("v", ["a"])

    def test_exact_diamond_detected(self):
        """A size-5 diamond through an exact (pv=pe=1) class of
        boundary 4: d_hat=5 is accepted, middle pairs (d=2) rejected,
        and the estimate is exactly C(5,2) cycles."""
        inst = self._instance(boundary=4.0, epsilon=0.3)
        middles = [f"w{i}" for i in range(5)]
        blocks = [("v", middles), ("u", middles)] + [
            (w, ["u", "v"]) for w in middles
        ]
        # pass 1: every vertex's block (pv = 1 samples them all)
        for vertex, neighbors in blocks:
            inst.observe_pass1(vertex, neighbors)
        inst.start_pass2()
        for vertex, neighbors in blocks:
            inst.observe_pass2(vertex, neighbors)
        estimate = inst.estimate_cycles()
        assert estimate == pytest.approx(_choose2(5.0))


def _stored_labels(s0_edges, tokens, others=(), chunk=3):
    """Pass 2's rows for the label sample ``s0_edges`` over the stream
    ``tokens`` (read in lists of ``chunk``), as label tuples.  ``others``
    are numbered too, as pass 1 numbers S1 and S2 vertices outside S0."""
    vertices = sorted({v for e in s0_edges for v in e} | set(others), key=repr)
    ids = {v: i for i, v in enumerate(vertices)}
    pairs = np.array([(ids[u], ids[v]) for u, v in s0_edges], dtype=np.int64).reshape(-1, 2)
    s0 = np.append(_adjacency(pairs, len(ids) + 1), INF)
    chunks = [tokens[i : i + chunk] for i in range(0, len(tokens), chunk)]
    return [tuple(vertices[x] for x in row) for row in _store_cycles(chunks, s0, ids).tolist()]


def _enumerated(s0_edges, tokens):
    """The cycles ``a-b-c-d`` each token ``(a, b)`` completes with three
    S0 edges, by brute force over label sets."""
    adj = {}
    for u, v in s0_edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return [
        (a, b, c, d)
        for a, b in tokens
        for c in adj.get(b, ())
        for d in adj.get(a, ())
        if len({a, b, c, d}) == 4 and d in adj[c]
    ]


class TestStoreCycles:
    def test_finds_cycle(self):
        assert _stored_labels([(1, 2), (2, 3), (3, 0)], [(0, 1)]) == [(0, 1, 2, 3)]

    def test_rejects_degenerate(self):
        # triangle, not a 4-cycle
        assert _stored_labels([(1, 2), (2, 0)], [(0, 1)]) == []

    def test_multiple_cycles(self):
        # two cycles through edge (0,1): 0-1-2-3 and 0-1-4-5
        s0 = [(1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 0)]
        assert sorted(_stored_labels(s0, [(0, 1)])) == [(0, 1, 2, 3), (0, 1, 4, 5)]

    @pytest.mark.parametrize(
        "label", [lambda v: v, lambda v: f"v{v}", lambda v: -v * 7919], ids=["int", "str", "negint"]
    )
    def test_equals_enumeration_over_s0(self, label):
        rng = random.Random(5)
        n = 14
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45]
        s0 = [(label(u), label(v)) for u, v in edges if rng.random() < 0.6]
        s0 += [(v, u) for u, v in s0[:5]]  # a sample edge stored twice, reversed
        tokens = [(label(u), label(v)) for u, v in edges]
        rng.shuffle(tokens)
        # repeated tokens, either way round, and tokens no sample holds
        tokens += [tokens[0], tokens[3][::-1], tokens[0]]
        tokens += [(label(100), label(101)), (label(0), label(102)), (label(103), label(1))]
        stored = _stored_labels(s0, tokens, others=[label(101), label(103)])
        expected = _enumerated(s0, tokens)
        assert len(expected) > 50
        assert sorted(stored, key=repr) == sorted(expected, key=repr)
        # each repeat of a token stores its cycles again
        first = [row for row in stored if row[:2] == tokens[0]]
        assert first and len(first) == 3 * len(set(first))


def _select_labels(edges, q_sets, s_adjs, p, seed):
    """Each edge's ``(R1(e), R2(e))`` as sets of label edges, read from
    the rows ``_select`` emits over vertex ids of the label samples."""
    vertices = {v for e in edges for v in e}
    for s_adj in s_adjs:
        vertices.update(s_adj, *s_adj.values())
    ids = {v: i for i, v in enumerate(sorted(vertices, key=repr))}
    labels, size = list(ids), len(ids) + 1
    near = [
        np.append(
            np.unique(
                np.array(
                    [ids[x] * size + ids[d] for x, ds in s_adj.items() for d in ds if d in q_set],
                    dtype=np.int64,
                )
            ),
            INF,
        )
        for q_set, s_adj in zip(q_sets, s_adjs)
    ]
    ends = np.array([(ids[a], ids[b]) for a, b in edges], dtype=np.int64).reshape(-1, 2)
    samples = [(set(), set()) for _ in edges]
    for i, copy, d, side in zip(
        *(column.tolist() for column in _select(ends, stable_key_array(labels), near, p, seed))
    ):
        samples[i][copy].add(normalize_edge(labels[d], edges[i][side]))
    return samples


class TestEdgeOracleSampling:
    def test_paper_mode_marginal_rate(self):
        """H_e vertex inclusion probability is p * (0.4 + q)."""
        p = 0.3
        q = subsample_q(p)
        expected = p * (0.4 + q)
        # build many oracles over a fixed star around edge (a, b)
        a, b = "a", "b"
        included = 0
        total = 0
        for seed in range(300):
            rng = random.Random(seed)
            q_set = {f"d{i}" for i in range(20) if rng.random() < p}
            s_adj = {}
            for d in q_set:
                s_adj.setdefault(d, set()).add(a)
                s_adj.setdefault(a, set()).add(d)
            ((r1, _),) = _select_labels([(a, b)], (q_set, set()), (s_adj, {}), p=p, seed=seed)
            # each of the 20 candidate H_e vertices (d, a) could be in R1
            included += len(r1)
            total += 20
        rate = included / total
        assert abs(rate - expected) < 0.03

    def test_direct_mode_for_large_p(self):
        _select_labels(
            [("a", "b")],
            ({"d"}, set()),
            ({"d": {"a"}, "a": {"d"}}, {}),
            p=1.0,
            seed=1,
        )
        q, effective_p = _selection_rates(1.0)
        assert q is None  # direct mode
        assert effective_p == pytest.approx(0.4)

    @staticmethod
    def _scalar_selection(edge, q_set, adj, p, seed, copy):
        """The one-oracle-at-a-time reference: scalar ``choice4`` and
        ``bernoulli`` on nested tuple keys, candidate by candidate, under
        the copy's one function of the algorithm seed."""
        a, b = edge
        hash_fn = KWiseHash(k=2, seed=seed, namespace=f"threepass.select[{copy}]")
        q, _ = _selection_rates(p)
        candidates = set()
        for x in (a, b):
            candidates.update(d for d in adj.get(x, ()) if d in q_set)
        candidates -= {a, b}
        selected = set()
        for d in candidates:
            present = [x for x in (a, b) if x in adj.get(d, ())]
            if q is None:
                for x in present:
                    if hash_fn.bernoulli((d, x, edge), 0.4):
                        selected.add(normalize_edge(d, x))
            elif len(present) == 2:
                choice = hash_fn.choice4((d, edge), 0.4, 0.4, q)
                if choice in (0, 2):
                    selected.add(normalize_edge(d, a))
                if choice in (1, 2):
                    selected.add(normalize_edge(d, b))
            elif hash_fn.bernoulli((d, edge), 0.4 + q):
                selected.add(normalize_edge(d, present[0]))
        return selected

    @pytest.mark.parametrize("p", [0.05, 0.3, 0.45, 0.7, 1.0])
    @pytest.mark.parametrize(
        "label", [lambda v: v, lambda v: f"v{v}", lambda v: -v * 7919], ids=["int", "str", "negint"]
    )
    def test_batched_selection_equals_scalar_reference(self, p, label):
        rng = random.Random(int(p * 100))
        n = 40
        q_sets, s_adjs = (set(), set()), ({}, {})
        for copy in (0, 1):
            q_sets[copy].update(label(v) for v in range(n) if rng.random() < 0.5)
            for _ in range(150):
                u, v = rng.sample(range(n), 2)
                u, v = label(u), label(v)
                s_adjs[copy].setdefault(u, set()).add(v)
                s_adjs[copy].setdefault(v, set()).add(u)
        edges = sorted({normalize_edge(*map(label, rng.sample(range(n), 2))) for _ in range(60)})
        seed = 11
        samples = _select_labels(edges, q_sets, s_adjs, p=p, seed=seed)
        assert len(samples) == len(edges)
        for e, selected in zip(edges, samples):
            for copy, members in enumerate(selected):
                assert members == self._scalar_selection(
                    e, q_sets[copy], s_adjs[copy], p, seed, copy
                )
