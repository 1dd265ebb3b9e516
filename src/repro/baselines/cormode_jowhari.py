"""Cormode–Jowhari-style prefix sampling for random-order triangles.

Cormode & Jowhari (Theor. Comput. Sci. 2017) — the result Theorem 2.1
improves on — count triangles in a random-order stream by storing a
prefix and watching for edges that close wedges inside it, *without*
any heavy-edge machinery.  We implement that estimator in its natural
unbiased form:

    S = first beta*m stream positions;
    X = #(wedge inside S, third edge after S);
    T_hat = X / (3 beta^2 (1 - beta)).

In a uniformly random order each triangle contributes a closed wedge
with probability ``~ 3 beta^2 (1 - beta)``, so ``E[T_hat] = T``.  The
catch — and the reason CJ only certify a (3+eps) approximation in
``Õ(eps^-4.5 m / sqrt(T))`` space — is that a single edge lying in many
triangles makes ``X`` concentrate only after far more space, and the
one-sided failure pushes the guarantee to a constant factor.
Experiment E1 shows exactly this: on heavy-edge workloads this
baseline's error distribution is wide while Theorem 2.1's algorithm
stays within (1 + eps).
"""

from __future__ import annotations

import math
from typing import Dict, Set

from ..core.result import EstimateResult
from ..core.skeleton import check_accuracy, finish, pass_span
from ..graphs.graph import Vertex
from ..streams.meter import SpaceMeter
from ..streams.models import StreamSource


class CormodeJowhariTriangles:
    """Prefix-wedge triangle estimator for random-order streams.

    Args:
        t_guess: the parameter ``T``; the prefix fraction is
            ``beta = min(1, c / (eps * sqrt(T)))``, the same space
            budget Theorem 2.1's rough estimator uses (fair frontier
            comparisons).
        epsilon: nominal accuracy parameter.
        c: prefix-fraction scale.
    """

    name = "cormode-jowhari"

    def __init__(self, t_guess: float, epsilon: float = 0.1, c: float = 1.0) -> None:
        self.t_guess, self.epsilon = check_accuracy(t_guess, epsilon)
        self.c = c

    def run(self, stream: StreamSource) -> EstimateResult:
        meter = SpaceMeter()
        m = stream.num_edges
        if m == 0:
            return finish(self.name, 0.0, 1, meter, {"empty": True})
        beta = min(1.0, self.c / (self.epsilon * math.sqrt(self.t_guess)))
        prefix_len = max(1, math.ceil(beta * m))
        beta_effective = prefix_len / m

        adj: Dict[Vertex, Set[Vertex]] = {}
        closed_wedges = 0
        with pass_span("pass1:prefix-wedges", meter):
            for pos, (u, v) in enumerate(stream.edges(), start=1):
                if pos <= prefix_len:
                    adj.setdefault(u, set()).add(v)
                    adj.setdefault(v, set()).add(u)
                    meter.add("prefix_edges")
                    continue
                set_u = adj.get(u)
                set_v = adj.get(v)
                if not set_u or not set_v:
                    continue
                if len(set_u) > len(set_v):
                    set_u, set_v = set_v, set_u
                closed_wedges += sum(1 for w in set_u if w in set_v)

        if beta_effective >= 1.0:
            # prefix is the whole stream: count triangles inside it exactly
            estimate = float(_count_triangles(adj))
        else:
            denominator = 3.0 * beta_effective**2 * (1.0 - beta_effective)
            estimate = closed_wedges / denominator
        details = {
            "beta": beta_effective,
            "prefix_len": prefix_len,
            "closed_wedges": closed_wedges,
        }
        return finish(self.name, estimate, stream.passes_taken, meter, details)


def _count_triangles(adj: Dict[Vertex, Set[Vertex]]) -> int:
    total = 0
    for u, neighbors in adj.items():
        for v in neighbors:
            if repr(u) < repr(v):
                small, large = (
                    (neighbors, adj[v])
                    if len(neighbors) <= len(adj[v])
                    else (adj[v], neighbors)
                )
                total += sum(1 for w in small if w in large)
    return total // 3
