"""Theorem 4.3a: one-pass four-cycle counting in the adjacency list
model via frequency moments, using Õ(eps^-4 n^4 / T^2) space.

Let ``x`` be the wedge vector (``x[{u,v}]`` = common neighbors of u, v)
and ``z[{u,v}] = min(x[{u,v}], 1/eps)``.  Lemma 4.4 shows

    F2(x) - 4 eps T  <=  F1(z) + 4T  <=  F2(x),

so ``T = (F2(x) - F1(z)) / 4`` up to a (1 + O(eps)) factor whenever the
two moments are estimated to within an additive O(eps T).

* ``F2(x)`` is estimated by the Section 4.2.2 basic estimator
  (:class:`~repro.sketches.wedge_f2.WedgeF2Estimator`), which needs
  only O(1) working counters per copy in the adjacency model.
* ``F1(z)`` is estimated by sampling vertex *pairs* with a hash
  (probability ``p ~ eps^-4 n^2 log n / T^2``), keeping one exact wedge
  counter per sampled pair, capping at ``1/eps`` and rescaling.

The space is polylog(n) when ``T = Omega(n^2 / eps^2)`` — the regime
the theorem targets; outside it the estimate degrades gracefully (the
F2/F1 difference is dominated by noise).
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Dict, Tuple

from ..graphs.graph import Vertex, wedge_pairs
from ..sketches.hashing import KWiseHash, stable_key_array
from ..sketches.wedge_f2 import WedgeF2Estimator
from ..streams.meter import SpaceMeter
from ..streams.models import AdjacencyListStream
from .result import EstimateResult
from .skeleton import check_accuracy, finish, pass_span, require_adjacency


class FourCycleMoment:
    """One-pass adjacency-list C4 counter via F2(x) - F1(z).

    Args:
        t_guess: the parameter ``T`` (sets the pair-sampling rate).
        epsilon: target accuracy; also the cap ``1/eps`` in ``z``.
        c: scale on the pair-sampling constant (paper uses 6).
        groups / group_size: the F2 estimator's median-of-means layout.
            The paper's ``O(1/gamma^2)`` repetitions with ``gamma =
            eps * min(1, eps T / n^2)`` are impractical verbatim; the
            experiments record the layouts used.
        seed: seeds all hash functions.
        use_log_factor: include the ``log n`` factor in the sampling
            probability.
    """

    name = "mv-fourcycle-moment"

    def __init__(
        self,
        t_guess: float,
        epsilon: float = 0.1,
        c: float = 6.0,
        groups: int = 5,
        group_size: int = 8,
        seed: int = 0,
        use_log_factor: bool = True,
    ) -> None:
        self.t_guess, self.epsilon = check_accuracy(t_guess, epsilon)
        self.c = c
        self.groups = groups
        self.group_size = group_size
        self.seed = seed
        self.use_log_factor = use_log_factor

    # ------------------------------------------------------------------
    def run(self, stream: AdjacencyListStream) -> EstimateResult:
        require_adjacency(self, stream)
        n = max(2, stream.num_vertices)
        meter = SpaceMeter()

        log_factor = math.log(n) if self.use_log_factor else 1.0
        pair_prob = min(
            1.0,
            self.c * log_factor * n**2 / (self.epsilon**4 * self.t_guess**2),
        )
        pair_hash = KWiseHash(k=2, seed=self.seed, namespace="fourcycle-moment.pair")
        f2_estimator = WedgeF2Estimator(
            groups=self.groups, group_size=self.group_size, seed=self.seed * 733 + 6
        )
        meter.set("f2_copies", f2_estimator.num_copies)

        wedge_counters: Dict[Tuple[Vertex, Vertex], int] = {}

        with pass_span("pass1:moments", meter):
            for vertex, neighbors in stream.adjacency_lists():
                f2_estimator.process_adjacency_list(vertex, neighbors)
                if pair_prob > 0:
                    # one hash evaluation per block: the O(Delta) buffer
                    pairs = wedge_pairs(neighbors)
                    kept = pair_hash.bernoulli_array(stable_key_array(pairs), pair_prob)
                    for pair in compress(pairs, kept.tolist()):
                        if pair not in wedge_counters:
                            wedge_counters[pair] = 0
                            meter.add("pair_counters")
                        wedge_counters[pair] += 1

        f2_hat = f2_estimator.estimate()
        cap = 1.0 / self.epsilon
        f1_hat = (
            sum(min(count, cap) for count in wedge_counters.values()) / pair_prob
            if pair_prob > 0
            else 0.0
        )
        estimate = max(0.0, (f2_hat - f1_hat) / 4.0)
        details = {
            "f2_hat": f2_hat,
            "f1_hat": f1_hat,
            "pair_probability": pair_prob,
            "sampled_pairs_with_wedges": len(wedge_counters),
            "f2_copies": f2_estimator.num_copies,
        }
        return finish(self.name, estimate, stream.passes_taken, meter, details)
