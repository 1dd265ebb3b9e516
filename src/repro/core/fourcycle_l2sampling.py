"""Theorem 4.3b: one-pass four-cycle counting in the adjacency list
model via l2 sampling, using Õ(Delta + eps^-2 n^2 / T) space.

With ``x`` the wedge vector, draw pairs ``uv`` with probability
``x_uv^2 / F2(x)`` and let the indicator ``X`` be 1 with probability
``(x_uv - 1) / (4 x_uv)``.  Then

    E[X] = sum_uv (x_uv^2 / F2) * (x_uv - 1)/(4 x_uv)
         = (sum_uv C(x_uv, 2) / 2) / F2  =  T / F2(x),

so ``mean(X) * F2_hat`` estimates ``T``.  Since ``F2(x) <= n^2 + 6T``,
``O(eps^-2 (n^2 + T)/T log n)`` samples suffice (paper Section 4.2.4).

Implementation: each adjacency block of length ``d`` is expanded into
its ``C(d, 2)`` wedge updates (this is the O(Delta) working-space step
the paper describes) and fed to

* a :class:`~repro.sketches.wedge_f2.WedgeF2Estimator` for ``F2(x)``
  (the paper's own basic estimator — an "existing frequency moment
  algorithm" in its terms), and
* an :class:`~repro.sketches.l2_sampler.L2SamplerBank` whose successful
  extractions provide the ``(uv, x_uv)`` samples.  The returned value
  estimate is rounded to the nearest positive integer — the wedge
  vector is integral, so CountSketch recovery is typically exact.
"""

from __future__ import annotations

from typing import List, Set

from ..graphs.graph import Vertex, normalize_edge
from ..seeding import component_rng
from ..sketches.l2_sampler import L2SamplerBank
from ..sketches.wedge_f2 import WedgeF2Estimator
from ..streams.meter import SpaceMeter
from ..streams.models import AdjacencyListStream
from .result import EstimateResult
from .skeleton import check_accuracy, finish, pass_span, require_adjacency


class FourCycleL2Sampling:
    """One-pass adjacency-list C4 counter via l2 samples of ``x``.

    Args:
        t_guess: the parameter ``T`` (reporting only; sample count and
            sketch width are explicit knobs).
        epsilon: target accuracy.
        num_samplers: size of the l2-sampler bank (the paper's ``r``).
        sampler_width / sampler_rows: CountSketch geometry per sampler.
        accept_scale: precision-sampling acceptance scale (success
            probability of one sampler is ~ 1/accept_scale).
        groups / group_size: F2 estimator layout.
        seed: seeds all hashes and the Bernoulli coin.
    """

    name = "mv-fourcycle-l2"

    def __init__(
        self,
        t_guess: float,
        epsilon: float = 0.2,
        num_samplers: int = 48,
        sampler_width: int = 512,
        sampler_rows: int = 5,
        accept_scale: float = 4.0,
        groups: int = 5,
        group_size: int = 8,
        seed: int = 0,
    ) -> None:
        self.t_guess, self.epsilon = check_accuracy(t_guess, epsilon)
        if num_samplers < 1:
            raise ValueError("need at least one l2 sampler")
        self.num_samplers = num_samplers
        self.sampler_width = sampler_width
        self.sampler_rows = sampler_rows
        self.accept_scale = accept_scale
        self.groups = groups
        self.group_size = group_size
        self.seed = seed

    # ------------------------------------------------------------------
    def run(self, stream: AdjacencyListStream) -> EstimateResult:
        require_adjacency(self, stream)
        meter = SpaceMeter()
        f2_estimator = WedgeF2Estimator(
            groups=self.groups, group_size=self.group_size, seed=self.seed
        )
        bank = L2SamplerBank(
            count=self.num_samplers,
            seed=self.seed,
            rows=self.sampler_rows,
            width=self.sampler_width,
            accept_scale=self.accept_scale,
        )
        meter.set("sampler_cells", bank.space_items)
        meter.set("f2_copies", f2_estimator.num_copies)

        vertices: Set[Vertex] = set()
        max_degree = 0
        with pass_span("pass1:sketch", meter):
            for vertex, neighbors in stream.adjacency_lists():
                vertices.add(vertex)
                vertices.update(neighbors)
                max_degree = max(max_degree, len(neighbors))
                meter.set("adjacency_buffer", len(neighbors))  # the O(Delta) buffer
                f2_estimator.process_adjacency_list(vertex, neighbors)
                ordered = sorted(neighbors, key=repr)
                for i, u in enumerate(ordered):
                    for v in ordered[i + 1 :]:
                        bank.update(normalize_edge(u, v))

        with pass_span("post:extract", meter, kind="phase") as span:
            f2_hat = f2_estimator.estimate()
            ordered_vertices = sorted(vertices, key=repr)
            candidates = [
                normalize_edge(u, v)
                for i, u in enumerate(ordered_vertices)
                for v in ordered_vertices[i + 1 :]
            ]
            samples = bank.samples(candidates, f2_hat)

            rng = component_rng("fourcycle-l2.coin", seed=self.seed)
            successes = 0
            values: List[int] = []
            for _pair, f_estimate in samples:
                x_value = max(1, round(abs(f_estimate)))
                values.append(x_value)
                if rng.random() < (x_value - 1) / (4.0 * x_value):
                    successes += 1
            ratio = successes / len(samples) if samples else 0.0
            estimate = ratio * f2_hat
            span.set("num_samples", len(samples))

        details = {
            "f2_hat": f2_hat,
            "num_samples": len(samples),
            "bernoulli_successes": successes,
            "sampled_values": values,
            "max_degree": max_degree,
            "num_candidate_pairs": len(candidates),
            "sketch_saturation": bank.saturation,
        }
        return finish(self.name, estimate, stream.passes_taken, meter, details)
