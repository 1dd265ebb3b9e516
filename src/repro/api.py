"""High-level facade: pick the right algorithm for a (problem, model).

The eight algorithm classes in :mod:`repro.core` are the paper's
theorems; this module is the front door a downstream user actually
wants: "count triangles in this stream" — with the model dispatch,
unknown-T calibration and median boosting handled.

    from repro import api
    result = api.estimate(graph, problem="triangles", model="random")
    result = api.estimate(graph, problem="four-cycles", model="adjacency")
"""

from __future__ import annotations

from typing import Any, Optional

from .core import (
    EstimateResult,
    FourCycleAdjacencyDiamond,
    FourCycleArbitraryOnePass,
    FourCycleArbitraryThreePass,
    FourCycleMoment,
    TriangleRandomOrder,
)
from .core.boosting import MedianBoost
from .experiments.calibration import estimate_with_guesses
from .experiments.sweeps import guess_schedule
from .graphs.graph import Graph
from .streams.meter import SpaceMeter
from .streams.models import (
    AdjacencyListStream,
    ArbitraryOrderStream,
    RandomOrderStream,
    StreamSource,
)

PROBLEMS = ("triangles", "four-cycles")
MODELS = ("random", "arbitrary", "adjacency")


def stream_for(graph: Graph, model: str, seed: int = 0) -> StreamSource:
    """A fresh stream of ``graph`` in the requested model."""
    if model == "random":
        return RandomOrderStream(graph, seed=seed)
    if model == "arbitrary":
        return ArbitraryOrderStream.from_graph(graph)
    if model == "adjacency":
        return AdjacencyListStream(graph, seed=seed)
    raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")


def make_counter(
    problem: str,
    model: str,
    t_guess: float,
    epsilon: float = 0.2,
    seed: int = 0,
    **kwargs: Any,
):
    """Instantiate the paper's algorithm for a (problem, model) cell.

    Selection:

    * triangles / random     -> Theorem 2.1
    * triangles / arbitrary  -> Theorem 2.1 (documented caveat: its
      guarantee assumes random order; arbitrary-order triangle
      counting needs two passes — see ``repro.baselines.TwoPassTriangles``)
    * four-cycles / adjacency -> Theorem 4.2 (or Theorem 4.3a with
      ``prefer_one_pass=True``)
    * four-cycles / arbitrary or random -> Theorem 5.3 (or Theorem 5.7
      with ``prefer_one_pass=True`` for dense graphs)
    """
    prefer_one_pass = bool(kwargs.pop("prefer_one_pass", False))
    if problem == "triangles":
        if model == "adjacency":
            raise ValueError(
                "the paper gives no adjacency-list triangle algorithm; "
                "use model='random' or the two-pass baseline"
            )
        return TriangleRandomOrder(
            t_guess=t_guess, epsilon=epsilon, seed=seed, **kwargs
        )
    if problem == "four-cycles":
        if model == "adjacency":
            if prefer_one_pass:
                return FourCycleMoment(
                    t_guess=t_guess, epsilon=epsilon, seed=seed, **kwargs
                )
            return FourCycleAdjacencyDiamond(
                t_guess=t_guess, epsilon=epsilon, seed=seed, **kwargs
            )
        if prefer_one_pass:
            return FourCycleArbitraryOnePass(
                t_guess=t_guess, epsilon=epsilon, seed=seed, **kwargs
            )
        return FourCycleArbitraryThreePass(
            t_guess=t_guess, epsilon=epsilon, seed=seed, **kwargs
        )
    raise ValueError(f"unknown problem {problem!r}; expected one of {PROBLEMS}")


def estimate(
    graph: Graph,
    problem: str = "triangles",
    model: str = "random",
    t_guess: Optional[float] = None,
    epsilon: float = 0.2,
    seed: int = 0,
    boost_copies: int = 1,
    **kwargs: Any,
) -> EstimateResult:
    """One-call estimation on an in-memory graph.

    Args:
        t_guess: the count parameter; ``None`` runs the geometric
            guess schedule (one instance per guess, self-consistency
            selection) and returns the selected instance's estimate.
            The instances run side by side, so the result reports their
            largest pass count and the sum of their space.
        boost_copies: run this many independent copies and take the
            median (the paper's log(1/delta) amplification); with the
            guess schedule, every guess's instance is boosted.
    """

    def counter(guess: float, instance_seed: int):
        def factory(copy_seed: int):
            return make_counter(
                problem, model, t_guess=guess, epsilon=epsilon, seed=copy_seed, **kwargs
            )

        if boost_copies > 1:
            return MedianBoost(factory, copies=boost_copies, seed=instance_seed)
        return factory(instance_seed)

    if t_guess is not None:
        return counter(t_guess, seed).run(stream_for(graph, model, seed=seed))

    outcome = estimate_with_guesses(
        algorithm_factory=counter,
        stream_factory=lambda inner_seed: stream_for(graph, model, seed=inner_seed),
        guesses=guess_schedule(graph.num_edges),
        seed=seed,
    )
    # the guess instances run side by side over the same passes
    meter = SpaceMeter()
    for index, result in enumerate(outcome.results):
        meter.merge(result.space, prefix=f"guess{index}_")
    return EstimateResult(
        estimate=outcome.estimate,
        passes=max(result.passes for result in outcome.results),
        space=meter,
        algorithm=f"auto-{problem}-{model}",
        details={
            "guess_table": outcome.table(),
            "selected_guess": outcome.selected_guess,
        },
    )


def estimate_transitivity(
    graph: Graph,
    t_guess: Optional[float] = None,
    epsilon: float = 0.2,
    seed: int = 0,
    **kwargs: Any,
) -> float:
    """Streaming estimate of the global clustering coefficient.

    The application the paper's introduction leads with: transitivity
    is ``3 T / W`` with ``T`` the triangle count and ``W`` the wedge
    count.  ``T`` comes from the Theorem 2.1 estimator over a
    random-order pass; ``W`` is computed exactly alongside it — degree
    counting needs one counter per touched vertex, O(n) words, which
    the streaming literature treats as free relative to the triangle
    problem.
    """
    total_wedges = 0
    degrees: dict = {}
    for u, v in stream_for(graph, "random", seed=seed).edges():
        for x in (u, v):
            d = degrees.get(x, 0)
            total_wedges += d  # new edge closes d new wedges at x
            degrees[x] = d + 1
    if total_wedges == 0:
        return 0.0
    result = estimate(
        graph,
        problem="triangles",
        model="random",
        t_guess=t_guess,
        epsilon=epsilon,
        seed=seed,
        **kwargs,
    )
    return 3.0 * result.estimate / total_wedges
