"""The three benchmark workloads and their correctness gates.

A workload builds one graph from the workload seed (``setup``), then
measures *rounds*.  A round runs each of the workload's algorithms once
through its public ``run(stream)`` entry point, every algorithm on its
own fresh stream instance of one permutation / vertex order, exactly as
``run_trials`` gives every trial a fresh stream.  The multi-pass
workload instead runs its rounds as trials of ``run_trials`` through
the process pool.

Every estimate is checked: it must not raise, must take the theorem's
pass count, must report a sampling (not saturated) regime in
``result.details``, and must land inside the algorithm's band around the
exact count.  Each algorithm's median relative error over the run must
also stay inside a tighter band, which catches a bias that no single
estimate shows.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.baselines.triest import TriestImpr
from repro.core.fourcycle_arbitrary_threepass import FourCycleArbitraryThreePass
from repro.core.fourcycle_l2sampling import FourCycleL2Sampling
from repro.core.fourcycle_moment import FourCycleMoment
from repro.core.triangle_random_order import TriangleRandomOrder
from repro.experiments import groundtruth
from repro.experiments.workloads import Workload, build_workload
from repro.seeding import derive_seed
from repro.streams.models import (
    AdjacencyListStream,
    ArbitraryOrderStream,
    RandomOrderStream,
    StreamSource,
)

GRAPH_SEED = 0  # every run measures the same graph; see ``setup``

# Sampling targets.  Each paper algorithm's constant ``c`` is solved from
# the workload's exact count so that its sampling probability sits at the
# target, strictly below 1: the benchmark must never time the vacuous
# "exact mode" in which every probability saturates.
A1_ORACLE_PROB = 0.45  # A1's oracle level; the level below samples at 0.9
A4_PAIR_PROB = 0.05
A6_EDGE_PROB = 0.45


@dataclass(frozen=True)
class Algorithm:
    """One algorithm of a workload and the checks on its estimates."""

    key: str  # names the algorithm in notes and failure reasons
    cls: type
    passes: int  # the theorem's pass count
    max_ratio: float  # an estimate must lie in [0, max_ratio * truth]
    median_band: float  # bound on the run's median relative error
    # (details, kwargs) -> None when the run was sampling, else why not
    regime: Callable[[Dict[str, Any], Dict[str, Any]], Optional[str]]
    kwargs: Callable[[Workload, float], Dict[str, Any]]  # (workload, truth)


def _a1_kwargs(workload: Workload, truth: float) -> Dict[str, Any]:
    epsilon = 0.7
    top_level = max(0, math.ceil(math.log2(math.sqrt(truth))))
    # oracle_prob = 10 c / eps^2 / 2^L without the log factor
    c = A1_ORACLE_PROB * (2**top_level) * epsilon**2 / 10.0
    return {"t_guess": truth, "epsilon": epsilon, "c": c, "use_log_factor": False}


def _a4_kwargs(workload: Workload, truth: float) -> Dict[str, Any]:
    epsilon = 0.3
    n = max(2, workload.n)
    # pair_prob = c ln(n) n^2 / (eps^4 T^2)
    c = A4_PAIR_PROB * epsilon**4 * truth**2 / (math.log(n) * n**2)
    return {"t_guess": truth, "epsilon": epsilon, "c": c}


def _a6_kwargs(workload: Workload, truth: float) -> Dict[str, Any]:
    epsilon = 0.3
    n = max(2, workload.n)
    # p = c log2(n) / (eps^2 T^(1/4))
    c = A6_EDGE_PROB * epsilon**2 * truth**0.25 / math.log2(n)
    return {"t_guess": truth, "epsilon": epsilon, "c": c}


def _below_one(*keys: str) -> Callable[..., Optional[str]]:
    def check(details: Dict[str, Any], kwargs: Dict[str, Any]) -> Optional[str]:
        for key in keys:
            if not 0.0 < float(details[key]) < 1.0:
                return f"saturated regime: {key}={details[key]}"
        return None

    return check


def _l2_regime(details: Dict[str, Any], kwargs: Dict[str, Any]) -> Optional[str]:
    if details["num_samples"] < 1:
        return "no l2 sample was accepted"
    return None


def _triest_regime(details: Dict[str, Any], kwargs: Dict[str, Any]) -> Optional[str]:
    if details["stream_length"] <= kwargs["memory"]:
        return f"reservoir holds the whole stream ({details['stream_length']} edges)"
    return None


@dataclass(frozen=True)
class WorkloadSpec:
    """A named workload: graph family, sizes, stream model, algorithms."""

    name: str
    family: str  # repro.experiments.workloads registry name
    params: Dict[str, Any]  # full-size generator parameters
    quick_params: Dict[str, Any]  # self-test sizes
    truth_key: str  # "triangles" or "four_cycles"
    model: str  # "random-order" | "adjacency-list" | "arbitrary-order"
    algorithms: List[Algorithm]
    pooled: bool = False  # rounds are run_trials trials through the pool


def _triest() -> Algorithm:
    return Algorithm(
        key="triest",
        cls=TriestImpr,
        passes=1,
        max_ratio=6.0,
        median_band=0.5,
        regime=_triest_regime,
        # a reservoir of 5% of the stream: its error is on A1's scale, so
        # the pooled median error of the workload sits where both are dense
        kwargs=lambda workload, truth: {"memory": workload.m // 20},
    )


def _a1() -> Algorithm:
    return Algorithm(
        key="a1",
        cls=TriangleRandomOrder,
        passes=1,
        max_ratio=4.0,
        median_band=0.5,
        regime=_below_one("oracle_prob", "prefix_fraction_r"),
        kwargs=_a1_kwargs,
    )


def _a5() -> Algorithm:
    return Algorithm(
        key="a5",
        cls=FourCycleL2Sampling,
        passes=1,
        max_ratio=6.0,
        median_band=0.8,
        regime=_l2_regime,
        kwargs=lambda workload, truth: {
            "t_guess": truth,
            "epsilon": 0.3,
            "num_samplers": 16,
        },
    )


def _a4() -> Algorithm:
    return Algorithm(
        key="a4",
        cls=FourCycleMoment,
        passes=1,
        max_ratio=6.0,
        median_band=0.6,
        regime=_below_one("pair_probability"),
        kwargs=_a4_kwargs,
    )


def _a6() -> Algorithm:
    return Algorithm(
        key="a6",
        cls=FourCycleArbitraryThreePass,
        passes=3,
        max_ratio=3.0,
        median_band=0.3,
        regime=_below_one("p"),
        kwargs=_a6_kwargs,
    )


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        # edge-at-a-time: scalar hashing, set work, SpaceMeter; no sketch, no pool
        WorkloadSpec(
            name="triangle-edge-stream",
            family="social-like-triangles",
            params={"n": 850, "attach": 15},
            quick_params={"n": 400, "attach": 6},
            truth_key="triangles",
            model="random-order",
            algorithms=[_a1(), _triest()],
        ),
        # block-at-a-time: C(d,2) wedge updates into sketches, n^2 extraction
        WorkloadSpec(
            name="fourcycle-adjacency-sketch",
            family="dense-gnp",
            params={"n": 32, "p": 0.5},
            quick_params={"n": 20, "p": 0.5},
            truth_key="four_cycles",
            model="adjacency-list",
            algorithms=[_a5(), _a4()],
        ),
        # three passes, tuple-key hashing, Useful post-processing, process pool
        WorkloadSpec(
            name="fourcycle-multipass-trials",
            family="medium-diamonds",
            params={"n": 2000, "diamond_size": 12, "count": 40, "noise_edges": 400},
            quick_params={"n": 600, "diamond_size": 10, "count": 16, "noise_edges": 100},
            truth_key="four_cycles",
            model="arbitrary-order",
            algorithms=[_a6()],
            pooled=True,
        ),
    )
}


def pool_jobs() -> int:
    """Worker count of the pooled workload: ``min(nproc, 4)``."""
    return min(os.cpu_count() or 1, 4)


@dataclass
class Setup:
    """What ``setup`` built: graph, truth, stream inputs, algorithm kwargs."""

    spec: WorkloadSpec
    workload: Workload
    truth: float
    order: List[Any] = field(default_factory=list)  # arbitrary-order edges
    kwargs: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def stream(self, stream_seed: int) -> StreamSource:
        """A fresh stream instance (one pass budget) for one estimate."""
        model = self.spec.model
        if model == "random-order":
            return RandomOrderStream(self.workload.graph, seed=stream_seed)
        if model == "adjacency-list":
            return AdjacencyListStream(self.workload.graph, seed=stream_seed)
        return ArbitraryOrderStream(self.order)


def setup(spec: WorkloadSpec, seed: int, quick: bool) -> Setup:
    """Generate the graph, its exact counts and one stream instance.

    The ground-truth cache is cleared first so every call measures a
    cold set-up, as a fresh process would pay it.  The graph is pinned
    (``GRAPH_SEED``): runs with different seeds differ in stream orders
    and algorithm seeds but measure the same graph, so a change in the
    graph's size cannot pass for a change in speed.
    """
    groundtruth.clear_cache()
    params = dict(spec.quick_params if quick else spec.params)
    workload = build_workload(spec.family, seed=GRAPH_SEED, **params)
    truth = float(getattr(workload, spec.truth_key))
    if truth < 1:
        raise RuntimeError(f"{spec.name}: workload has no {spec.truth_key}")
    built = Setup(spec=spec, workload=workload, truth=truth)
    if spec.model == "arbitrary-order":
        order = workload.graph.edge_list()
        random.Random(derive_seed("perfbench:arbitrary-order", seed=seed)).shuffle(order)
        built.order = order
    built.stream(derive_seed("perfbench:setup-stream", seed=seed))
    for algorithm in spec.algorithms:
        built.kwargs[algorithm.key] = algorithm.kwargs(workload, truth)
    return built


def check_estimate(
    algorithm: Algorithm, result: Any, kwargs: Dict[str, Any], truth: float
) -> Optional[str]:
    """None when the estimate passes every gate, else the reason.

    Every estimate runs on a fresh stream instance, so ``result.passes``
    is exactly the number of passes this estimate took.
    """
    if result.passes != algorithm.passes:
        return f"took {result.passes} passes, the theorem uses {algorithm.passes}"
    regime = algorithm.regime(result.details, kwargs)
    if regime is not None:
        return regime
    estimate = result.estimate
    if not math.isfinite(estimate) or not 0.0 <= estimate <= algorithm.max_ratio * truth:
        return (
            f"estimate {estimate:.6g} outside [0, {algorithm.max_ratio} x truth "
            f"{truth:.6g}]"
        )
    return None
