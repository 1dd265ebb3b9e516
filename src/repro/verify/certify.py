"""Guarantee certification: turn a theorem's (eps, delta) promise into
a PASS / FAIL / INCONCLUSIVE certificate.

For one algorithm the procedure is:

1. Build the plan's vertex-disjoint planted workload (no noise edges,
   so the ground truth ``T`` is exact and the Chebyshev budgets of
   :mod:`repro.verify.budgets` are honest).
2. Instantiate the algorithm at the paper budget for (eps, delta).
3. Run seeded trial batches through the existing
   :class:`~repro.experiments.parallel.ParallelTrialRunner` (via
   :func:`~repro.experiments.runner.run_trials`) — every batch gets a
   namespaced base seed from :func:`repro.seeding.derive_seed`, so the
   whole certification is a pure function of the user seed.
4. After each batch, bound the failure probability
   ``P(|T_hat - T| > eps T)`` with a Wilson (default) or
   Clopper–Pearson interval and stop early:

   * upper bound <= delta       -> **PASS** (certified at confidence),
   * lower bound  > delta       -> **FAIL**,
   * trial budget exhausted     -> **INCONCLUSIVE** (certificate still
     carries the interval, so the result is a bound, never silence).

Batches are checkpointable units (:mod:`repro.resilience.checkpoint`):
an interrupted ``repro verify all`` resumes without rerunning finished
batches, with byte-identical certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import api
from .. import obs as _obs
from ..baselines.cormode_jowhari import CormodeJowhariTriangles
from ..baselines.edge_sampling import EdgeSamplingFourCycles, EdgeSamplingTriangles
from ..baselines.mvv_twopass import TwoPassTriangles
from ..baselines.triest import TriestImpr
from ..baselines.wedge_pair_sampling import WedgePairSamplingFourCycles
from ..core.fourcycle_arbitrary_threepass import FourCycleArbitraryThreePass
from ..core.triangle_random_order import TriangleRandomOrder
from ..experiments.parallel import SeededFactory
from ..experiments.runner import run_trials
from ..graphs.generators import planted_four_cycles, planted_triangles
from ..graphs.graph import Graph
from ..resilience.checkpoint import NULL_CHECKPOINT, CheckpointContext, config_hash
from ..seeding import derive_seed
from .budgets import (
    Budget,
    cormode_jowhari_budget,
    edge_sampling_c4_budget,
    edge_sampling_triangle_budget,
    implied_budget,
    mvv_twopass_budget,
    triest_impr_budget,
    wedge_pair_budget,
)
from .stats import BinomialCI, clopper_pearson_interval, wilson_interval

__all__ = [
    "PLANS",
    "Certificate",
    "GuaranteePlan",
    "certify",
    "certify_all",
    "certify_checkpoint_key",
]

#: The paper's canonical guarantee: (1 +- eps) with constant success
#: probability 2/3 — what ``--budget-from-paper`` certifies.
PAPER_EPSILON = 0.3
PAPER_DELTA = 1.0 / 3.0

WorkloadBuilder = Callable[[int, bool], Tuple[Graph, float]]
BudgetBuilder = Callable[[float, int, int, float, float], Budget]


# ----------------------------------------------------------------------
# planted workloads (noise-free, so truth == planted count exactly)
# ----------------------------------------------------------------------
def _triangle_workload(seed: int, quick: bool) -> Tuple[Graph, float]:
    count = 60 if quick else 200
    graph = planted_triangles(3 * count, count, extra_edges=0, seed=seed)
    return graph, float(count)


def _four_cycle_workload(seed: int, quick: bool) -> Tuple[Graph, float]:
    count = 40 if quick else 150
    graph = planted_four_cycles(4 * count, count, extra_edges=0, seed=seed)
    return graph, float(count)


def _small_four_cycle_workload(seed: int, quick: bool) -> Tuple[Graph, float]:
    # The three-pass algorithm runs a Useful oracle per stored cycle
    # edge; keep its workload compact so certification stays minutes-free.
    count = 20 if quick else 40
    graph = planted_four_cycles(4 * count, count, extra_edges=0, seed=seed)
    return graph, float(count)


# ----------------------------------------------------------------------
# plan registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GuaranteePlan:
    """Everything needed to certify one algorithm against its theorem."""

    name: str
    theorem: str
    problem: str  # "triangles" | "four-cycles"
    model: str  # "random" | "arbitrary" | "adjacency"
    algorithm: Callable[..., Any]
    workload: WorkloadBuilder
    budget: BudgetBuilder
    #: "exact" | "upper-bound" | "implied" — how the theoretical
    #: variance in the budget detail should be read (see verify.variance).
    variance_kind: str = "exact"
    variance_slack: float = 1.0
    seed_param: Optional[str] = "seed"

    def build(
        self, epsilon: float, delta: float, seed: int, quick: bool
    ) -> "BuiltPlan":
        workload_seed = derive_seed("verify:workload", self.name, seed=seed)
        graph, truth = self.workload(workload_seed, quick)
        budget = self.budget(truth, graph.num_edges, graph.num_vertices, epsilon, delta)
        algorithm_factory = SeededFactory(
            target=self.algorithm, kwargs=dict(budget.params), seed_param=self.seed_param
        )
        stream_factory = SeededFactory(
            target=api.stream_for, kwargs={"graph": graph, "model": self.model}
        )
        return BuiltPlan(
            plan=self,
            graph=graph,
            truth=truth,
            budget=budget,
            algorithm_factory=algorithm_factory,
            stream_factory=stream_factory,
        )


@dataclass(frozen=True)
class BuiltPlan:
    plan: GuaranteePlan
    graph: Graph
    truth: float
    budget: Budget
    algorithm_factory: SeededFactory
    stream_factory: SeededFactory


PLANS: Dict[str, GuaranteePlan] = {
    plan.name: plan
    for plan in (
        GuaranteePlan(
            name="edge-sampling-triangles",
            theorem="baseline (Chebyshev)",
            problem="triangles",
            model="arbitrary",
            algorithm=EdgeSamplingTriangles,
            workload=_triangle_workload,
            budget=edge_sampling_triangle_budget,
        ),
        GuaranteePlan(
            name="edge-sampling-fourcycles",
            theorem="baseline (Chebyshev)",
            problem="four-cycles",
            model="arbitrary",
            algorithm=EdgeSamplingFourCycles,
            workload=_four_cycle_workload,
            budget=edge_sampling_c4_budget,
        ),
        GuaranteePlan(
            name="wedge-pair-sampling",
            theorem="KMPV-style comparator",
            problem="four-cycles",
            model="adjacency",
            algorithm=WedgePairSamplingFourCycles,
            workload=_four_cycle_workload,
            budget=wedge_pair_budget,
        ),
        GuaranteePlan(
            name="mvv-twopass-triangles",
            theorem="MVV two-pass (Sec. 2)",
            problem="triangles",
            model="arbitrary",
            algorithm=TwoPassTriangles,
            workload=_triangle_workload,
            budget=mvv_twopass_budget,
        ),
        GuaranteePlan(
            name="cormode-jowhari",
            theorem="Cormode–Jowhari (Sec. 2)",
            problem="triangles",
            model="random",
            algorithm=CormodeJowhariTriangles,
            workload=_triangle_workload,
            budget=cormode_jowhari_budget,
            variance_kind="upper-bound",
            variance_slack=1.6,
            seed_param=None,
        ),
        GuaranteePlan(
            name="triest-impr",
            theorem="TRIEST-impr (KDD'16)",
            problem="triangles",
            model="arbitrary",
            algorithm=TriestImpr,
            workload=_triangle_workload,
            budget=triest_impr_budget,
            variance_kind="upper-bound",
            variance_slack=2.0,
        ),
        GuaranteePlan(
            name="triangle-random-order",
            theorem="Theorem 2.1",
            problem="triangles",
            model="random",
            algorithm=TriangleRandomOrder,
            workload=_triangle_workload,
            budget=implied_budget,
            variance_kind="implied",
            variance_slack=1.0,
        ),
        GuaranteePlan(
            name="threepass-fourcycles",
            theorem="Theorem 5.3",
            problem="four-cycles",
            model="arbitrary",
            algorithm=FourCycleArbitraryThreePass,
            workload=_small_four_cycle_workload,
            budget=implied_budget,
            variance_kind="implied",
            variance_slack=1.0,
        ),
    )
}


# ----------------------------------------------------------------------
# certificates
# ----------------------------------------------------------------------
@dataclass
class Certificate:
    """The outcome of certifying one (algorithm, eps, delta) triple."""

    algorithm: str
    theorem: str
    problem: str
    model: str
    epsilon: float
    delta: float
    confidence: float
    method: str
    trials: int
    failures: int
    ci_low: float
    ci_high: float
    verdict: str  # "PASS" | "FAIL" | "INCONCLUSIVE"
    batches: int
    truth: float
    workload: Dict[str, Any] = field(default_factory=dict)
    budget: Dict[str, float] = field(default_factory=dict)

    @property
    def failure_rate(self) -> float:
        return self.failures / self.trials if self.trials else 0.0

    def to_record(self) -> Dict[str, Any]:
        """A flat, JSON-able summary (one table row)."""
        return {
            "algorithm": self.algorithm,
            "theorem": self.theorem,
            "verdict": self.verdict,
            "epsilon": self.epsilon,
            "delta": round(self.delta, 4),
            "trials": self.trials,
            "failures": self.failures,
            "fail_rate": round(self.failure_rate, 4),
            "ci_high": round(self.ci_high, 4),
            "method": self.method,
            "confidence": self.confidence,
        }


def _interval(method: str, failures: int, trials: int, confidence: float) -> BinomialCI:
    if method == "wilson":
        return wilson_interval(failures, trials, confidence)
    if method == "clopper-pearson":
        return clopper_pearson_interval(failures, trials, confidence)
    raise ValueError(f"unknown interval method {method!r}; use wilson or clopper-pearson")


def certify_checkpoint_key(
    names: Sequence[str],
    epsilon: float,
    delta: float,
    seed: int,
    quick: bool,
    batch_size: int,
    max_trials: int,
) -> str:
    """The config hash a certification checkpoint is keyed by."""
    return config_hash(
        {
            "command": "verify-guarantee",
            "plans": sorted(names),
            "epsilon": epsilon,
            "delta": delta,
            "seed": seed,
            "quick": quick,
            "batch_size": batch_size,
            "max_trials": max_trials,
        }
    )


def certify(
    name: str,
    epsilon: float = PAPER_EPSILON,
    delta: float = PAPER_DELTA,
    *,
    confidence: float = 0.95,
    batch_size: int = 25,
    max_trials: int = 200,
    seed: int = 0,
    n_jobs: int = 1,
    quick: bool = False,
    method: str = "wilson",
    checkpoint: CheckpointContext = NULL_CHECKPOINT,
) -> Certificate:
    """Certify one plan; see the module docstring for the procedure."""
    try:
        plan = PLANS[name]
    except KeyError:
        known = ", ".join(sorted(PLANS))
        raise KeyError(f"unknown guarantee plan {name!r}; known: {known}") from None
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if max_trials < batch_size:
        raise ValueError(
            f"max_trials ({max_trials}) must be at least batch_size ({batch_size})"
        )
    _interval(method, 0, 1, confidence)  # validate method/confidence eagerly
    built = plan.build(epsilon, delta, seed, quick)
    telemetry = _obs.current()

    estimates: List[float] = []
    batches = 0
    num_batches = math.ceil(max_trials / batch_size)
    with telemetry.tracer.span(
        "verify:certify", kind="verify", algorithm=name, epsilon=epsilon, delta=delta
    ):
        for index in range(num_batches):
            remaining = max_trials - len(estimates)
            size = min(batch_size, remaining)
            unit = (
                f"{name}|eps={epsilon}|delta={delta:.6f}|quick={quick}"
                f"|batch={index}x{size}"
            )
            payload = checkpoint.unit(
                unit, lambda: _run_batch(built, name, index, size, seed, n_jobs)
            )
            estimates.extend(payload["estimates"])
            batches += 1
            failures = _count_failures(estimates, built.truth, epsilon)
            ci = _interval(method, failures, len(estimates), confidence)
            if ci.high <= delta or ci.low > delta:
                break
    failures = _count_failures(estimates, built.truth, epsilon)
    ci = _interval(method, failures, len(estimates), confidence)
    if ci.high <= delta:
        verdict = "PASS"
    elif ci.low > delta:
        verdict = "FAIL"
    else:
        verdict = "INCONCLUSIVE"
    if telemetry.enabled:
        telemetry.metrics.inc("verify.trials", len(estimates))
        telemetry.metrics.inc("verify.failures", failures)
        telemetry.metrics.inc(f"verify.verdict.{verdict.lower()}")
    return Certificate(
        algorithm=name,
        theorem=plan.theorem,
        problem=plan.problem,
        model=plan.model,
        epsilon=epsilon,
        delta=delta,
        confidence=confidence,
        method=method,
        trials=len(estimates),
        failures=failures,
        ci_low=ci.low,
        ci_high=ci.high,
        verdict=verdict,
        batches=batches,
        truth=built.truth,
        workload={
            "n": built.graph.num_vertices,
            "m": built.graph.num_edges,
            "truth": built.truth,
            "quick": quick,
        },
        budget={key: round(value, 6) for key, value in built.budget.detail.items()},
    )


def _run_batch(
    built: BuiltPlan, name: str, index: int, size: int, seed: int, n_jobs: int
) -> Dict[str, Any]:
    """One batch of trials; the JSON-able checkpoint unit payload."""
    base_seed = derive_seed("verify:certify", name, index, seed=seed)
    stats = run_trials(
        built.algorithm_factory,
        built.stream_factory,
        truth=built.truth,
        trials=size,
        base_seed=base_seed,
        n_jobs=n_jobs,
    )
    return {"estimates": list(stats.estimates), "base_seed": base_seed}


def _count_failures(estimates: Sequence[float], truth: float, epsilon: float) -> int:
    threshold = epsilon * truth
    return sum(1 for estimate in estimates if abs(estimate - truth) > threshold)


def certify_all(
    names: Optional[Sequence[str]] = None,
    epsilon: float = PAPER_EPSILON,
    delta: float = PAPER_DELTA,
    **kwargs: Any,
) -> List[Certificate]:
    """Certify every plan (or the named subset), in registry order."""
    selected = list(names) if names else sorted(PLANS)
    return [certify(name, epsilon, delta, **kwargs) for name in selected]
