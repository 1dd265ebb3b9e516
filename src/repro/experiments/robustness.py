"""E16 — estimate accuracy under injected stream faults.

The paper's guarantees hold for clean streams; this experiment measures
what actually happens when they are not.  For each algorithm a
corrupted random-order stream is built per trial —

    ``ValidatedStream(FaultyStream(RandomOrderStream(G, seed), plan), "repair")``

— where the :class:`~repro.resilience.faults.FaultPlan` mixes
duplicates, self-loops, reversed endpoints and drops at a total fault
rate swept over :data:`FAULT_RATES`.  The validation layer repairs
what it can (canonicalize + dedupe); dropped edges are unrecoverable,
so the measured relative-error curve quantifies each algorithm's
sensitivity to missing data.

Covered: the paper's random-order triangle algorithm (Thm 2.1), the
three-pass four-cycle algorithm (Thm 5.3), and two baselines
(Cormode–Jowhari triangles, edge-sampling four-cycles) — accuracy under
corruption is exactly where the heavy/light decomposition and naive
sampling can diverge.

Every trial stays a pure function of its seeds (fault injection is
seeded, corruption is materialized at stream construction), so E16 is
as reproducible — and as parallelizable — as the clean experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from ..baselines import CormodeJowhariTriangles, EdgeSamplingFourCycles
from ..core import FourCycleArbitraryThreePass, TriangleRandomOrder
from ..graphs.graph import Graph
from ..resilience.checkpoint import NULL_CHECKPOINT, CheckpointContext
from ..resilience.faults import FaultPlan, FaultyStream
from ..streams import POLICY_REPAIR, RandomOrderStream, ValidatedStream
from .parallel import SeededFactory
from .runner import run_trials
from .workloads import build_workload

Record = Dict[str, Any]

#: The fault-rate x-axis of the robustness curve.
FAULT_RATES = (0.0, 0.02, 0.05, 0.1, 0.2)

#: Offset separating the fault-injection RNG from the shuffle RNG, so a
#: stream's permutation and its corruption draw independent randomness
#: from the same trial seed.
FAULT_SEED_OFFSET = 7919


@dataclass(frozen=True)
class FaultedStreamFactory:
    """Picklable ``seed -> validated corrupted stream`` factory.

    Composes the full resilience stack: a fresh random-order permutation
    of ``graph``, a seeded corruption at ``rate``
    (:meth:`FaultPlan.mixed`), and a validation layer applying
    ``policy``.  A zero rate skips the fault layer entirely but keeps
    the validator, so the rate-0 row measures the repair layer's own
    (intended: zero) distortion.
    """

    graph: Graph
    rate: float
    policy: str = POLICY_REPAIR

    def __call__(self, seed: int):
        base = RandomOrderStream(self.graph, seed=seed)
        if self.rate:
            plan = FaultPlan.mixed(self.rate)
            base = FaultyStream(base, plan, seed=seed + FAULT_SEED_OFFSET)
        return ValidatedStream(base, self.policy)


def robustness_records(
    seed: int = 0,
    n_jobs: int = 1,
    trials: int = 3,
    checkpoint: CheckpointContext = NULL_CHECKPOINT,
) -> List[Record]:
    """The E16 record table: relative error vs fault rate per algorithm."""
    triangle_workload = build_workload(
        "light-triangles", n=300, num_triangles=60, noise_edges=260
    )
    four_cycle_workload = build_workload(
        "sparse-four-cycles", n=400, num_cycles=50, noise_edges=100
    )
    t3 = triangle_workload.triangles
    c4 = four_cycle_workload.four_cycles
    algorithms: List[tuple] = [
        (
            "mv-triangle-ro (Thm 2.1)",
            triangle_workload,
            float(t3),
            SeededFactory(TriangleRandomOrder, {"t_guess": t3, "epsilon": 0.3}),
        ),
        (
            "three-pass (Thm 5.3)",
            four_cycle_workload,
            float(c4),
            SeededFactory(
                FourCycleArbitraryThreePass,
                dict(t_guess=c4, epsilon=0.3, eta=2.0, c=0.6, use_log_factor=False),
            ),
        ),
        (
            "cormode-jowhari",
            triangle_workload,
            float(t3),
            SeededFactory(
                CormodeJowhariTriangles,
                {"t_guess": t3, "epsilon": 0.3},
                seed_param=None,
            ),
        ),
        (
            "edge-sampling-4c",
            four_cycle_workload,
            float(c4),
            SeededFactory(EdgeSamplingFourCycles, {"p": 0.5}),
        ),
    ]
    rows: List[Record] = []
    for name, workload, truth, algorithm_factory in algorithms:
        for rate in FAULT_RATES:

            def _measure(
                _name=name,
                _workload=workload,
                _truth=truth,
                _factory=algorithm_factory,
                _rate=rate,
            ) -> Record:
                stats = run_trials(
                    _factory,
                    FaultedStreamFactory(graph=_workload.graph, rate=_rate),
                    truth=_truth,
                    trials=trials,
                    base_seed=seed,
                    n_jobs=n_jobs,
                )
                return {
                    "algorithm": _name,
                    "fault_rate": _rate,
                    "truth": _truth,
                    "median_estimate": round(stats.median_estimate, 1),
                    "median_rel_err": round(stats.median_relative_error, 4),
                    "passes": stats.passes,
                }

            rows.append(
                checkpoint.unit(f"robustness:{name}@rate={rate!r}", _measure)
            )
    return rows
