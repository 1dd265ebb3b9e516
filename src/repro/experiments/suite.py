"""Programmatic experiment suite.

The full experiments live in ``benchmarks/`` as pytest-benchmark
targets with assertions; this module provides *light* variants that
run in seconds from plain Python (or ``python -m repro run-experiment
E9``) and return the same kind of record tables.  They are the demo /
smoke tier: smaller workloads, fewer trials, no assertions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from .. import obs as _obs
from ..baselines import CormodeJowhariTriangles
from ..core import (
    FourCycleAdjacencyDiamond,
    FourCycleArbitraryThreePass,
    FourCycleDistinguisher,
    TriangleRandomOrder,
    UsefulAlgorithm,
    bernoulli_vertex_sample,
)
from ..graphs import check_lemma51
from ..lowerbounds import (
    DisjointnessInstance,
    build_two_stars,
    solve_disjointness_with_distinguisher,
)
from ..resilience.checkpoint import NULL_CHECKPOINT, CheckpointContext
from ..streams import AdjacencyListStream, RandomOrderStream
from .parallel import SeededFactory
from .robustness import robustness_records
from .runner import run_trials
from .workloads import build_workload

Record = Dict[str, Any]
# (seed, *, n_jobs, checkpoint) -> records
ExperimentRunner = Callable[..., List[Record]]


@dataclass(frozen=True)
class Experiment:
    """One registered light experiment."""

    id: str
    title: str
    run: ExperimentRunner


def _e1_light(
    seed: int,
    n_jobs: int = 1,
    checkpoint: CheckpointContext = NULL_CHECKPOINT,
) -> List[Record]:
    workload = build_workload(
        "heavy-and-light-triangles", n=900, heavy_triangles=200, light_triangles_count=80
    )
    truth = workload.triangles
    rows = []
    for name, factory in (
        (
            "mv-triangle-ro (Thm 2.1)",
            SeededFactory(TriangleRandomOrder, {"t_guess": truth, "epsilon": 0.3}),
        ),
        (
            "cormode-jowhari",
            SeededFactory(
                CormodeJowhariTriangles,
                {"t_guess": truth, "epsilon": 0.3},
                seed_param=None,
            ),
        ),
    ):

        def _measure(_name=name, _factory=factory) -> Record:
            stats = run_trials(
                _factory,
                SeededFactory(RandomOrderStream, {"graph": workload.graph}),
                truth=truth,
                trials=5,
                base_seed=seed,
                n_jobs=n_jobs,
            )
            return {
                "algorithm": _name,
                "truth": truth,
                "median_estimate": round(stats.median_estimate, 1),
                "median_rel_err": round(stats.median_relative_error, 4),
            }

        rows.append(checkpoint.unit(f"E1:{name}", _measure))
    return rows


def _e4_light(
    seed: int,
    n_jobs: int = 1,
    checkpoint: CheckpointContext = NULL_CHECKPOINT,
) -> List[Record]:
    import random

    from ..graphs import erdos_renyi

    graph = erdos_renyi(120, 0.1, seed=seed)
    w = graph.num_edges
    m_bound = 1.5 * w
    rows = []
    for trial in range(5):

        def _measure(_trial=trial) -> Record:
            r1, r2 = bernoulli_vertex_sample(
                graph.vertices(), 0.5, seed=seed * 10 + _trial
            )
            algorithm = UsefulAlgorithm(r1=r1, r2=r2, p=0.5, m_bound=m_bound)
            order = sorted(graph.vertices())
            random.Random(seed * 10 + _trial).shuffle(order)
            observable = algorithm.r1 | algorithm.r2
            for v in order:
                algorithm.process_vertex(
                    v, {u: 1.0 for u in graph.neighbors(v) if u in observable}
                )
            estimate = algorithm.estimate()
            return {
                "trial": _trial,
                "W": w,
                "estimate": round(estimate, 1),
                "error_over_M": round(abs(estimate - w) / m_bound, 4),
            }

        rows.append(checkpoint.unit(f"E4:trial={trial}", _measure))
    return rows


def _e5_light(
    seed: int,
    n_jobs: int = 1,
    checkpoint: CheckpointContext = NULL_CHECKPOINT,
) -> List[Record]:
    workload = build_workload(
        "diamond-mixture",
        n=900,
        large=(20,) * 4,
        medium=(8,) * 8,
        small=(3,) * 10,
        noise_edges=200,
    )
    truth = workload.four_cycles

    def _measure() -> Record:
        stats = run_trials(
            SeededFactory(FourCycleAdjacencyDiamond, {"t_guess": truth, "epsilon": 0.3}),
            SeededFactory(AdjacencyListStream, {"graph": workload.graph}),
            truth=truth,
            trials=3,
            base_seed=seed,
            n_jobs=n_jobs,
        )
        return {
            "algorithm": "diamond (Thm 4.2)",
            "truth": truth,
            "median_estimate": round(stats.median_estimate, 1),
            "median_rel_err": round(stats.median_relative_error, 4),
            "passes": stats.passes,
        }

    return [checkpoint.unit("E5:diamond", _measure)]


def _e8_light(
    seed: int,
    n_jobs: int = 1,
    checkpoint: CheckpointContext = NULL_CHECKPOINT,
) -> List[Record]:
    workload = build_workload(
        "medium-diamonds", n=2000, diamond_size=10, count=40, noise_edges=400
    )
    truth = workload.four_cycles

    def _measure() -> Record:
        stats = run_trials(
            SeededFactory(
                FourCycleArbitraryThreePass,
                dict(t_guess=truth, epsilon=0.3, eta=2.0, c=0.6, use_log_factor=False),
            ),
            SeededFactory(RandomOrderStream, {"graph": workload.graph}),
            truth=truth,
            trials=3,
            base_seed=seed,
            n_jobs=n_jobs,
        )
        return {
            "algorithm": "three-pass (Thm 5.3)",
            "truth": truth,
            "median_estimate": round(stats.median_estimate, 1),
            "median_rel_err": round(stats.median_relative_error, 4),
            "passes": stats.passes,
        }

    return [checkpoint.unit("E8:three-pass", _measure)]


def _e9_light(
    seed: int,
    n_jobs: int = 1,
    checkpoint: CheckpointContext = NULL_CHECKPOINT,
) -> List[Record]:
    yes = build_workload("sparse-four-cycles", n=1000, num_cycles=150, noise_edges=200)
    no = build_workload("four-cycle-free", n_triangles=300)
    rows = []
    for label, workload in (("T cycles", yes), ("cycle-free", no)):

        def _measure(_label=label, _workload=workload) -> Record:
            hits = 0
            trials = 6
            for trial in range(trials):
                algorithm = FourCycleDistinguisher(
                    t_guess=max(1, yes.four_cycles), c=3.0, seed=seed * 10 + trial
                )
                hits += algorithm.decide(
                    RandomOrderStream(_workload.graph, seed=seed * 10 + trial)
                )
            return {"instance": _label, "detection_rate": hits / trials}

        rows.append(checkpoint.unit(f"E9:{label}", _measure))
    return rows


def _e11_light(
    seed: int,
    n_jobs: int = 1,
    checkpoint: CheckpointContext = NULL_CHECKPOINT,
) -> List[Record]:
    rows = []
    for answer in (0, 1):

        def _measure(_answer=answer) -> Record:
            instance = DisjointnessInstance.random_with_answer(20, _answer, seed=seed)
            construction = build_two_stars(instance, k=10)
            decided, space = solve_disjointness_with_distinguisher(
                instance,
                k=10,
                distinguisher_factory=lambda t: FourCycleDistinguisher(
                    t_guess=t, c=3.0, seed=seed
                ),
                seed=seed,
            )
            return {
                "DISJ_answer": _answer,
                "four_cycles": construction.expected_four_cycles,
                "protocol_decided": decided,
                "space_words": space,
            }

        rows.append(checkpoint.unit(f"E11:answer={answer}", _measure))
    return rows


def _e12_light(
    seed: int,
    n_jobs: int = 1,
    checkpoint: CheckpointContext = NULL_CHECKPOINT,
) -> List[Record]:
    workload = build_workload(
        "diamond-mixture",
        n=700,
        large=(20,) * 3,
        medium=(8,) * 6,
        small=(3,) * 10,
        noise_edges=150,
    )
    rows = []
    for eta in (2.0, 8.0, 90.0):

        def _measure(_eta=eta) -> Record:
            report = check_lemma51(workload.graph, _eta)
            return {
                "eta": _eta,
                "T": report.total_cycles,
                "cycles_with_<=1_bad": report.cycles_with_at_most_one_bad,
                "bound": round(report.bound, 1),
                "holds": report.holds,
            }

        rows.append(checkpoint.unit(f"E12:eta={eta}", _measure))
    return rows


def _e16_light(
    seed: int,
    n_jobs: int = 1,
    checkpoint: CheckpointContext = NULL_CHECKPOINT,
) -> List[Record]:
    return robustness_records(
        seed=seed, n_jobs=n_jobs, trials=3, checkpoint=checkpoint
    )


SUITE: Dict[str, Experiment] = {
    experiment.id: experiment
    for experiment in (
        Experiment("E1", "Thm 2.1 vs CJ on a heavy-edge workload (light)", _e1_light),
        Experiment("E4", "Lemma 3.1 Useful Algorithm (light)", _e4_light),
        Experiment("E5", "Thm 4.2 diamond algorithm (light)", _e5_light),
        Experiment("E8", "Thm 5.3 three-pass algorithm (light)", _e8_light),
        Experiment("E9", "Thm 5.6 distinguisher (light)", _e9_light),
        Experiment("E11", "Thm 5.8 DISJ reduction (light)", _e11_light),
        Experiment("E12", "Lemma 5.1 exact check (light)", _e12_light),
        Experiment("E16", "robustness: error vs fault rate (light)", _e16_light),
    )
}


def experiment_checkpoint_key(experiment_id: str, seed: int) -> str:
    """The config hash guarding an experiment's checkpoint file."""
    from ..resilience.checkpoint import config_hash

    return config_hash(
        {"kind": "run-experiment", "experiment": experiment_id.upper(), "seed": seed}
    )


def run_experiment(
    experiment_id: str,
    seed: int = 0,
    n_jobs: int = 1,
    checkpoint: Optional[CheckpointContext] = None,
) -> List[Record]:
    """Run one light experiment and return its record table.

    ``n_jobs`` fans each experiment's Monte Carlo trials across a
    process pool; results are identical for any value (see
    :mod:`repro.experiments.parallel`).

    ``checkpoint`` (a
    :class:`~repro.resilience.checkpoint.CheckpointContext`) persists
    each completed row; a resumed run replays cached rows from the file
    and computes only the rest, yielding records identical to an
    uninterrupted run.  The resume lineage is recorded into the run
    manifest when telemetry is active.
    """
    key = experiment_id.upper()
    if key not in SUITE:
        available = ", ".join(sorted(SUITE))
        raise KeyError(
            f"no light experiment {experiment_id!r}; available: {available} "
            "(the full set lives in benchmarks/)"
        )
    if checkpoint is None:
        checkpoint = NULL_CHECKPOINT
    experiment = SUITE[key]
    telemetry = _obs.current()
    with telemetry.tracer.span(
        f"experiment:{key}", kind="experiment", seed=seed, n_jobs=n_jobs
    ):
        records = experiment.run(seed, n_jobs=n_jobs, checkpoint=checkpoint)
    if telemetry.enabled:
        payload = {
            "experiment": key,
            "title": experiment.title,
            "seed": seed,
            "n_jobs": n_jobs,
            "records": records,
        }
        lineage = checkpoint.lineage()
        if lineage is not None:
            payload["checkpoint"] = lineage
        telemetry.record_run(f"experiment:{key}", payload)
    return records
