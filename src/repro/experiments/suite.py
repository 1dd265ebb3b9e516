"""Programmatic experiment suite and the measured contributions table.

The full experiments live in ``benchmarks/``, the claims tier: plain
pytest files that print each table and assert its claim, measuring
their trial cells through :meth:`Cell.measure`.  This module provides
*light* variants that run in seconds from plain Python (or ``python -m
repro run-experiment E9``) and return the same kind of record tables.
They are the demo / smoke tier: smaller workloads, fewer trials, no
assertions.

Every (workload, algorithm, stream, knobs) trial cell is defined once,
in :data:`CELLS`.  Two views read it: the light experiments E1, E5 and
E8, and :func:`paper_table`, the paper's Section 1.1 contributions table
with measured columns (``python -m repro paper-table``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs as _obs
from ..baselines import CormodeJowhariTriangles
from ..core import (
    FourCycleAdjacencyDiamond,
    FourCycleArbitraryOnePass,
    FourCycleArbitraryThreePass,
    FourCycleDistinguisher,
    FourCycleMoment,
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
from ..resilience.checkpoint import NULL_CHECKPOINT, CheckpointContext, config_hash
from ..streams import AdjacencyListStream, RandomOrderStream
from .parallel import SeededFactory
from .robustness import robustness_records
from .runner import TrialStats, decision_rate, run_trials
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


@dataclass(frozen=True)
class Cell:
    """One measured trial cell: a workload spec, an algorithm, the
    stream class it reads and its knobs.

    Every cell runs at the known-T convention: ``t_guess`` is the
    workload's ``truth`` attribute (``"triangles"`` or
    ``"four_cycles"``).  ``seed_param=None`` is for algorithms that take
    no seed (Cormode–Jowhari).
    """

    family: str
    params: Dict[str, Any]
    truth: str
    algorithm: Callable[..., Any]
    stream: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)
    seed_param: Optional[str] = "seed"

    def measure(self, trials: int, seed: int, n_jobs: int = 1) -> TrialStats:
        """Build the workload and run ``trials`` seeded trials on it."""
        workload = build_workload(self.family, **self.params)
        truth = getattr(workload, self.truth)
        return run_trials(
            SeededFactory(
                self.algorithm,
                {"t_guess": truth, **self.kwargs},
                seed_param=self.seed_param,
            ),
            SeededFactory(self.stream, {"graph": workload.graph}),
            truth=truth,
            trials=trials,
            base_seed=seed,
            n_jobs=n_jobs,
        )


_HEAVY_AND_LIGHT = {"n": 900, "heavy_triangles": 200, "light_triangles_count": 80}
_DIAMOND_MIXTURE = {
    "n": 900,
    "large": (20,) * 4,
    "medium": (8,) * 8,
    "small": (3,) * 10,
    "noise_edges": 200,
}
_DENSE = {"n": 45, "p": 0.5}
_ONE_PASS_KNOBS = {"epsilon": 0.2, "groups": 7, "group_size": 40}
_SPARSE_FOUR_CYCLES = {"n": 1000, "num_cycles": 150, "noise_edges": 200}

CELLS: Dict[str, Cell] = {
    "thm2.1": Cell(
        "heavy-and-light-triangles",
        _HEAVY_AND_LIGHT,
        "triangles",
        TriangleRandomOrder,
        RandomOrderStream,
        {"epsilon": 0.3},
    ),
    "cormode-jowhari": Cell(
        "heavy-and-light-triangles",
        _HEAVY_AND_LIGHT,
        "triangles",
        CormodeJowhariTriangles,
        RandomOrderStream,
        {"epsilon": 0.3},
        seed_param=None,
    ),
    "thm4.2": Cell(
        "diamond-mixture",
        _DIAMOND_MIXTURE,
        "four_cycles",
        FourCycleAdjacencyDiamond,
        AdjacencyListStream,
        {"epsilon": 0.3},
    ),
    "thm4.3a": Cell(
        "dense-gnp",
        _DENSE,
        "four_cycles",
        FourCycleMoment,
        AdjacencyListStream,
        _ONE_PASS_KNOBS,
    ),
    "thm5.7": Cell(
        "dense-gnp",
        _DENSE,
        "four_cycles",
        FourCycleArbitraryOnePass,
        RandomOrderStream,
        _ONE_PASS_KNOBS,
    ),
    "thm5.3": Cell(
        "medium-diamonds",
        {"n": 2000, "diamond_size": 10, "count": 40, "noise_edges": 400},
        "four_cycles",
        FourCycleArbitraryThreePass,
        RandomOrderStream,
        {"epsilon": 0.3, "eta": 2.0, "c": 0.6, "use_log_factor": False},
    ),
}


def _cell_experiment(
    trials: int, rows: Sequence[Tuple[str, str, str]], passes: bool = True
) -> ExperimentRunner:
    """A light experiment with one checkpoint unit per
    ``(unit, algorithm label, cell name)`` row."""

    def run(
        seed: int,
        n_jobs: int = 1,
        checkpoint: CheckpointContext = NULL_CHECKPOINT,
    ) -> List[Record]:
        def measure(label: str, cell: str) -> Record:
            stats = CELLS[cell].measure(trials, seed, n_jobs)
            record = {
                "algorithm": label,
                "truth": stats.truth,
                "median_estimate": round(stats.median_estimate, 1),
                "median_rel_err": round(stats.median_relative_error, 4),
            }
            if passes:
                record["passes"] = stats.passes
            return record

        return [
            checkpoint.unit(unit, lambda label=label, cell=cell: measure(label, cell))
            for unit, label, cell in rows
        ]

    return run


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


def _e9_light(
    seed: int,
    n_jobs: int = 1,
    checkpoint: CheckpointContext = NULL_CHECKPOINT,
) -> List[Record]:
    yes = build_workload("sparse-four-cycles", **_SPARSE_FOUR_CYCLES)
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
        Experiment(
            "E1",
            "Thm 2.1 vs CJ on a heavy-edge workload (light)",
            _cell_experiment(
                5,
                (
                    (
                        "E1:mv-triangle-ro (Thm 2.1)",
                        "mv-triangle-ro (Thm 2.1)",
                        "thm2.1",
                    ),
                    ("E1:cormode-jowhari", "cormode-jowhari", "cormode-jowhari"),
                ),
                passes=False,
            ),
        ),
        Experiment("E4", "Lemma 3.1 Useful Algorithm (light)", _e4_light),
        Experiment(
            "E5",
            "Thm 4.2 diamond algorithm (light)",
            _cell_experiment(3, (("E5:diamond", "diamond (Thm 4.2)", "thm4.2"),)),
        ),
        Experiment(
            "E8",
            "Thm 5.3 three-pass algorithm (light)",
            _cell_experiment(3, (("E8:three-pass", "three-pass (Thm 5.3)", "thm5.3"),)),
        ),
        Experiment("E9", "Thm 5.6 distinguisher (light)", _e9_light),
        Experiment("E11", "Thm 5.8 DISJ reduction (light)", _e11_light),
        Experiment("E12", "Lemma 5.1 exact check (light)", _e12_light),
        Experiment("E16", "robustness: error vs fault rate (light)", _e16_light),
    )
}


def experiment_checkpoint_key(experiment_id: str, seed: int) -> str:
    """The config hash guarding an experiment's checkpoint file."""
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


_DENSE_PROBLEM = "four-cycles (T=Ω(n²))"

#: The contributions-table rows measured on a trial cell, in table order:
#: (checkpoint unit, result, cell, problem, model, space bound).
PAPER_ROWS = (
    ("Thm2.1", "Thm 2.1", "thm2.1", "triangles", "random", "Õ(ε⁻²m/√T)"),
    ("Thm4.2", "Thm 4.2", "thm4.2", "four-cycles", "adjacency", "Õ(ε⁻⁵m/√T)"),
    ("Thm 4.3a", "Thm 4.3a", "thm4.3a", _DENSE_PROBLEM, "adjacency", "Õ(ε⁻⁴n⁴/T²)"),
    ("Thm 5.7", "Thm 5.7", "thm5.7", _DENSE_PROBLEM, "arbitrary", "Õ(ε⁻²n)"),
    ("Thm5.3", "Thm 5.3", "thm5.3", "four-cycles", "arbitrary", "Õ(m/T^{1/4})"),
)


def paper_table_checkpoint_key(seed: int, trials: int) -> str:
    """The config hash guarding a paper-table checkpoint file."""
    return config_hash({"kind": "paper-table", "seed": seed, "trials": trials})


def paper_table(
    seed: int = 0,
    trials: int = 3,
    checkpoint: Optional[CheckpointContext] = None,
) -> List[Record]:
    """The Section 1.1 contributions table, with measured columns.

    Each (model, passes, space) row of the paper's headline table gains
    the median relative error and median space in words measured on its
    trial cell, plus Thm 5.6's distinguisher miss rate.  Takes about
    1.5 s at ``trials=1``.

    Each row is one checkpoint unit, so a resumed run restarts at the
    first missing row and reproduces the rest byte-identically (every
    row is a pure function of the seed).
    """
    if checkpoint is None:
        checkpoint = NULL_CHECKPOINT

    def measure(result: str, cell: str, problem: str, model: str, space: str) -> Record:
        stats = CELLS[cell].measure(trials, seed)
        return {
            "result": result,
            "problem": problem,
            "model": model,
            "passes": stats.passes,
            "space": space,
            "measured_rel_err": round(stats.median_relative_error, 3),
            "measured_space": int(stats.median_space),
        }

    def distinguisher() -> Record:
        workload = build_workload("sparse-four-cycles", **_SPARSE_FOUR_CYCLES)
        rate = decision_rate(
            lambda s: FourCycleDistinguisher(
                t_guess=workload.four_cycles, c=3.0, seed=s
            ).decide(RandomOrderStream(workload.graph, seed=s)),
            trials=max(trials, 5),
            base_seed=seed,
        )
        return {
            "result": "Thm 5.6",
            "problem": "0 vs T four-cycles",
            "model": "arbitrary",
            "passes": 2,
            "space": "Õ(m^{3/2}/T^{3/4})",
            "measured_rel_err": round(1.0 - rate, 3),  # miss rate
            "measured_space": "-",
        }

    rows = [
        checkpoint.unit(f"paper-table:{unit}", lambda row=row: measure(*row))
        for unit, *row in PAPER_ROWS
    ]
    rows.append(checkpoint.unit("paper-table:Thm5.6", distinguisher))
    return rows
