"""Experiment harness: workloads, trial runner, sweeps, reporting."""

from .calibration import GuessOutcome, estimate_with_guesses
from .export import export_csv, export_json, load_json
from .frontier import Frontier, FrontierPoint, dominates, measure_frontier
from .groundtruth import cache_info, cached_ground_truth, clear_cache
from .paper_table import paper_table
from .parallel import (
    ParallelTrialRunner,
    RetryPolicy,
    SeededFactory,
    TrialSpec,
    derive_retry_seed,
    execute_trial,
    parallel_map,
    resolve_n_jobs,
    seed_schedule,
)
from .reporting import format_records, format_table, print_experiment
from .robustness import FAULT_RATES, FaultedStreamFactory, robustness_records
from .runner import TrialStats, decision_rate, run_trials
from .suite import SUITE, Experiment, experiment_checkpoint_key, run_experiment
from .sweeps import (
    SweepPoint,
    SweepResult,
    geometric_range,
    guess_schedule,
    loglog_slope,
    run_sweep,
)
from .workloads import ALL_WORKLOADS, Workload, build_workload

__all__ = [
    "Workload",
    "build_workload",
    "ALL_WORKLOADS",
    "TrialStats",
    "run_trials",
    "ParallelTrialRunner",
    "RetryPolicy",
    "SeededFactory",
    "TrialSpec",
    "derive_retry_seed",
    "execute_trial",
    "parallel_map",
    "resolve_n_jobs",
    "seed_schedule",
    "FAULT_RATES",
    "FaultedStreamFactory",
    "robustness_records",
    "experiment_checkpoint_key",
    "cached_ground_truth",
    "cache_info",
    "clear_cache",
    "SUITE",
    "Experiment",
    "run_experiment",
    "decision_rate",
    "SweepPoint",
    "SweepResult",
    "run_sweep",
    "loglog_slope",
    "geometric_range",
    "guess_schedule",
    "GuessOutcome",
    "estimate_with_guesses",
    "Frontier",
    "FrontierPoint",
    "measure_frontier",
    "dominates",
    "export_csv",
    "export_json",
    "load_json",
    "format_table",
    "format_records",
    "print_experiment",
    "paper_table",
]
