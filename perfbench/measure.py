"""Measure one workload: end-to-end metrics, or the traced per-layer split.

End to end (``trace=False``): set up, run one untimed warm-up round,
then run rounds until ``seconds`` have passed, with further timed
set-ups interleaved between them for ``setup_s``.  Time metrics are per
round (one estimate by each of the workload's algorithms, or one
``run_trials`` trial in the pooled workload), each scaled to the host
speed measured around it (see ``hostspeed``), and the central ones are
medians over the run; space is the sum of the round's peaks; error is
pooled over every estimate.  The pooled workload alternates
single-process ``run_trials`` batches, which give the per-estimate
times, with pooled batches, which give ``estimates_per_s``: with as many
workers as cores, the workers' own trial times measure the contention
between them and the parent.

Traced (``trace=True``): run rounds untraced for part of the budget,
replay the same rounds with the tracer installed (in-process, so the
wrappers see every trial), and for the pooled workload run pooled
batches untraced for the runner metrics.  Tracing overhead is the traced
replay's wall time minus the untraced wall time of the same rounds.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.experiments.runner as runner_mod
from repro.experiments.parallel import SeededFactory
from repro.obs import git_sha
from repro.seeding import derive_seed
from repro.streams.models import ArbitraryOrderStream

import hostspeed
from tracing import Tracer, iterate_ns_per_token
from workloads import WORKLOADS, Setup, WorkloadSpec, check_estimate, pool_jobs, setup

END_TO_END_UNITS = {
    "ns_per_token": "ns",
    "estimate_s_p50": "s",
    "estimate_s_tail": "s",
    "estimates_per_s": "1/s",
    "peak_space_words": "words",
    "rel_error_p50": "ratio",
    "passes": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "graphs.generate_s": "s",
    "experiments.groundtruth.count_s": "s",
    "streams.construct_s": "s",
    "streams.tokens": "count",
    "streams.pass_s": "s",
    "streams.iterate_ns_per_token": "ns",
    "streams.meter.mutations": "count",
    "streams.meter.self_s": "s",
    "sketches.hashing.scalar_calls": "count",
    "sketches.hashing.scalar_self_s": "s",
    "sketches.hashing.batch_keys": "count",
    "sketches.countsketch.updates": "count",
    "sketches.countsketch.queries": "count",
    "sketches.countsketch.self_s": "s",
    "sketches.wedge_f2.self_s": "s",
    "sketches.l2_sampler.samples_s": "s",
    "sketches.l2_sampler.accept_ratio": "ratio",
    "core.a1.pass_s": "s",
    "core.a1.post_s": "s",
    "core.a4.pass_s": "s",
    "core.a4.post_s": "s",
    "core.a5.pass_s": "s",
    "core.a5.post_s": "s",
    "core.a6.pass_s": "s",
    "core.a6.post_s": "s",
    "baselines.triest.pass_s": "s",
    "experiments.parallel.wall_s": "s",
    "experiments.parallel.efficiency": "ratio",
    "graphs.self_s": "s",
    "streams.self_s": "s",
    "sketches.self_s": "s",
    "core.self_s": "s",
    "baselines.self_s": "s",
    "experiments.self_s": "s",
    "obs.self_s": "s",
    "unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
    "trace.attributed_ratio": "ratio",
}

SETUP_WARM_REPEATS = 3  # untimed set-ups before the loop (imports, first calls)
# Set-ups interleaved with the rounds take this share of the loop's time,
# so ``setup_s`` samples the same stretches of the run as the rounds do.
SETUP_SHARE = 0.08
# The tail is this percentile, or a lower one when fewer rounds would
# leave fewer than TAIL_BEYOND of them beyond it.
TAIL_PERCENTILE = 90
TAIL_BEYOND = 10
MAX_REPORTED_FAILURES = 5
MEDIAN_BAND_MIN_ESTIMATES = 20  # fewer make the median itself too noisy to gate
TRIALS_PER_BATCH = 8  # trials per worker per run_trials call in the pooled workload


@dataclass
class Round:
    wall_s: float  # sum of the round's run() wall times
    tokens: int  # stream tokens those runs consumed, over all passes
    space: int  # sum of the round's SpaceMeter peaks


@dataclass
class Step:
    """One round or ``run_trials`` batch of the timed loop."""

    start: float
    end: float
    rounds: List[Round]
    estimates: int
    jobs: int  # n_jobs of the step's run_trials call; 1 for in-process rounds
    reference_s: float  # hostspeed.reference_s() right before the step, or 0


@dataclass
class Ledger:
    """Every estimate's outcome; only ``timed`` rounds feed time metrics."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    rounds: List[Round] = field(default_factory=list)
    errors: Dict[str, List[float]] = field(default_factory=dict)
    passes: int = 0
    mutations: int = 0
    timed: bool = True

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(reason)

    def record(self, key: str, result: Any, truth: float) -> None:
        self.errors.setdefault(key, []).append(abs(result.estimate - truth) / truth)
        self.passes = max(self.passes, result.passes)
        self.mutations += result.space.mutations


def _check(ledger: Ledger, built: Setup, algorithm: Any, result: Any) -> None:
    ledger.attempted += 1
    reason = check_estimate(algorithm, result, built.kwargs[algorithm.key], built.truth)
    if reason is not None:
        ledger.fail(f"{algorithm.key}: {reason}")
    ledger.record(algorithm.key, result, built.truth)


def run_round(built: Setup, index: int, seed: int, ledger: Ledger) -> None:
    """One estimate by each algorithm, each on a fresh stream instance."""
    spec = built.spec
    stream_seed = derive_seed("perfbench:round-stream", spec.name, index, seed=seed)
    total = Round(0.0, 0, 0)
    for algorithm in spec.algorithms:
        algorithm_seed = derive_seed(
            "perfbench:algorithm", spec.name, algorithm.key, index, seed=seed
        )
        stream = built.stream(stream_seed)
        instance = algorithm.cls(seed=algorithm_seed, **built.kwargs[algorithm.key])
        try:
            start = time.perf_counter()
            result = instance.run(stream)
            elapsed = time.perf_counter() - start
        except Exception:  # noqa: BLE001 -- a raising estimate is a counted failure
            ledger.attempted += 1
            ledger.fail(f"{algorithm.key} raised:\n{traceback.format_exc()}")
            continue
        _check(ledger, built, algorithm, result)
        total.wall_s += elapsed
        total.tokens += result.passes * stream.stream_length
        total.space += result.space_items
    if ledger.timed:
        ledger.rounds.append(total)


def run_batch(built: Setup, index: int, seed: int, n_jobs: int, ledger: Ledger) -> None:
    """One ``run_trials`` call of ``TRIALS_PER_BATCH`` trials per worker;
    every trial is one round."""
    spec = built.spec
    algorithm = spec.algorithms[0]
    trials = TRIALS_PER_BATCH * n_jobs
    try:
        stats = runner_mod.run_trials(
            SeededFactory(algorithm.cls, built.kwargs[algorithm.key]),
            SeededFactory(ArbitraryOrderStream, {"edges": built.order}, seed_param=None),
            truth=built.truth,
            trials=trials,
            base_seed=derive_seed("perfbench:batch", spec.name, index, seed=seed),
            n_jobs=n_jobs,
        )
    except Exception:  # noqa: BLE001 -- the whole batch is counted as failed
        ledger.attempted += trials
        for _ in range(trials):
            ledger.fail(f"{algorithm.key} batch raised:\n{traceback.format_exc()}")
        return
    tokens = built.workload.m
    for result in stats.results:
        _check(ledger, built, algorithm, result)
        if ledger.timed:
            ledger.rounds.append(
                Round(result.wall_seconds, result.passes * tokens, result.space_items)
            )


def _step(built: Setup, index: int, seed: int, n_jobs: int, ledger: Ledger) -> None:
    if built.spec.pooled:
        run_batch(built, index, seed, n_jobs, ledger)
    else:
        run_round(built, index, seed, ledger)


def _run_for(
    built: Setup,
    seed: int,
    seconds: float,
    n_jobs: int,
    ledger: Ledger,
    first: int,
    alternate: bool = False,
    resetup: Optional[Callable[[], Any]] = None,
) -> Tuple[List[int], float, List[Step], List[Tuple[int, float]]]:
    """Run rounds (or batches) from index ``first`` until ``seconds`` pass.

    With ``alternate``, odd indices run in-process and even ones with
    ``n_jobs`` workers.  With ``resetup``, the host's speed is measured
    before every step (``Step.reference_s``) and set-ups are timed after
    the steps, each followed by an untimed full collection, until they
    have taken ``SETUP_SHARE`` of the loop; each set-up comes back last
    as ``(index of the step before it, seconds)``.
    """
    per_round = 1 if built.spec.pooled else len(built.spec.algorithms)
    indices: List[int] = []
    steps: List[Step] = []
    setups: List[Tuple[int, float]] = []
    setup_spent = 0.0
    start = time.perf_counter()
    while not indices or time.perf_counter() - start < seconds:
        index = first + len(indices)
        jobs = 1 if alternate and index % 2 else n_jobs
        reference = hostspeed.reference_s() if resetup is not None else 0.0
        before = len(ledger.rounds)
        step_start = time.perf_counter()
        _step(built, index, seed, jobs, ledger)
        rounds = ledger.rounds[before:]
        steps.append(
            Step(
                step_start, time.perf_counter(), rounds, len(rounds) * per_round, jobs, reference
            )
        )
        indices.append(index)
        while resetup is not None and setup_spent < SETUP_SHARE * (time.perf_counter() - start):
            began = time.perf_counter()
            resetup()
            ended = time.perf_counter()
            gc.collect()
            setup_spent += time.perf_counter() - began
            setups.append((len(steps) - 1, ended - began))
    return indices, time.perf_counter() - start, steps, setups


def host_scales(steps: List[Step]) -> List[float]:
    """Per step, ``hostspeed.NOMINAL_S`` over the mean of the reference
    times measured right before the step and right before the next one."""
    references = [step.reference_s for step in steps]
    return [
        hostspeed.NOMINAL_S / statistics.mean(references[i : i + 2])
        for i in range(len(references))
    ]


def warm_setup(spec: WorkloadSpec, seed: int, quick: bool) -> Setup:
    """Set up ``SETUP_WARM_REPEATS`` times, untimed; keep the last result."""
    for _ in range(SETUP_WARM_REPEATS):
        built = setup(spec, seed, quick)
    gc.collect()
    return built


def tail(values: List[float]) -> Tuple[float, float]:
    """``(value, percentile)`` at ``TAIL_PERCENTILE``, or at the highest
    percentile below it with ``TAIL_BEYOND`` samples beyond it; the
    maximum when there are no more samples than that."""
    ordered = sorted(values)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0
    beyond = max(TAIL_BEYOND, math.ceil(count * (100 - TAIL_PERCENTILE) / 100))
    return ordered[count - beyond - 1], 100.0 * (count - beyond) / count


def _median_band_failures(spec: WorkloadSpec, ledger: Ledger) -> List[str]:
    failures = []
    for algorithm in spec.algorithms:
        errors = ledger.errors.get(algorithm.key, [])
        if len(errors) < MEDIAN_BAND_MIN_ESTIMATES:
            continue
        median_error = statistics.median(errors)
        if median_error > algorithm.median_band:
            failures.append(
                f"{algorithm.key}: median relative error {median_error:.3f} over "
                f"{len(errors)} estimates exceeds {algorithm.median_band}"
            )
    return failures


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_digest(src: Path) -> str:
    """sha256 over the library's source files (paths and bytes)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def manifest(src: Path, name: str, seed: int, n_jobs: int, trace: bool, quick: bool) -> Dict[str, Any]:
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(src),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count() or 1,
        "workload": name,
        "seed": seed,
        "n_jobs": n_jobs,
        "trace": int(trace),
        "quick": quick,
    }


def end_to_end(spec: WorkloadSpec, seed: int, seconds: float, quick: bool) -> Dict[str, Any]:
    """The end-to-end metrics of one run (tracing off)."""
    n_jobs = pool_jobs() if spec.pooled else 1
    built = warm_setup(spec, seed, quick)
    ledger = Ledger(timed=False)
    _step(built, 0, seed, 1, ledger)  # warm-up: checked, not timed
    ledger.timed = True
    _indices, _wall, steps, setups = _run_for(
        built,
        seed,
        seconds,
        n_jobs,
        ledger,
        first=1,
        alternate=spec.pooled and n_jobs > 1,
        resetup=lambda: setup(spec, seed, quick),
    )
    scales = host_scales(steps)
    # per-estimate times come from in-process steps, throughput from
    # the pooled ones; outside the pooled workload both are every step
    timed = [(step, k) for step, k in zip(steps, scales) if step.jobs == 1]
    pooled = [(step, k) for step, k in zip(steps, scales) if step.jobs == n_jobs]
    rounds = [(r, k) for step, k in timed for r in step.rounds]
    walls = [r.wall_s * k for r, k in rounds]
    tail_value, tail_pct = tail(walls)
    estimates = sum(step.estimates for step in steps)
    pooled_estimates = sum(step.estimates for step, _ in pooled)
    setup_times = [(spent, scales[i]) for i, spent in setups]

    metrics = {
        "ns_per_token": statistics.median(r.wall_s * k / r.tokens * 1e9 for r, k in rounds),
        "estimate_s_p50": statistics.median(walls),
        "estimate_s_tail": tail_value,
        "estimates_per_s": pooled_estimates
        / sum((step.end - step.start) * k for step, k in pooled),
        "peak_space_words": statistics.median(r.space for r, _ in rounds),
        "rel_error_p50": statistics.median(e for errs in ledger.errors.values() for e in errs),
        "passes": ledger.passes,
        "setup_s": statistics.median(spent * k for spent, k in setup_times),
        "peak_rss_mb": _peak_rss_mb(),
    }
    return {
        "metrics": metrics,
        "units": END_TO_END_UNITS,
        "ledger": ledger,
        "n_jobs": n_jobs,
        "notes": {
            "rounds": len(rounds),
            "estimates": estimates,
            "pooled_estimates": pooled_estimates,
            "tail_percentile": round(tail_pct, 2),
            "tail_samples": len(walls),
            "setup_repeats": len(setups),
            "reference_s_p50": statistics.median(step.reference_s for step in steps),
            "unscaled_estimate_s_p50": statistics.median(r.wall_s for r, _ in rounds),
            "unscaled_setup_s": statistics.median(spent for spent, _ in setup_times),
            "failed_ratio": ledger.failed / max(1, ledger.attempted),
            "truth": built.truth,
            "n": built.workload.n,
            "m": built.workload.m,
            **_error_notes(ledger),
        },
        "extra_failures": _median_band_failures(spec, ledger),
    }


def _error_notes(ledger: Ledger) -> Dict[str, float]:
    notes = {}
    for key, errors in ledger.errors.items():
        notes[f"rel_error_p50.{key}"] = statistics.median(errors)
        notes[f"rel_error_max.{key}"] = max(errors)
    return notes


def traced(spec: WorkloadSpec, seed: int, seconds: float, quick: bool) -> Dict[str, Any]:
    """The per-layer metrics of one run, from a traced in-process replay."""
    pooled_jobs = pool_jobs() if spec.pooled else 1
    built = setup(spec, seed, quick)
    ledger = Ledger(timed=False)
    _step(built, 0, seed, 1, ledger)  # warm-up: checked, not timed
    # the traced replay takes about 1.5x its untraced share, so the whole
    # run stays within ``seconds``
    share = seconds / 4.0 if spec.pooled else seconds / 3.0
    indices, untraced_s, _steps, _setups = _run_for(built, seed, share, 1, ledger, first=1)
    floor = iterate_ns_per_token(
        lambda: built.stream(derive_seed("perfbench:floor-stream", seed=seed))
    )

    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        built = setup(spec, seed, quick)
        construct_s = tracer.seconds("streams.construct", inclusive=True)
        mutations_before = ledger.mutations
        loop_start = time.perf_counter()
        for index in indices:
            tracer.round = index
            _step(built, index, seed, 1, ledger)
        end = time.perf_counter()
    finally:
        tracer.uninstall()
    trace_wall = end - start
    replay_s = end - loop_start

    parallel_wall = 0.0
    efficiency = 0.0
    if spec.pooled:
        pooled = Ledger(timed=True)
        _batches, parallel_wall, _steps, _setups = _run_for(
            built, seed, share, pooled_jobs, pooled, first=1 + len(indices)
        )
        efficiency = sum(r.wall_s for r in pooled.rounds) / (parallel_wall * pooled_jobs)
        ledger.attempted += pooled.attempted
        ledger.failed += pooled.failed
        ledger.failures.extend(pooled.failures)

    layers = tracer.layer_self_s(floor)
    pass_s = {key: ns / 1e9 for key, ns in tracer.pass_ns.items()}

    def post(key: str) -> float:
        return tracer.seconds(key, inclusive=True) - pass_s.get(key, 0.0)

    metrics = {
        "graphs.generate_s": tracer.seconds("graphs.generate", inclusive=True),
        "experiments.groundtruth.count_s": tracer.seconds(
            "experiments.groundtruth", inclusive=True
        ),
        "streams.construct_s": construct_s,
        "streams.tokens": sum(tracer.tokens.values()),
        "streams.pass_s": sum(pass_s.values()),
        "streams.iterate_ns_per_token": floor,
        "streams.meter.mutations": ledger.mutations - mutations_before,
        "streams.meter.self_s": tracer.seconds("streams.meter"),
        "sketches.hashing.scalar_calls": tracer.count("sketches.hashing.scalar"),
        "sketches.hashing.scalar_self_s": tracer.seconds("sketches.hashing.scalar"),
        "sketches.hashing.batch_keys": tracer.items["sketches.hashing.batch"],
        "sketches.countsketch.updates": tracer.count("sketches.countsketch.update")
        + tracer.items["sketches.countsketch.update_batch"],
        "sketches.countsketch.queries": tracer.count("sketches.countsketch.query"),
        "sketches.countsketch.self_s": tracer.seconds(
            "sketches.countsketch.update",
            "sketches.countsketch.update_batch",
            "sketches.countsketch.query",
        ),
        "sketches.wedge_f2.self_s": tracer.seconds("sketches.wedge_f2"),
        "sketches.l2_sampler.samples_s": tracer.seconds(
            "sketches.l2_sampler.samples", inclusive=True
        ),
        "sketches.l2_sampler.accept_ratio": (
            tracer.drawn / tracer.bank_slots if tracer.bank_slots else 0.0
        ),
        "core.a1.pass_s": pass_s.get("core.a1", 0.0),
        "core.a1.post_s": post("core.a1"),
        "core.a4.pass_s": pass_s.get("core.a4", 0.0),
        "core.a4.post_s": post("core.a4"),
        "core.a5.pass_s": pass_s.get("core.a5", 0.0),
        "core.a5.post_s": post("core.a5"),
        "core.a6.pass_s": pass_s.get("core.a6", 0.0),
        "core.a6.post_s": post("core.a6"),
        "baselines.triest.pass_s": pass_s.get("baselines.triest", 0.0),
        "experiments.parallel.wall_s": parallel_wall,
        "experiments.parallel.efficiency": efficiency,
        "unattributed_s": trace_wall - sum(layers.values()),
        "trace.wall_s": trace_wall,
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": replay_s - untraced_s,
        "trace.attributed_ratio": sum(layers.values()) / trace_wall,
    }
    for layer, seconds_spent in layers.items():
        metrics[f"{layer}.self_s"] = seconds_spent
    return {
        "metrics": metrics,
        "units": PER_LAYER_UNITS,
        "ledger": ledger,
        "n_jobs": pooled_jobs,
        "notes": {
            "replayed_rounds": len(indices),
            "failed_ratio": ledger.failed / max(1, ledger.attempted),
            "truth": built.truth,
            "n": built.workload.n,
            "m": built.workload.m,
        },
        "extra_failures": _median_band_failures(spec, ledger),
        "tracer": tracer,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> Dict[str, Any]:
    spec = WORKLOADS[name]
    outcome = (traced if trace else end_to_end)(spec, seed, seconds, quick)
    ledger = outcome["ledger"]
    for reason in outcome["extra_failures"]:
        ledger.failures.append(reason)
    outcome["correct"] = ledger.failed == 0 and not outcome["extra_failures"]
    metrics = outcome["metrics"]
    for name, value in metrics.items():
        metrics[name] = int(value) if isinstance(value, (int, np.integer)) else float(value)
        if not math.isfinite(metrics[name]):
            outcome["correct"] = False
    return outcome
