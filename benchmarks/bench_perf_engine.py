"""Perf-engine benchmark: legacy seed path vs vectorized/cached engine.

Compares a representative E1 (random-order triangles) / E5 (four-cycle
baselines) epsilon sweep under two configurations:

* **legacy** — the seed repo's path: scalar-loop generators
  (``erdos_renyi_loop``) and pure-python exact counters, recomputing
  the ground truth at every sweep point, serial trials;
* **engine** — numpy generators, matrix-identity ``fast_counts``
  behind the :mod:`repro.experiments.groundtruth` LRU cache, and the
  ``n_jobs``-aware trial runner (``n_jobs=-1`` fans trials across all
  cores on multi-core hosts; on a single core it stays serial).

The sweep varies epsilon with the workload pinned, which is the shape
of the repo's E1/E5 accuracy/space sweeps: the legacy path pays
generation + exact counting per point, the engine pays it once.  Each
point runs one Theorem 2.1 triangle trial and one four-cycle
edge-sampling baseline trial, matching the trial mix of the E1/E5
benches while keeping the (unchanged) stream-processing cost from
drowning out the substrate being measured.

Run modes::

    pytest benchmarks/bench_perf_engine.py -s --benchmark-disable   # full
    REPRO_BENCH_QUICK=1 pytest ... -s --benchmark-disable           # smoke

Full mode asserts the >=4x tentpole speedup and refreshes the
``BENCH_engine.json`` baseline at the repo root; quick mode only
requires the engine to not be slower and does not touch the baseline.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro import obs
from repro.baselines import EdgeSamplingFourCycles
from repro.core import TriangleRandomOrder
from repro.experiments import cache_info, cached_ground_truth, clear_cache, run_trials
from repro.experiments.parallel import SeededFactory
from repro.graphs import (
    erdos_renyi,
    erdos_renyi_loop,
    four_cycle_count,
    triangle_count,
)
from repro.sketches import CountSketch
from repro.streams import RandomOrderStream

pytestmark = pytest.mark.bench

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
BASELINE_PATH = Path(__file__).resolve().parents[1] / "BENCH_engine.json"

N = 250 if QUICK else 500
P = 0.2 if QUICK else 0.35
SEED = 11
EPSILONS = [0.6, 0.45] if QUICK else [0.6, 0.5, 0.4, 0.3]
TRIALS = 1
MIN_SPEEDUP = 1.0 if QUICK else 4.0


def _trials_for(graph, counts, epsilon, n_jobs=1):
    """The E1 + E5 trial mix shared verbatim by both paths."""
    triangle_stats = run_trials(
        SeededFactory(
            TriangleRandomOrder,
            {
                "t_guess": max(1.0, float(counts["triangles"])),
                "epsilon": epsilon,
                "use_log_factor": False,
            },
        ),
        SeededFactory(RandomOrderStream, {"graph": graph}),
        truth=counts["triangles"],
        trials=TRIALS,
        base_seed=SEED,
        n_jobs=n_jobs,
    )
    fourcycle_stats = run_trials(
        SeededFactory(EdgeSamplingFourCycles, {"p": 0.1}),
        SeededFactory(RandomOrderStream, {"graph": graph}),
        truth=counts["four_cycles"],
        trials=TRIALS,
        base_seed=SEED,
        n_jobs=n_jobs,
    )
    return triangle_stats, fourcycle_stats


def _legacy_sweep():
    rows = []
    for epsilon in EPSILONS:
        graph = erdos_renyi_loop(N, P, seed=SEED)
        counts = {
            "triangles": triangle_count(graph),
            "four_cycles": four_cycle_count(graph),
        }
        tri, fc = _trials_for(graph, counts, epsilon)
        rows.append((epsilon, tri.median_estimate, fc.median_estimate))
    return rows


def _engine_sweep(n_jobs=-1):
    rows = []
    for epsilon in EPSILONS:
        graph = erdos_renyi(N, P, seed=SEED)
        counts = cached_ground_truth(
            "bench-gnp", {"n": N, "p": P, "seed": SEED}, graph
        )
        tri, fc = _trials_for(graph, counts, epsilon, n_jobs=n_jobs)
        rows.append((epsilon, tri.median_estimate, fc.median_estimate))
    return rows


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def _update_baseline(section, payload):
    if QUICK:
        return
    baseline = {}
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
    baseline[section] = payload
    BASELINE_PATH.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")


def test_engine_sweep_speedup():
    clear_cache()
    legacy_seconds, legacy_rows = _timed(_legacy_sweep)
    clear_cache()
    engine_seconds, engine_rows = _timed(_engine_sweep)
    info = cache_info()
    speedup = legacy_seconds / max(engine_seconds, 1e-9)

    print(
        f"\nperf engine: E1/E5 epsilon sweep, n={N} p={P} "
        f"points={len(EPSILONS)} trials={TRIALS}"
    )
    print(f"  legacy path : {legacy_seconds:8.3f}s  (loop gen + python exact, serial)")
    print(f"  engine path : {engine_seconds:8.3f}s  (numpy gen + cached fast counts)")
    print(f"  speedup     : {speedup:8.2f}x   ground-truth cache: {info}")

    # Both paths must produce sane estimates for every sweep point.
    assert len(legacy_rows) == len(engine_rows) == len(EPSILONS)
    for _, tri_est, fc_est in engine_rows:
        assert tri_est >= 0 and fc_est >= 0
    # The cache is doing its job: one miss, the rest hits.
    assert info["misses"] == 1
    assert info["hits"] == len(EPSILONS) - 1

    _update_baseline(
        "e1_e5_sweep",
        {
            "n": N,
            "p": P,
            "epsilons": EPSILONS,
            "trials": TRIALS,
            "legacy_seconds": round(legacy_seconds, 4),
            "engine_seconds": round(engine_seconds, 4),
            "speedup": round(speedup, 2),
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"engine path only {speedup:.2f}x faster (need >= {MIN_SPEEDUP}x)"
    )


def test_countsketch_batch_speedup():
    # Distinct keys, as in sketching an edge stream: the scalar path
    # must hash each key row-by-row in Python, the batch path hashes
    # the whole array per row.
    n_updates = 5_000 if QUICK else 50_000
    keys = list(range(n_updates))
    deltas = [1.0] * n_updates

    scalar = CountSketch(rows=5, width=256, seed=3)
    scalar_seconds, _ = _timed(
        lambda: [scalar.update(k, d) for k, d in zip(keys, deltas)]
    )
    batched = CountSketch(rows=5, width=256, seed=3)
    batch_seconds, _ = _timed(batched.update_batch, keys, deltas)
    speedup = scalar_seconds / max(batch_seconds, 1e-9)

    print(f"\ncountsketch: {n_updates} distinct-key updates")
    print(f"  scalar update loop : {scalar_seconds:8.3f}s")
    print(f"  update_batch       : {batch_seconds:8.3f}s")
    print(f"  speedup            : {speedup:8.2f}x")

    for key in (0, 1, n_updates // 2, n_updates - 1):
        assert scalar.query(key) == batched.query(key)

    _update_baseline(
        "countsketch_batch",
        {
            "updates": n_updates,
            "scalar_seconds": round(scalar_seconds, 4),
            "batch_seconds": round(batch_seconds, 4),
            "speedup": round(speedup, 2),
        },
    )
    assert speedup >= (1.0 if QUICK else 4.0), (
        f"update_batch only {speedup:.2f}x faster"
    )


def test_telemetry_off_overhead():
    """Telemetry hooks must stay under 3% of the sweep when no session
    is active (the repo-wide default).

    Off-path instrumentation cost is a handful of no-op dispatches per
    *phase* (never per edge): each hook site pays one ``obs.current()``
    lookup, a null-span context enter/exit, or an ``enabled`` check.
    The test (a) times the sweep with telemetry off, (b) replays it
    inside a session to count exactly how many spans / metric emissions
    the run triggers, (c) microbenchmarks the null dispatches, and
    asserts the projected hook cost — with a 4x safety margin — is
    below 3% of the measured sweep time.
    """
    assert not obs.current().enabled, "a telemetry session leaked into the bench"

    # (a) sweep with telemetry off — what users pay by default
    reps = 2 if QUICK else 3
    off_seconds = None
    for _ in range(reps):
        clear_cache()
        seconds, _rows = _timed(_engine_sweep, 1)
        off_seconds = seconds if off_seconds is None else min(off_seconds, seconds)

    # (b) identical sweep inside a session: count the hook firings
    clear_cache()
    with obs.session() as telemetry:
        _engine_sweep(1)
        span_count = telemetry.tracer.span_count()
        metric_count = len(telemetry.metrics)

    # (c) null dispatch microbenchmarks
    k = 50_000
    null = obs.current()
    dispatch_seconds, _ = _timed(
        lambda: [obs.current().enabled for _ in range(k)]
    )
    span_seconds, _ = _timed(
        lambda: [null.tracer.span("x", kind="pass").__exit__(None, None, None)
                 for _ in range(k)]
    )
    per_dispatch = dispatch_seconds / k
    per_span = span_seconds / k

    # every span site and every (batched) metric site pays one dispatch;
    # span sites additionally pay the null context.  4x margin on top.
    hook_sites = span_count + metric_count
    projected = 4.0 * (hook_sites * per_dispatch + span_count * per_span)
    overhead = projected / max(off_seconds, 1e-9)

    print(f"\ntelemetry-off overhead: sweep={off_seconds:.3f}s")
    print(f"  spans/run          : {span_count}")
    print(f"  metric emissions   : {metric_count}")
    print(f"  null dispatch      : {per_dispatch * 1e9:8.1f} ns")
    print(f"  null span ctx      : {per_span * 1e9:8.1f} ns")
    print(f"  projected overhead : {overhead * 100:8.4f}% (4x margin, budget 3%)")

    assert overhead < 0.03, (
        f"telemetry-off hooks projected at {overhead * 100:.3f}% of the sweep "
        "(budget 3%) — a hook has crept into a per-edge path"
    )
