"""Perf-engine benchmark: the telemetry-off guard and CountSketch batching.

Wall-clock numbers for the paper's algorithms live in ``perfbench/``;
this file keeps two engineering checks:

* ``test_telemetry_off_overhead`` asserts that disabled telemetry adds
  under 3% to a representative E1 (random-order triangles) / E5
  (four-cycle baselines) epsilon sweep;
* ``test_countsketch_batch_speedup`` times ``CountSketch.update_batch``
  against the scalar update loop and checks both build the same sketch.

Run modes::

    pytest benchmarks/bench_perf_engine.py -s                       # full
    REPRO_BENCH_QUICK=1 pytest benchmarks/bench_perf_engine.py -s   # smoke

Full mode asserts the >=4x batching speedup and refreshes the
``BENCH_engine.json`` baseline at the repo root; quick mode only
requires the batch path to not be slower and does not touch the
baseline.  Every test here is marked ``bench``, so the claims run
(``pytest benchmarks/ -m "not bench"``) leaves the baseline alone.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro import obs
from repro.baselines import EdgeSamplingFourCycles
from repro.core import TriangleRandomOrder
from repro.experiments import cached_ground_truth, clear_cache, run_trials
from repro.experiments.parallel import SeededFactory
from repro.graphs import erdos_renyi
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


def _trials_for(graph, counts, epsilon):
    """One Theorem 2.1 triangle trial and one four-cycle edge-sampling
    baseline trial: the trial mix of the E1/E5 benches."""
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
    )
    fourcycle_stats = run_trials(
        SeededFactory(EdgeSamplingFourCycles, {"p": 0.1}),
        SeededFactory(RandomOrderStream, {"graph": graph}),
        truth=counts["four_cycles"],
        trials=TRIALS,
        base_seed=SEED,
    )
    return triangle_stats, fourcycle_stats


def _engine_sweep():
    rows = []
    for epsilon in EPSILONS:
        graph = erdos_renyi(N, P, seed=SEED)
        counts = cached_ground_truth(
            "bench-gnp", {"n": N, "p": P, "seed": SEED}, graph
        )
        tri, fc = _trials_for(graph, counts, epsilon)
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
        seconds, _rows = _timed(_engine_sweep)
        off_seconds = seconds if off_seconds is None else min(off_seconds, seconds)

    # (b) identical sweep inside a session: count the hook firings
    clear_cache()
    with obs.session() as telemetry:
        _engine_sweep()
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
