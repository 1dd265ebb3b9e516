"""Serial vs parallel telemetry equivalence.

The tentpole guarantee: running the same seed schedule with ``n_jobs=1``
and ``n_jobs>1`` inside a telemetry session produces an *identical*
aggregated MetricsRegistry and an identical span forest (same count,
same multiset of normalized paths).  Wall/CPU durations are inherently
nondeterministic and live only in span records, so they are excluded —
everything else must match bit-for-bit.
"""

from collections import Counter as TallyCounter

from repro import obs
from repro.core import TriangleRandomOrder
from repro.experiments import build_workload, SeededFactory, run_trials
from repro.obs.report import normalize_path
from repro.streams import RandomOrderStream


def _traced_run(n_jobs):
    workload = build_workload(
        "light-triangles", n=240, num_triangles=40, noise_edges=200
    )
    algorithm = SeededFactory(
        TriangleRandomOrder, {"t_guess": workload.triangles, "epsilon": 0.4}
    )
    stream = SeededFactory(RandomOrderStream, {"graph": workload.graph})
    with obs.session(collect_env=False) as telemetry:
        stats = run_trials(
            algorithm,
            stream,
            truth=workload.triangles,
            trials=4,
            base_seed=7,
            n_jobs=n_jobs,
        )
        snapshot = telemetry.metrics.snapshot()
        spans = list(telemetry.tracer.records)
        runs = list(telemetry.runs)
    return stats, snapshot, spans, runs


class TestSerialParallelTelemetry:
    def test_identical_metrics_and_span_forest(self):
        serial_stats, serial_metrics, serial_spans, serial_runs = _traced_run(1)
        parallel_stats, parallel_metrics, parallel_spans, parallel_runs = _traced_run(2)

        # the underlying trial results are bit-identical ...
        assert serial_stats.estimates == parallel_stats.estimates
        assert serial_stats.space_items == parallel_stats.space_items

        # ... the aggregated registry is bit-identical ...
        assert serial_metrics == parallel_metrics
        assert serial_metrics["counters"]["stream.passes"] == 4
        assert serial_metrics["counters"]["stream.edges_consumed"] > 0

        # ... and the span forest matches: same count, same paths.
        assert len(serial_spans) == len(parallel_spans)
        assert [s["path"] for s in serial_spans] == [
            s["path"] for s in parallel_spans
        ]
        assert TallyCounter(
            (s["kind"], normalize_path(s["path"])) for s in serial_spans
        ) == TallyCounter(
            (s["kind"], normalize_path(s["path"])) for s in parallel_spans
        )

        # run records differ only in their timing column and n_jobs
        def scrub(record):
            return {
                key: value
                for key, value in record.items()
                if key not in ("wall_seconds", "n_jobs")
            }

        assert [scrub(r) for r in serial_runs] == [scrub(r) for r in parallel_runs]

    def test_trial_spans_nest_under_runner(self):
        _stats, _metrics, spans, _runs = _traced_run(2)
        paths = {normalize_path(s["path"]) for s in spans}
        assert "run_trials" in paths
        assert "run_trials/trial[*]" in paths
        assert "run_trials/trial[*]/pass1:stream" in paths

    def test_no_capture_without_session(self):
        workload = build_workload(
            "light-triangles", n=120, num_triangles=10, noise_edges=40
        )
        stats = run_trials(
            SeededFactory(
                TriangleRandomOrder, {"t_guess": workload.triangles, "epsilon": 0.5}
            ),
            SeededFactory(RandomOrderStream, {"graph": workload.graph}),
            truth=workload.triangles,
            trials=2,
            base_seed=1,
        )
        assert all(result.telemetry is None for result in stats.results)
        assert not obs.current().enabled


class TestSweepTelemetry:
    def test_sweep_points_captured_identically(self):
        from repro.experiments.sweeps import run_sweep

        def measure(value):
            return {"y": value * 2}

        def run(n_jobs):
            with obs.session(collect_env=False) as telemetry:
                result = run_sweep("T", [1.0, 2.0, 3.0], measure, n_jobs=n_jobs)
                return result, telemetry.metrics.snapshot(), [
                    s["path"] for s in telemetry.tracer.records
                ]

        serial_result, serial_metrics, serial_paths = run(1)
        # measure is a local closure -> parallel falls back to serial
        # in-process execution, which must still capture identically.
        assert serial_metrics == {"counters": {}, "gauges": {}, "histograms": {}}
        assert "sweep:T/point[0]" in serial_paths
        assert "sweep:T" in serial_paths
        assert [p.outputs["y"] for p in serial_result.points] == [2.0, 4.0, 6.0]
