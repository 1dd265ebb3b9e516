"""The parallel trial engine: seed schedule, fan-out, equivalence.

The contract under test is the tentpole guarantee: ``run_trials(...,
n_jobs=1)`` and ``n_jobs>1`` produce bit-identical ``TrialStats``
(estimates, spaces, pass counts, order) because every trial is a pure
function of the seeds in :func:`repro.experiments.parallel.seed_schedule`.
"""

import warnings

import pytest

from repro.baselines import CormodeJowhariTriangles
from repro.core import EstimateResult, FourCycleArbitraryThreePass, TriangleRandomOrder
from repro.experiments import (
    ParallelTrialRunner,
    SeededFactory,
    TrialSpec,
    build_workload,
    execute_trial,
    parallel_map,
    run_trials,
    seed_schedule,
)
from repro.streams import ArbitraryOrderStream, RandomOrderStream, SpaceMeter


def _square(x):
    return x * x


class TestParallelMap:
    def test_serial_matches_parallel(self):
        items = list(range(20))
        assert parallel_map(_square, items, n_jobs=1) == parallel_map(
            _square, items, n_jobs=2
        )

    def test_preserves_order(self):
        assert parallel_map(_square, [3, 1, 2], n_jobs=2) == [9, 1, 4]

    def test_unpicklable_falls_back_with_warning(self):
        with pytest.warns(RuntimeWarning, match="not .*picklable|picklable"):
            result = parallel_map(lambda x: x + 1, [1, 2, 3], n_jobs=2)
        assert result == [2, 3, 4]

    def test_empty_and_singleton(self):
        assert parallel_map(_square, [], n_jobs=4) == []
        assert parallel_map(_square, [5], n_jobs=4) == [25]


class TestSeedSchedule:
    def test_matches_documented_serial_schedule(self):
        assert seed_schedule(3, 2) == [(3000, 3500), (3001, 3501)]

    def test_validates(self):
        with pytest.raises(ValueError):
            seed_schedule(0, 0)

    def test_no_seed_collisions(self):
        pairs = seed_schedule(5, 100)
        flat = [s for pair in pairs for s in pair]
        assert len(set(flat)) == len(flat)


class TestSeededFactory:
    def test_passes_seed_through(self):
        factory = SeededFactory(RandomOrderStream, {"graph": build_workload(
            "four-cycle-free", n_triangles=5
        ).graph})
        assert factory(3).seed == 3

    def test_seedless_target(self):
        factory = SeededFactory(
            CormodeJowhariTriangles, {"t_guess": 10.0, "epsilon": 0.3}, seed_param=None
        )
        algorithm = factory(123)
        assert algorithm.t_guess == 10.0


class _PassesBySeed:
    """Pathological algorithm whose pass count depends on its seed."""

    def __init__(self, seed):
        self.seed = seed

    def run(self, stream):
        list(stream.edges())
        if self.seed % 2:
            list(stream.edges())
        return EstimateResult(1.0, stream.passes_taken, SpaceMeter(), "bad-passes")


class _TwoPassAlways:
    def __init__(self, seed):
        self.seed = seed

    def run(self, stream):
        list(stream.edges())
        list(stream.edges())
        return EstimateResult(1.0, stream.passes_taken, SpaceMeter(), "two-pass")


def _tiny_stream(seed):
    return ArbitraryOrderStream([(0, 1), (1, 2)])


class TestPassesAccounting:
    def test_mismatched_pass_counts_fail_loudly(self):
        # Consecutive algorithm seeds alternate parity, so _PassesBySeed
        # reports a mix of 1- and 2-pass trials.
        with pytest.raises(RuntimeError, match="disagree on the number of stream passes"):
            run_trials(_PassesBySeed, _tiny_stream, truth=1.0, trials=4, base_seed=0)

    def test_consistent_passes_recorded(self):
        stats = run_trials(
            _TwoPassAlways, _tiny_stream, truth=1.0, trials=3, base_seed=1
        )
        assert stats.passes == 2


class TestSerialParallelEquivalence:
    """Property: n_jobs=1 and n_jobs=2 give bit-identical TrialStats."""

    @pytest.mark.parametrize("base_seed", [0, 3, 11])
    def test_triangle_random_order(self, base_seed):
        workload = build_workload(
            "light-triangles", n=240, num_triangles=40, noise_edges=200
        )
        algorithm = SeededFactory(
            TriangleRandomOrder, {"t_guess": workload.triangles, "epsilon": 0.4}
        )
        stream = SeededFactory(RandomOrderStream, {"graph": workload.graph})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a fallback would hide the point
            serial = run_trials(
                algorithm, stream, truth=workload.triangles,
                trials=4, base_seed=base_seed, n_jobs=1,
            )
            parallel = run_trials(
                algorithm, stream, truth=workload.triangles,
                trials=4, base_seed=base_seed, n_jobs=2,
            )
        assert serial.estimates == parallel.estimates
        assert serial.space_items == parallel.space_items
        assert serial.passes == parallel.passes
        assert [r.algorithm for r in serial.results] == [
            r.algorithm for r in parallel.results
        ]

    def test_cormode_jowhari(self):
        workload = build_workload(
            "light-triangles", n=240, num_triangles=40, noise_edges=200
        )
        algorithm = SeededFactory(
            CormodeJowhariTriangles,
            {
                "t_guess": float(workload.triangles),
                "epsilon": 0.4,
            },
            seed_param=None,
        )
        stream = SeededFactory(RandomOrderStream, {"graph": workload.graph})
        serial = run_trials(
            algorithm, stream, truth=workload.triangles, trials=3, base_seed=2, n_jobs=1
        )
        parallel = run_trials(
            algorithm, stream, truth=workload.triangles, trials=3, base_seed=2, n_jobs=2
        )
        assert serial.estimates == parallel.estimates
        assert serial.space_items == parallel.space_items

    def test_three_pass_four_cycles(self):
        workload = build_workload(
            "sparse-four-cycles", n=400, num_cycles=40, noise_edges=80
        )
        algorithm = SeededFactory(
            FourCycleArbitraryThreePass,
            {
                "t_guess": workload.four_cycles,
                "epsilon": 0.4,
                "eta": 2.0,
                "c": 0.6,
                "use_log_factor": False,
            },
        )
        stream = SeededFactory(RandomOrderStream, {"graph": workload.graph})
        serial = run_trials(
            algorithm, stream, truth=workload.four_cycles,
            trials=3, base_seed=5, n_jobs=1,
        )
        parallel = run_trials(
            algorithm, stream, truth=workload.four_cycles,
            trials=3, base_seed=5, n_jobs=2,
        )
        assert serial.estimates == parallel.estimates
        assert serial.space_items == parallel.space_items
        assert serial.passes == parallel.passes == 3


class TestParallelTrialRunner:
    def test_runner_matches_direct_execution(self):
        workload = build_workload("four-cycle-free", n_triangles=30)
        algorithm = SeededFactory(
            TriangleRandomOrder, {"t_guess": workload.triangles, "epsilon": 0.5}
        )
        stream = SeededFactory(RandomOrderStream, {"graph": workload.graph})
        runner = ParallelTrialRunner(n_jobs=2)
        results = runner.run(algorithm, stream, trials=3, base_seed=9)
        for i, (algo_seed, stream_seed) in enumerate(seed_schedule(9, 3)):
            spec = TrialSpec(
                index=i,
                algorithm_seed=algo_seed,
                stream_seed=stream_seed,
                algorithm_factory=algorithm,
                stream_factory=stream,
            )
            direct = execute_trial(spec)
            assert direct.estimate == results[i].estimate
            assert direct.space_items == results[i].space_items

class TestSuiteWiring:
    def test_run_experiment_n_jobs_identical(self):
        from repro.experiments import run_experiment

        assert run_experiment("E5", seed=2) == run_experiment("E5", seed=2, n_jobs=2)
