"""The estimator skeleton: details as the only metrics, space-stamped spans."""

import inspect
import pathlib

import pytest

import repro.baselines
import repro.core
from repro import obs
from repro.baselines import (
    BeraChakrabartiFourCycles,
    CormodeJowhariTriangles,
    EdgeSamplingFourCycles,
    EdgeSamplingTriangles,
    ExactFourCycleStream,
    ExactTriangleStream,
    TriestBase,
    TriestImpr,
    TwoPassTriangles,
    WedgePairSamplingFourCycles,
)
from repro.core import (
    FourCycleAdjacencyDiamond,
    FourCycleArbitraryOnePass,
    FourCycleArbitraryThreePass,
    FourCycleDistinguisher,
    FourCycleL2Sampling,
    FourCycleMoment,
    MedianBoost,
    TriangleRandomOrder,
)
from repro.core.skeleton import check_accuracy
from repro.graphs import erdos_renyi
from repro.streams import AdjacencyListStream, RandomOrderStream

GRAPH = erdos_renyi(30, 0.3, seed=4)

# estimator class -> (algorithm factory, stream constructor)
CASES = {
    TriangleRandomOrder: (
        lambda: TriangleRandomOrder(50, 0.3, c=0.05, seed=1, use_log_factor=False),
        RandomOrderStream,
    ),
    FourCycleAdjacencyDiamond: (
        lambda: FourCycleAdjacencyDiamond(100, 0.4, c=0.3, seed=1),
        AdjacencyListStream,
    ),
    FourCycleMoment: (lambda: FourCycleMoment(100, 0.3, c=0.5, seed=1), AdjacencyListStream),
    FourCycleL2Sampling: (
        lambda: FourCycleL2Sampling(100, 0.3, num_samplers=4, sampler_width=64, seed=1),
        AdjacencyListStream,
    ),
    FourCycleArbitraryThreePass: (
        lambda: FourCycleArbitraryThreePass(100, 0.3, c=0.1, seed=1, use_log_factor=False),
        RandomOrderStream,
    ),
    FourCycleArbitraryOnePass: (
        lambda: FourCycleArbitraryOnePass(100, 0.3, seed=1),
        RandomOrderStream,
    ),
    FourCycleDistinguisher: (lambda: FourCycleDistinguisher(30, seed=1), RandomOrderStream),
    MedianBoost: (
        lambda: MedianBoost(lambda seed: TriestImpr(20, seed=seed), copies=3, seed=1),
        RandomOrderStream,
    ),
    BeraChakrabartiFourCycles: (
        lambda: BeraChakrabartiFourCycles(100, 0.3, max_pairs=200, seed=1),
        RandomOrderStream,
    ),
    CormodeJowhariTriangles: (lambda: CormodeJowhariTriangles(50, 0.3), RandomOrderStream),
    EdgeSamplingTriangles: (lambda: EdgeSamplingTriangles(0.5, seed=1), RandomOrderStream),
    EdgeSamplingFourCycles: (lambda: EdgeSamplingFourCycles(0.5, seed=1), RandomOrderStream),
    ExactTriangleStream: (ExactTriangleStream, RandomOrderStream),
    ExactFourCycleStream: (ExactFourCycleStream, AdjacencyListStream),
    TwoPassTriangles: (lambda: TwoPassTriangles(50, 0.3, seed=1), RandomOrderStream),
    TriestBase: (lambda: TriestBase(20, seed=1), RandomOrderStream),
    TriestImpr: (lambda: TriestImpr(20, seed=1), RandomOrderStream),
    WedgePairSamplingFourCycles: (
        lambda: WedgePairSamplingFourCycles(0.3, seed=1),
        AdjacencyListStream,
    ),
}


def test_cases_cover_every_estimator():
    exported = {
        getattr(package, name)
        for package in (repro.core, repro.baselines)
        for name in package.__all__
    }
    estimators = {cls for cls in exported if inspect.isclass(cls) and hasattr(cls, "run")}
    assert estimators == set(CASES)


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_details_are_the_metrics_and_passes_carry_space(cls):
    make_algorithm, make_stream = CASES[cls]
    with obs.session() as telemetry:
        result = make_algorithm().run(make_stream(GRAPH, seed=2))
    histograms = telemetry.metrics.snapshot()["histograms"]
    scalars = {
        key: value
        for key, value in result.details.items()
        if isinstance(value, (int, float))
    }
    assert scalars
    for key, value in scalars.items():
        summary = histograms[f"{result.algorithm}.{key}"]
        assert summary["count"] == 1, key
        assert summary["sum"] == value, key
    spans = [
        record
        for record in telemetry.tracer.records
        if record["kind"] in ("pass", "phase")
    ]
    assert any(record["kind"] == "pass" for record in spans)
    for record in spans:
        assert "space_peak" in record.get("attrs", {}), record["name"]


class TestCheckAccuracy:
    def test_returns_floats(self):
        assert check_accuracy(3, 0.5) == (3.0, 0.5)
        assert check_accuracy(3) == (3.0, None)

    @pytest.mark.parametrize(
        "t_guess, epsilon, message",
        [(0.5, 0.1, "t_guess must be >= 1"), (5, 1.0, r"epsilon must be in \(0, 1\)")],
    )
    def test_messages(self, t_guess, epsilon, message):
        with pytest.raises(ValueError, match=message):
            check_accuracy(t_guess, epsilon)


def test_only_the_skeleton_emits_metrics_or_checks_accuracy():
    """Keeps ``details`` the single source of algorithm metrics."""
    offenders = []
    for package in (repro.core, repro.baselines):
        for path in sorted(pathlib.Path(package.__file__).parent.glob("*.py")):
            if path.name == "skeleton.py":
                continue
            text = path.read_text(encoding="utf-8")
            for needle in (
                ".metrics.",
                "telemetry.enabled",
                "t_guess must be",
                "epsilon must be in",
            ):
                if needle in text:
                    offenders.append(f"{path.name}: {needle}")
    assert offenders == []
