"""Public-API hygiene: exports resolve, carry docstrings, and the
package surface matches what the docs promise."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.api",
    "repro.graphs",
    "repro.streams",
    "repro.sketches",
    "repro.core",
    "repro.baselines",
    "repro.lowerbounds",
    "repro.experiments",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    module = importlib.import_module(package_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    for name in exported:
        assert hasattr(module, name), f"{package_name}.__all__ lists missing {name}"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_public_callables_have_docstrings(package_name):
    module = importlib.import_module(package_name)
    exported = getattr(module, "__all__", [])
    for name in exported:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{package_name}.{name} lacks a docstring"


def test_module_docstrings():
    for package_name in PACKAGES:
        module = importlib.import_module(package_name)
        assert module.__doc__, f"{package_name} lacks a module docstring"


def test_version():
    assert repro.__version__ == "1.0.0"


def test_algorithms_share_run_contract():
    """Every algorithm exposes `name` and `run`, as the docs state."""
    from repro import baselines, core

    algorithm_classes = [
        core.TriangleRandomOrder,
        core.FourCycleAdjacencyDiamond,
        core.FourCycleMoment,
        core.FourCycleL2Sampling,
        core.FourCycleArbitraryThreePass,
        core.FourCycleArbitraryOnePass,
        core.FourCycleDistinguisher,
        baselines.CormodeJowhariTriangles,
        baselines.TwoPassTriangles,
        baselines.BeraChakrabartiFourCycles,
        baselines.WedgePairSamplingFourCycles,
        baselines.TriestBase,
        baselines.TriestImpr,
        baselines.EdgeSamplingTriangles,
        baselines.EdgeSamplingFourCycles,
        baselines.ExactTriangleStream,
        baselines.ExactFourCycleStream,
    ]
    names = set()
    for cls in algorithm_classes:
        assert hasattr(cls, "run")
        assert isinstance(cls.name, str) and cls.name
        names.add(cls.name)
    assert len(names) == len(algorithm_classes), "algorithm names must be unique"


def test_workload_registry_matches_docs():
    from repro.experiments import ALL_WORKLOADS

    for expected in (
        "light-triangles",
        "heavy-and-light-triangles",
        "diamond-mixture",
        "sparse-four-cycles",
        "dense-gnp",
        "four-cycle-free",
    ):
        assert expected in ALL_WORKLOADS


API_DOC = Path(__file__).resolve().parents[1] / "docs" / "api.md"
_SECTION = re.compile(r"^## `(repro[\w.]*)`")
_HINT = re.compile(r"\(in `(repro[\w.]*)`\)")
_CALL = re.compile(r"^(\.?[A-Za-z_][\w.]*)\((.*)\)(?: -> .*)?$")


def _documented_calls():
    """``(line, modules, dotted name, params)`` for every `` `name(params)` ``
    in the first column of a docs/api.md table.  A leading-dot name such
    as `.from_graph(graph)` belongs to the cell's previous name."""
    section = None
    for number, line in enumerate(API_DOC.read_text().splitlines(), 1):
        if line.startswith("## "):
            match = _SECTION.match(line)
            section = match.group(1) if match else None
        if not line.startswith("| ") or line.startswith("|---"):
            continue
        first = line.split(" | ")[0][2:]
        modules = _HINT.findall(first) + ([section] if section else [])
        owner = ""
        for span in re.findall(r"`([^`]+)`", first):
            match = _CALL.match(span)
            if not match:
                continue
            dotted = match.group(1)
            if dotted.startswith("."):
                dotted = owner + dotted
            owner = dotted.split(".")[0]
            yield number, modules, dotted, match.group(2)


def _param_names(text):
    """Names in a documented parameter list: ``*fields`` -> ``fields``,
    ``seed=None`` -> ``seed``; ``...`` is dropped."""
    names = [part.strip().lstrip("*").split("=")[0].strip() for part in text.split(",")]
    return [name for name in names if name and name != "..."]


def _resolve(dotted, modules):
    """The object ``dotted`` names, looked up in ``modules`` first, then
    in ``repro`` and every ``repro`` submodule."""
    head, *rest = dotted.split(".")
    search = modules + ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith("__main__")
    ]
    for name in search:
        module = importlib.import_module(name)
        if hasattr(module, head):
            obj = getattr(module, head)
            break
    else:
        return None
    for part in rest:
        obj = getattr(obj, part, None)
    return obj


def test_api_doc_signatures_match_code():
    """Every documented call resolves to a callable, and each parameter
    it lists exists in that callable's signature."""
    calls = list(_documented_calls())
    assert len(calls) > 40, "the table parser found too few documented calls"
    problems = []
    for number, modules, dotted, params in calls:
        obj = _resolve(dotted, modules)
        if not callable(obj):
            problems.append(f"api.md:{number}: `{dotted}` names no repro callable")
            continue
        parameters = inspect.signature(obj).parameters
        if any(p.kind is p.VAR_KEYWORD for p in parameters.values()):
            continue
        problems += [
            f"api.md:{number}: `{dotted}` has no parameter {name!r}"
            for name in _param_names(params)
            if name not in parameters
        ]
    assert not problems, "\n".join(problems)
