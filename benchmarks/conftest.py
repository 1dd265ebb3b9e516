"""Shared workloads for the claims benchmarks.

Each workload is named once, as a ``(family, params)`` spec.  Bench
files measure trial cells on a spec through
:class:`repro.experiments.suite.Cell`, and the fixtures below build the
same spec for tests that need the graph itself, so cells and fixtures
run on the same graph and rows are comparable across files.  The
fixtures are session-scoped because building a graph and its exact
counts is itself expensive.
"""

from __future__ import annotations

import pytest

from repro.experiments import build_workload

LIGHT_TRIANGLES = (
    "light-triangles",
    {"n": 900, "num_triangles": 200, "noise_edges": 1200},
)
HEAVY_TRIANGLES = (
    "heavy-and-light-triangles",
    {"n": 1500, "heavy_triangles": 400, "light_triangles_count": 150},
)
DIAMONDS = (
    "diamond-mixture",
    {
        "n": 2500,
        "large": (40,) * 8,
        "medium": (15,) * 16,
        "small": (4,) * 30,
        "noise_edges": 600,
    },
)
MEDIUM_DIAMONDS = (
    "medium-diamonds",
    {"n": 4000, "diamond_size": 12, "count": 80, "noise_edges": 800},
)
DENSE = ("dense-gnp", {"n": 50, "p": 0.5})
SPARSE_C4 = (
    "sparse-four-cycles",
    {"n": 2000, "num_cycles": 350, "noise_edges": 500},
)


def _build(spec):
    family, params = spec
    return build_workload(family, **params)


@pytest.fixture(scope="session")
def light_triangle_workload():
    return _build(LIGHT_TRIANGLES)


@pytest.fixture(scope="session")
def heavy_triangle_workload():
    return _build(HEAVY_TRIANGLES)


@pytest.fixture(scope="session")
def diamond_workload():
    return _build(DIAMONDS)


@pytest.fixture(scope="session")
def medium_diamond_workload():
    return _build(MEDIUM_DIAMONDS)


@pytest.fixture(scope="session")
def dense_workload():
    return _build(DENSE)


@pytest.fixture(scope="session")
def sparse_c4_workload():
    return _build(SPARSE_C4)
