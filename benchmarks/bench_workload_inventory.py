"""Workload inventory — the reproduction's "datasets table".

Prints the profile of every registered workload family (sizes, counts,
concentration) and asserts each family's design intent: the heavy
workload really concentrates its triangles on one edge, the dense
workload really sits in the T = Omega(n^2) regime, the user-item graph
really is triangle-free and diamond-rich, and so on.  This is the
table EXPERIMENTS.md's rows implicitly reference.
"""

import pytest

from repro.experiments import ALL_WORKLOADS, build_workload, format_records, print_experiment
from repro.graphs import heaviness_summary


@pytest.fixture(scope="module")
def inventory():
    profiles = {}
    for name in sorted(ALL_WORKLOADS):
        workload = build_workload(name)
        profile = heaviness_summary(workload.graph)
        profile.update(
            {
                "name": name,
                "n": workload.n,
                "m": workload.m,
            }
        )
        profiles[name] = profile
    return profiles


def test_inventory_table(inventory):
    columns = [
        "name",
        "n",
        "m",
        "triangles",
        "four_cycles",
        "max_edge_triangles",
        "max_edge_four_cycles",
        "triangle_concentration",
        "four_cycle_concentration",
    ]
    rows = [
        {key: profile[key] for key in columns} for profile in inventory.values()
    ]
    print_experiment("Workload inventory", format_records(rows))
    assert len(rows) == len(ALL_WORKLOADS)


def test_heavy_workload_is_concentrated(inventory):
    profile = inventory["heavy-and-light-triangles"]
    assert profile["triangle_concentration"] > 0.5


def test_light_workload_is_flat(inventory):
    profile = inventory["light-triangles"]
    assert profile["triangle_concentration"] < 0.1


def test_dense_workload_regime(inventory):
    profile = inventory["dense-gnp"]
    assert profile["four_cycles"] > profile["n"] ** 2


def test_user_item_triangle_free_and_diamond_rich(inventory):
    profile = inventory["user-item"]
    assert profile["triangles"] == 0
    assert profile["four_cycles"] > 100


def test_four_cycle_free_really_is(inventory):
    assert inventory["four-cycle-free"]["four_cycles"] == 0


def test_power_law_has_heavy_tail(inventory):
    profile = inventory["power-law"]
    # hub edges concentrate a visible share of the (possibly few) counts
    assert profile["m"] > profile["n"]  # super-tree density from the tail


def test_diamond_mixture_has_concentrated_cycles(inventory):
    profile = inventory["diamond-mixture"]
    assert profile["max_edge_four_cycles"] >= 30  # the size-40 diamonds
