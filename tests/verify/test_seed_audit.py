"""Seed audit: the fixed tree is clean, and a reconstruction of the
pre-fix shared-raw-seed wiring is flagged."""

import inspect
import random
import re

import pytest

from repro.verify import SeedCollision, SeedProbe, audit_seeds, default_probes
from repro.verify.report import render_seed_audit
from repro.graphs import generators
from repro.verify.seeds import (
    AUDIT_SEEDS,
    DRAWS,
    _NUMPY_GENERATORS,
    _SCALAR_GENERATORS,
)


def _raw_seed_probe(name: str) -> SeedProbe:
    """A component seeded the pre-fix way: ``random.Random(seed)``
    directly, no namespacing — exactly what ReservoirSampler and
    UniformItemSampler both did before repro.seeding existed."""
    return SeedProbe(
        name=name,
        draw=lambda seed: tuple(
            random.Random(seed).random() for _ in range(DRAWS)
        ),
    )


class TestDefaultRegistry:
    def test_tree_is_clean(self):
        probes = default_probes()
        assert len(probes) >= 25  # generators + sketches + streams + kwise
        assert audit_seeds(probes) == []

    def test_probe_names_unique_and_stable(self):
        names = [probe.name for probe in default_probes()]
        assert len(set(names)) == len(names)
        # components the issue called out explicitly must stay probed
        assert "sketch:reservoir-sampler" in names
        assert "sketch:uniform-item-sampler" in names
        assert "generator:erdos-renyi" in names

    def test_generators_probed_through_the_rng_they_use(self):
        """Each generator namespace is probed through the same kind of
        RNG (numpy or scalar) that the generators module draws it from."""
        source = inspect.getsource(generators)
        numpy_names = set(re.findall(r'generator_rng\("([^"]+)"', source))
        scalar_names = set(re.findall(r'generator_scalar_rng\("([^"]+)"', source))
        assert set(_NUMPY_GENERATORS) == numpy_names
        assert set(_SCALAR_GENERATORS) == scalar_names


class TestPreFixReproduction:
    def test_shared_raw_seed_is_flagged(self):
        # Two distinct components both built on random.Random(seed):
        # identical streams at every shared seed -> cross-component hits.
        probes = [
            _raw_seed_probe("legacy:reservoir"),
            _raw_seed_probe("legacy:uniform-sampler"),
        ]
        collisions = audit_seeds(probes)
        cross = [c for c in collisions if c.probe_a != c.probe_b]
        assert len(cross) == len(AUDIT_SEEDS)
        assert all(c.seed_a == c.seed_b for c in cross)
        assert "correlated RNG streams" in cross[0].describe()

    def test_seed_ignoring_component_is_flagged(self):
        probes = [
            SeedProbe(
                "legacy:ignores-seed",
                draw=lambda seed: tuple(
                    random.Random(0).random() for _ in range(DRAWS)
                ),
            )
        ]
        collisions = audit_seeds(probes)
        same = [c for c in collisions if c.probe_a == c.probe_b]
        assert len(same) == len(AUDIT_SEEDS) * (len(AUDIT_SEEDS) - 1) // 2
        assert "seed ignored" in same[0].describe()

    def test_mixing_legacy_probe_into_clean_registry_still_clean_pairwise(self):
        # A single raw-seeded probe among namespaced ones collides with
        # nothing (sha256 streams differ from random.Random(seed)) but
        # its own cross-seed draws still differ — audit stays targeted.
        probes = default_probes() + [_raw_seed_probe("legacy:lone")]
        assert audit_seeds(probes) == []

    def test_duplicate_probe_names_rejected(self):
        probes = [_raw_seed_probe("dup"), _raw_seed_probe("dup")]
        with pytest.raises(ValueError, match="unique"):
            audit_seeds(probes)


class TestRendering:
    def test_clean_render(self):
        text = render_seed_audit([], probes=31)
        assert "clean" in text and "31" in text

    def test_failed_render_lists_collisions(self):
        collision = SeedCollision("a", 7, "b", 7)
        text = render_seed_audit([collision], probes=2)
        assert "FAILED" in text
        assert "a and b" in text
