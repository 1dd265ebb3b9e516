"""Static seed audit: ``repro verify seeds``.

The audit instantiates every RNG-bearing component in the tree at a
handful of shared seeds, records each one's first :data:`DRAWS` random
draws, and flags any two components whose streams coincide.  Before
the namespaced seeding scheme (:mod:`repro.seeding`) this audit fails
loudly: ``ReservoirSampler(k, seed)`` and ``UniformItemSampler(seed)``
both drove ``random.Random(seed)``, every vectorized generator fed the
raw seed into ``PCG64``, and the linear-offset hash seeds
(``seed * 37 + 5``) collided across components.  After it, every pair
of probes draws from sha256-separated streams and the audit is clean.

Two failure modes are checked:

* **cross-component** — two different probes produce identical leading
  draws at the same seed (the shared-raw-seed bug);
* **cross-seed** — one probe produces identical draws at two different
  seeds (a component that ignores or clamps its seed).

Probes favor *live instances* over re-derivations of the tag strings
(reaching into private RNG attributes where needed) so the audit keeps
watching the real components even if the derivation call sites drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines.triest import _ReservoirGraph
from ..graphs.generators import generator_rng, generator_scalar_rng
from ..seeding import component_rng, derive_seed
from ..sketches.hashing import KWiseHash
from ..sketches.reservoir import ReservoirSampler, UniformItemSampler

__all__ = [
    "AUDIT_SEEDS",
    "DRAWS",
    "SeedCollision",
    "SeedProbe",
    "audit_seeds",
    "default_probes",
]

#: How many leading draws each probe records.  64 doubles make an
#: accidental collision between independent streams impossible in
#: practice (probability ~ 2^-3000) — any match is a real shared stream.
DRAWS = 64

#: The shared seeds every probe is instantiated at.
AUDIT_SEEDS: Tuple[int, ...] = (0, 7, 123)

Drawer = Callable[[int], Tuple[float, ...]]


@dataclass(frozen=True)
class SeedProbe:
    """One named component and how to extract its leading draws."""

    name: str
    draw: Drawer


@dataclass(frozen=True)
class SeedCollision:
    """Two probe/seed coordinates that produced identical streams."""

    probe_a: str
    seed_a: int
    probe_b: str
    seed_b: int

    def describe(self) -> str:
        if self.probe_a == self.probe_b:
            return (
                f"{self.probe_a}: seeds {self.seed_a} and {self.seed_b} "
                f"produce identical draws (seed ignored?)"
            )
        return (
            f"{self.probe_a} and {self.probe_b} produce identical draws "
            f"at shared seed {self.seed_a} (correlated RNG streams)"
        )


# ----------------------------------------------------------------------
# probe constructors
# ----------------------------------------------------------------------
def _scalar_draws(rng) -> Tuple[float, ...]:
    return tuple(rng.random() for _ in range(DRAWS))


def _numpy_draws(rng: "np.random.Generator") -> Tuple[float, ...]:
    return tuple(float(x) for x in rng.random(DRAWS))


def _generator_probe(name: str) -> SeedProbe:
    return SeedProbe(
        name=f"generator:{name}",
        draw=lambda seed, _n=name: _numpy_draws(generator_rng(_n, seed)),
    )


def _scalar_generator_probe(name: str) -> SeedProbe:
    return SeedProbe(
        name=f"generator:{name}",
        draw=lambda seed, _n=name: _scalar_draws(generator_scalar_rng(_n, seed)),
    )


def _kwise_probe(namespace: str, k: int = 2) -> SeedProbe:
    label = namespace if namespace else "<default>"
    return SeedProbe(
        name=f"kwise:{label}",
        draw=lambda seed, _ns=namespace, _k=k: tuple(
            KWiseHash(k=_k, seed=seed, namespace=_ns).uniform(i) for i in range(DRAWS)
        ),
    )


#: Generators that draw from ``generator_rng`` (numpy PCG64) ...
_NUMPY_GENERATORS = (
    "erdos-renyi",
    "gnm",
    "chung-lu",
    "random-bipartite",
)

#: ... and those that draw from ``generator_scalar_rng`` (random.Random).
_SCALAR_GENERATORS = (
    "barabasi-albert",
    "power-law.weights",
    "user-item",
    "planted-triangles",
    "planted-four-cycles",
    "planted-diamonds",
    "heavy-edge",
)

#: KWiseHash namespaces in live use across the tree.  Probing several
#: proves the namespace really decorrelates the coefficient streams.
_KWISE_NAMESPACES = (
    "",
    "edge-sampling.sample",
    "mvv-twopass.sample",
    "wedge-pair-sampling.wedge",
    "fourcycle-distinguisher.sample",
    "useful.r1",
    "useful.r2",
)


def default_probes() -> List[SeedProbe]:
    """The full probe registry (rebuilt per call; probes are stateless)."""
    probes: List[SeedProbe] = []
    probes.extend(_generator_probe(name) for name in _NUMPY_GENERATORS)
    probes.extend(_scalar_generator_probe(name) for name in _SCALAR_GENERATORS)
    probes.append(
        SeedProbe(
            "sketch:reservoir-sampler",
            lambda seed: _scalar_draws(ReservoirSampler(8, seed=seed)._rng),
        )
    )
    probes.append(
        SeedProbe(
            "sketch:uniform-item-sampler",
            lambda seed: _scalar_draws(UniformItemSampler(seed=seed)._rng),
        )
    )
    probes.append(
        SeedProbe(
            "triest:reservoir[base]",
            lambda seed: _scalar_draws(_ReservoirGraph(8, seed, variant="base")._rng),
        )
    )
    probes.append(
        SeedProbe(
            "triest:reservoir[impr]",
            lambda seed: _scalar_draws(_ReservoirGraph(8, seed, variant="impr")._rng),
        )
    )
    probes.append(
        SeedProbe(
            "stream:random-order",
            lambda seed: _scalar_draws(component_rng("stream:random-order", seed=seed)),
        )
    )
    probes.append(
        SeedProbe(
            "stream:adjacency-list",
            lambda seed: _scalar_draws(
                component_rng("stream:adjacency-list", seed=seed)
            ),
        )
    )
    probes.append(
        SeedProbe(
            "baseline:bera-chakrabarti.positions",
            lambda seed: _scalar_draws(
                component_rng("bera-chakrabarti.positions", seed=seed)
            ),
        )
    )
    probes.append(
        SeedProbe(
            "core:fourcycle-l2.coin",
            lambda seed: _scalar_draws(component_rng("fourcycle-l2.coin", seed=seed)),
        )
    )
    probes.append(
        SeedProbe(
            "sketch:wedge-f2.signs",
            lambda seed: _numpy_draws(
                np.random.Generator(
                    np.random.Philox(
                        key=derive_seed("sketch:wedge-f2.signs", 40, seed=seed)
                    )
                )
            ),
        )
    )
    probes.extend(_kwise_probe(namespace) for namespace in _KWISE_NAMESPACES)
    return probes


# ----------------------------------------------------------------------
# the audit
# ----------------------------------------------------------------------
def audit_seeds(
    probes: Optional[Sequence[SeedProbe]] = None,
    seeds: Sequence[int] = AUDIT_SEEDS,
) -> List[SeedCollision]:
    """Run the audit; the returned list is empty iff the tree is clean.

    Args:
        probes: probe registry (defaults to :func:`default_probes`).
            Tests inject stub probes here — e.g. two raw-seeded
            components reproducing the pre-fix tree — to prove the
            audit actually fires.
        seeds: the shared seeds to instantiate every probe at.
    """
    if probes is None:
        probes = default_probes()
    names = [probe.name for probe in probes]
    if len(set(names)) != len(names):
        raise ValueError("probe names must be unique")
    streams: Dict[Tuple[str, int], Tuple[float, ...]] = {
        (probe.name, seed): probe.draw(seed) for probe in probes for seed in seeds
    }
    collisions: List[SeedCollision] = []
    # cross-component: same seed, different probes
    for seed in seeds:
        for i, probe_a in enumerate(probes):
            for probe_b in probes[i + 1 :]:
                if streams[(probe_a.name, seed)] == streams[(probe_b.name, seed)]:
                    collisions.append(
                        SeedCollision(probe_a.name, seed, probe_b.name, seed)
                    )
    # cross-seed: same probe, different seeds
    for probe in probes:
        for i, seed_a in enumerate(seeds):
            for seed_b in seeds[i + 1 :]:
                if streams[(probe.name, seed_a)] == streams[(probe.name, seed_b)]:
                    collisions.append(
                        SeedCollision(probe.name, seed_a, probe.name, seed_b)
                    )
    return collisions
