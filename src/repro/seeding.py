"""Namespaced, structured seed derivation — one RNG stream per component.

The bug class this module kills: two *different* components handed the
same integer seed used to construct byte-identical RNGs —
``ReservoirSampler(k, seed=7)`` and ``UniformItemSampler(seed=7)`` both
called ``random.Random(7)``, and every vectorized generator fed the raw
seed straight into ``PCG64(seed)`` — so "independently seeded"
randomness sources emitted identical (perfectly correlated) streams.
Correlated randomness silently *inflates* apparent estimator accuracy,
which is exactly the failure mode a reproduction must not have.

Every RNG in this repo is now derived from a structured digest::

    derive_seed(component_tag, *typed_fields, seed=seed)

which sha256-hashes a canonical, type-tagged encoding of the component
name, its distinguishing fields (independence degree, namespace, ...)
and the user seed.  Two components agree on their stream only if they
agree on *all* of it.  The encoding is versioned (``SCHEME``): any
change to it is a new scheme string, never a silent re-mix.

The previous ad-hoc defenses — linear offsets like ``seed * 37 + 5``
(collide across components: ``37 s + 5 = 53 s' + 9`` has integer
solutions) and ``repr``-keyed seeding like ``random.Random(repr((tag,
k, seed)))`` (collides whenever two field tuples share a repr, and
couples the stream to Python's repr format) — are gone.

There is deliberately **no** legacy switch: goldens that pinned the old
streams were updated instead, so a single derivation scheme covers the
whole tree and ``repro verify seeds`` can audit it (see
:mod:`repro.verify.seeds`).
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, List, Union

import numpy as np

#: Version tag mixed into every digest.  Bump (never reuse) when the
#: encoding changes; documented in docs/verification.md.
SCHEME = "repro-seed-v1"

Field = Union[int, float, str, bool, bytes, tuple, list, None]


def _encode(field: Field) -> bytes:
    """Canonical type-tagged encoding of one seed field.

    Each scalar carries an explicit type tag so cross-type collisions
    (``1`` vs ``True`` vs ``"1"`` vs ``1.0``) are impossible, and
    sequences are length-delimited so nesting is unambiguous —
    ``("a", ("b",))`` and ``("a", "b")`` encode differently.
    """
    # exact ints and tuples first, the common fields; the tagged chain
    # below gives the same bytes and handles subclasses
    kind = type(field)
    if kind is int:
        return b"i:%d" % field
    if kind is tuple:
        return b"t:%d[%b]" % (len(field), b"".join([_encode(item) for item in field]))
    if field is None:
        return b"n:"
    if isinstance(field, bool):  # before int: bool is an int subclass
        return b"b:1" if field else b"b:0"
    if isinstance(field, int):
        return b"i:" + str(field).encode("ascii")
    if isinstance(field, float):
        return b"f:" + field.hex().encode("ascii")
    if isinstance(field, str):
        raw = field.encode("utf-8")
        return b"s:" + str(len(raw)).encode("ascii") + b":" + raw
    if isinstance(field, bytes):
        return b"y:" + str(len(field)).encode("ascii") + b":" + field
    if isinstance(field, (tuple, list)):
        inner = b"".join(_encode(item) for item in field)
        return b"t:" + str(len(field)).encode("ascii") + b"[" + inner + b"]"
    raise TypeError(
        f"seed fields must be int/float/str/bool/bytes/tuple/None, "
        f"got {type(field).__name__}"
    )


def derive_seeds(component: str, *fields: Field, seeds: Iterable[Field]) -> List[int]:
    """:func:`derive_seed` for each of ``seeds``, sharing one digest prefix.

    The prefix over ``(component, fields)`` is hashed once and copied per
    seed, so a batch of components that differ only in their user seed
    (say, many hash functions of one namespace) costs one short digest each.
    """
    if not isinstance(component, str) or not component:
        raise TypeError(f"component tag must be a non-empty str, got {component!r}")
    prefix = hashlib.sha256()
    prefix.update(SCHEME.encode("ascii"))
    prefix.update(b"\x00")
    prefix.update(_encode(component))
    for field in fields:
        prefix.update(b"\x1f")
        prefix.update(_encode(field))
    prefix.update(b"\x1e")
    derived = []
    for seed in seeds:
        digest = prefix.copy()
        digest.update(_encode(seed))
        derived.append(int.from_bytes(digest.digest()[:8], "big") >> 1)  # 63 bits
    return derived


def derive_seed(component: str, *fields: Field, seed: Field = 0) -> int:
    """A 63-bit seed unique to ``(component, fields, seed)``.

    Args:
        component: the component tag, e.g. ``"sketch:reservoir-sampler"``.
            Dotted/colon-separated lowercase names by convention.
        fields: distinguishing structural fields (independence degree,
            namespace string, copy index, ...) — anything that makes two
            instances of the same component class logically independent.
        seed: the user-facing seed (keyword-only so call sites read as
            ``derive_seed("tag", k, seed=seed)``).
    """
    return derive_seeds(component, *fields, seeds=(seed,))[0]


def component_rng(component: str, *fields: Field, seed: Field = 0) -> random.Random:
    """A ``random.Random`` whose state is namespaced to the component."""
    return random.Random(derive_seed(component, *fields, seed=seed))


def numpy_generator(
    component: str, *fields: Field, seed: Field = 0
) -> "np.random.Generator":
    """A numpy ``Generator`` (PCG64) namespaced to the component."""
    return np.random.Generator(
        np.random.PCG64(derive_seed(component, *fields, seed=seed))
    )
