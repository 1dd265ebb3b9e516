"""The namespaced seed-derivation scheme (repro.seeding).

These are the decorrelation regressions for the shared-raw-seed bug:
two components handed the same user seed must end up with unrelated
RNG streams, and the canonical field encoding must make cross-type
and cross-nesting collisions impossible.
"""

import pytest

from repro.seeding import SCHEME, component_rng, derive_seed, numpy_generator
from repro.sketches import ReservoirSampler, UniformItemSampler


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed("a.b", 1, "x", seed=7) == derive_seed("a.b", 1, "x", seed=7)

    def test_63_bit_non_negative(self):
        for seed in (0, 1, 2**40, -3):
            value = derive_seed("component", seed=seed)
            assert 0 <= value < 2**63

    def test_component_separates_streams(self):
        assert derive_seed("a", seed=0) != derive_seed("b", seed=0)

    def test_seed_separates_streams(self):
        assert derive_seed("a", seed=0) != derive_seed("a", seed=1)

    def test_fields_separate_streams(self):
        assert derive_seed("a", 1, seed=0) != derive_seed("a", 2, seed=0)
        assert derive_seed("a", seed=0) != derive_seed("a", 0, seed=0)

    def test_cross_type_scalars_distinct(self):
        # 1, True, "1", 1.0 hash equal in Python; the encoding must not.
        variants = [
            derive_seed("a", 1, seed=0),
            derive_seed("a", True, seed=0),
            derive_seed("a", "1", seed=0),
            derive_seed("a", 1.0, seed=0),
            derive_seed("a", None, seed=0),
        ]
        assert len(set(variants)) == len(variants)

    def test_nesting_is_unambiguous(self):
        flat = derive_seed("a", ("x", "y"), seed=0)
        nested = derive_seed("a", ("x", ("y",)), seed=0)
        split = derive_seed("a", "x", "y", seed=0)
        assert len({flat, nested, split}) == 3

    def test_string_concatenation_unambiguous(self):
        # length-delimited strings: ("ab", "c") must differ from ("a", "bc")
        assert derive_seed("t", "ab", "c", seed=0) != derive_seed(
            "t", "a", "bc", seed=0
        )

    def test_field_and_seed_positions_distinct(self):
        assert derive_seed("a", 5, seed=0) != derive_seed("a", 0, seed=5)

    def test_rejects_bad_component(self):
        with pytest.raises(TypeError):
            derive_seed("", seed=0)
        with pytest.raises(TypeError):
            derive_seed(7, seed=0)  # type: ignore[arg-type]

    def test_rejects_unencodable_field(self):
        with pytest.raises(TypeError):
            derive_seed("a", {"k": 1}, seed=0)  # type: ignore[arg-type]

    def test_scheme_is_pinned(self):
        # Goldens across the tree pin streams derived under this scheme;
        # changing it must be a deliberate, visible act.
        assert SCHEME == "repro-seed-v1"


class TestComponentRng:
    def test_same_component_same_stream(self):
        a = component_rng("x", seed=3)
        b = component_rng("x", seed=3)
        assert [a.random() for _ in range(8)] == [b.random() for _ in range(8)]

    def test_different_components_different_streams(self):
        a = component_rng("x", seed=3)
        b = component_rng("y", seed=3)
        assert [a.random() for _ in range(8)] != [b.random() for _ in range(8)]

    def test_numpy_generator_decorrelated(self):
        a = numpy_generator("x", seed=3).random(8).tolist()
        b = numpy_generator("y", seed=3).random(8).tolist()
        assert a != b


class TestSharedSeedRegression:
    def test_reservoir_and_uniform_sampler_decorrelated(self):
        # The original bug: both called random.Random(seed) directly.
        for seed in (0, 7, 123):
            reservoir = ReservoirSampler(capacity=8, seed=seed)
            sampler = UniformItemSampler(seed=seed)
            a = [reservoir._rng.random() for _ in range(16)]
            b = [sampler._rng.random() for _ in range(16)]
            assert a != b

    def test_reservoir_capacity_separates_streams(self):
        a = ReservoirSampler(capacity=4, seed=9)
        b = ReservoirSampler(capacity=5, seed=9)
        assert [a._rng.random() for _ in range(16)] != [
            b._rng.random() for _ in range(16)
        ]


def test_pinned_derivations():
    """The scheme's outputs, pinned: any change to the encoding or the
    digest path must be a new ``SCHEME``, never a silent re-mix."""
    assert [
        derive_seed("sketch:kwise-hash", 2, "threepass.select[0]", seed=s)
        for s in (0, 100_003, -7)
    ] == [9063989129962576852, 6133857995225482819, 5151404061521051054]
    assert derive_seed("a.b", (1, "x"), None, seed="s") == 5742442910774447278


def _reference_encode(field):
    """The tagged isinstance chain alone, without the exact-type fast path."""
    if field is None:
        return b"n:"
    if isinstance(field, bool):
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
        inner = b"".join(_reference_encode(item) for item in field)
        return b"t:" + str(len(field)).encode("ascii") + b"[" + inner + b"]"
    raise TypeError(type(field).__name__)


def test_encoding_fast_path_matches_tagged_chain():
    import enum

    from repro.seeding import _encode

    class Small(enum.IntEnum):
        ONE = 1

    fields = [
        0, 7, -7, 2**61 - 1, -(2**70), 10**40, True, False, Small.ONE, None, 1.5,
        "v12", "", b"\x00k", (), (3,), [1, (2, "x")], (1, (123, 456)),
        (5, ("v1", "v2")), (0, (-(10**15), 10**15)), ((), [[]], (None, True)),
    ]
    for field in fields:
        assert _encode(field) == _reference_encode(field), field
