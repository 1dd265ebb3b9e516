"""k-wise independent hash families.

Every randomized choice the algorithms make that must be *queryable
without storing the sample* — "is vertex v in the level-i sample V_i?",
"what is the sign alpha_u?" — goes through a hash function from the
classic polynomial family over the Mersenne prime ``P = 2^61 - 1``:

    h(x) = (a_{k-1} x^{k-1} + ... + a_1 x + a_0) mod P

which is k-wise independent when the coefficients are uniform.  The
paper's algorithms need pairwise (sampling) and 4-wise (the AMS-style
sign vectors of Section 4.2) independence; callers pick ``k``.

Keys may be integers, strings, or (nested) tuples thereof; they are
folded into integers by a fixed injective-enough encoding so that the
same key always maps to the same value regardless of Python's
per-process hash randomization.

Every scalar method has an exact vectorized counterpart over uint64
arrays.  :func:`stable_key_array` folds int keys and int pairs with
array arithmetic, and :func:`stable_tuple_keys` folds tuples from the
key columns of their members, so nested keys such as ``(d, (a, b))``
need no per-key recursion.  The Mersenne ``mulmod`` splits operands
into 30/31-bit halves so each Horner step needs a single reduction.
:class:`HashStack` evaluates many same-degree functions together:
:meth:`~HashStack.values` hashes one key array under every function (a
``(functions x keys)`` matrix, how a bank of sketches hashes a batch
under all its rows).  :func:`draw_coefficients` draws the coefficients
of many functions that differ only in their seed without building them
one by one.  The scalar path stays the reference the vectorized one is
tested against.
"""

from __future__ import annotations

import math
import random
from itertools import chain
from typing import Hashable, Iterable, List, Sequence

import numpy as np

from ..seeding import Field, derive_seeds

MERSENNE_PRIME = (1 << 61) - 1

_P64 = np.uint64(MERSENNE_PRIME)
_SHIFT61 = np.uint64(61)
_MASK31 = np.uint64((1 << 31) - 1)
_MASK30 = np.uint64((1 << 30) - 1)
_SHIFT31 = np.uint64(31)
_SHIFT30 = np.uint64(30)
_ONE = np.uint64(1)
_INV_2_61 = 2.0**-61  # 1 / (P + 1)


def _mod_p(x: "np.ndarray") -> "np.ndarray":
    """Reduce any uint64 values modulo ``P = 2**61 - 1``.

    One Mersenne fold ``y = (x >> 61) + (x & P)`` leaves ``y <= P + 7``.
    Then ``min(y, y - P)`` finishes: below ``P`` the subtraction wraps
    past ``2**63`` and the minimum keeps ``y``.
    """
    y = (x >> _SHIFT61) + (x & _P64)
    return np.minimum(y, y - _P64)


def _mul_terms(a: "np.ndarray", b: "np.ndarray") -> "np.ndarray":
    """An unreduced ``a * b`` (mod ``P``) for uint64 entries ``< 2**61``.

    Splits both operands into 30/31-bit halves so every partial product
    fits in 64 bits, and uses ``2^61 = 1 (mod P)``:

        a*b = a1*b1*2^62 + mid*2^31 + a0*b0,  mid = a1*b0 + a0*b1 < 2^62
            = 2*a1*b1 + (mid >> 30) + (mid & (2^30-1))*2^31 + a0*b0

    The four terms are below ``2^61``, ``2^32``, ``2^61`` and ``2^62``,
    so the result is below ``2^63 + 2^32``: a further addend below
    ``2^61`` still fits, and one :func:`_mod_p` fold reduces the sum.
    """
    a1 = a >> _SHIFT31
    a0 = a & _MASK31
    b1 = b >> _SHIFT31
    b0 = b & _MASK31
    mid = a1 * b0
    mid += a0 * b1
    total = a1 * b1
    total <<= _ONE
    total += mid >> _SHIFT30
    mid &= _MASK30
    mid <<= _SHIFT31
    total += mid
    total += a0 * b0
    return total


def _horner(coeffs: "np.ndarray", x: "np.ndarray") -> "np.ndarray":
    """Evaluate ``F`` polynomials, highest degree first, at folded keys.

    ``coeffs`` is an ``(F, k)`` uint64 matrix, as :class:`KWiseHash`
    stores its coefficients; ``x`` is a flat ``(N,)`` array of folded
    keys below ``P``, and the result is the ``(F, N)`` matrix of every
    function at every key.  Each Horner step ``acc * x + c`` is reduced
    with one fold.
    """
    acc = coeffs[:, :1]
    for j in range(1, coeffs.shape[1]):
        total = _mul_terms(acc, x)
        total += coeffs[:, j : j + 1]
        acc = _mod_p(total)
    shape = np.broadcast_shapes(acc.shape, x.shape)
    if acc.shape != shape:  # k == 1: a constant function
        acc = np.broadcast_to(acc, shape).copy()
    return acc


def _only_ints(items: Iterable[object]) -> bool:
    """All items are (numpy) integers and none is a ``bool``."""
    types = set(map(type, items))
    return all(
        issubclass(t, (int, np.integer)) and not issubclass(t, bool) for t in types
    )


# stable_key of a tuple: acc = 104729, then acc = acc * M + key(item) + 1
_TUPLE_SEED = np.uint64(104729)
_TUPLE_MUL = np.uint64(1000003)


def _fold_ints(values: "np.ndarray") -> "np.ndarray":
    """:func:`stable_key` of each int64 entry, as uint64 below ``P``."""
    # numpy's % floors like Python's, so r is in [0, P) for every int64
    # (the minimum included, which has no int64 absolute value), and a
    # negative v keys to P - 1 - (-v mod P) = (v - 1) mod P.
    r = values % MERSENNE_PRIME
    return np.where(values < 0, (r - 1) % MERSENNE_PRIME, r).astype(np.uint64)


def _as_int64(keys: Iterable[object]) -> "np.ndarray | None":
    try:
        return np.array(keys, dtype=np.int64)
    except OverflowError:  # ints beyond int64 take the scalar encoder
        return None


def stable_key_array(keys: Iterable[Hashable]) -> "np.ndarray":
    """Vectorized :func:`stable_key`: fold a batch of keys to uint64 < P.

    Integer arrays and lists of ints are folded with array arithmetic,
    and so are lists of int pairs ``(u, v)`` (edge and wedge keys), via
    the Mersenne ``mulmod``.  Anything else (strings, longer tuples,
    ``bool`` members, ints beyond int64, mixed lists) falls back to the
    scalar encoder per element.  Every path agrees exactly with
    :func:`stable_key`.
    """
    if isinstance(keys, np.ndarray) and np.issubdtype(keys.dtype, np.integer):
        return _fold_ints(keys.astype(np.int64, copy=False))
    materialized = keys if isinstance(keys, (list, tuple, range)) else list(keys)
    if materialized and _only_ints(materialized):
        values = _as_int64(materialized)
        if values is not None:
            return _fold_ints(values)
    elif (
        materialized
        and set(map(type, materialized)) == {tuple}
        and set(map(len, materialized)) == {2}
        and _only_ints(chain.from_iterable(materialized))
    ):
        pairs = _as_int64(materialized)
        if pairs is not None:
            return stable_tuple_keys([_fold_ints(pairs[:, 0]), _fold_ints(pairs[:, 1])])
    return np.fromiter(
        (stable_key(key) for key in materialized),
        dtype=np.uint64,
        count=len(materialized),
    )


def stable_tuple_keys(columns: Sequence["np.ndarray"]) -> "np.ndarray":
    """:func:`stable_key` of tuples, given their members' keys by column.

    ``columns[j]`` holds the :func:`stable_key` of member ``j`` of each
    tuple (uint64 below ``P``, e.g. from :func:`stable_key_array`), so a
    nested key such as ``(d, x, (a, b))`` folds from the columns of
    ``d``, ``x`` and the pair ``(a, b)``.  Each step is one ``mulmod``
    plus the member key, reduced with one fold.
    """
    if not columns:
        raise ValueError("need at least one member column")
    acc = _TUPLE_SEED
    for column in columns:
        acc = _mod_p(_mul_terms(acc, _TUPLE_MUL) + column + _ONE)
    return acc


def stable_key(value: Hashable) -> int:
    """Fold a vertex / edge / tuple key into a non-negative integer.

    Integers map to themselves (offset to be non-negative), strings via
    their UTF-8 bytes, and tuples by polynomial combination — all
    independent of ``PYTHONHASHSEED`` so experiments are reproducible.
    """
    if isinstance(value, bool):  # bool is an int subclass; keep it distinct
        return 7 if value else 11
    if isinstance(value, int):
        return value % MERSENNE_PRIME if value >= 0 else (MERSENNE_PRIME - 1 - (-value % MERSENNE_PRIME))
    if isinstance(value, str):
        acc = 5381
        for byte in value.encode("utf-8"):
            acc = (acc * 131 + byte) % MERSENNE_PRIME
        return acc
    if isinstance(value, tuple):
        acc = 104729
        for item in value:
            acc = (acc * 1000003 + stable_key(item) + 1) % MERSENNE_PRIME
        return acc
    if isinstance(value, frozenset):
        # Domain-separated from tuples: a frozenset used to hash as the
        # tuple of its sorted member keys *by construction*, so e.g.
        # frozenset({1, 2}) and (1, 2) collided under every hash
        # function.  A distinct accumulator seed and multiplier keep
        # the set domain disjoint from the tuple domain.
        acc = 15485863
        for item_key in sorted(stable_key(item) for item in value):
            acc = (acc * 999983 + item_key + 1) % MERSENNE_PRIME
        return acc
    raise TypeError(f"unsupported hash key type: {type(value).__name__}")


class KWiseHash:
    """A member of the degree-``(k-1)`` polynomial hash family.

    Provides raw values in ``[0, P)`` plus the derived views the
    algorithms need: uniforms in ``[0, 1)``, Bernoulli indicators,
    +-1 signs, and small-range buckets.
    """

    def __init__(self, k: int, seed: int, namespace: str = "") -> None:
        # Coefficients come from a namespaced digest of (k, namespace,
        # seed) — not the raw seed, and not a tuple-``repr`` — so two
        # consumers of the family given the same integer seed draw
        # decorrelated functions as long as their namespaces differ.
        self.k = k
        self.seed = seed
        self.namespace = namespace
        self._coeffs: List[int] = draw_coefficients(k, namespace, [seed])[0]

    def value(self, key: Hashable) -> int:
        """The raw hash value in ``[0, MERSENNE_PRIME)``."""
        x = stable_key(key)
        acc = 0
        for coeff in self._coeffs:
            acc = (acc * x + coeff) % MERSENNE_PRIME
        return acc

    def uniform(self, key: Hashable) -> float:
        """A deterministic pseudo-uniform value in ``(0, 1)``.

        The value is bounded away from zero (by ``1/P``) so it is safe
        to divide by — as the l2 sampler's ``1/sqrt(u)`` scaling does.
        """
        return (self.value(key) + 1) / (MERSENNE_PRIME + 1)

    def bernoulli(self, key: Hashable, p: float) -> bool:
        """Indicator with ``P[true] = p`` — the sampling primitive.

        Membership in a hash-defined sample set is queryable at any time
        without storing the set, exactly as the paper's ``V_i = {v :
        f_i(v) = 1}`` construction requires.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {p}")
        return self.value(key) < p * MERSENNE_PRIME

    def sign(self, key: Hashable) -> int:
        """A +-1 value (4-wise independent when ``k >= 4``)."""
        return 1 if self.value(key) & 1 else -1

    def bucket(self, key: Hashable, buckets: int) -> int:
        """A bucket index in ``[0, buckets)`` (CountSketch rows etc.)."""
        if buckets < 1:
            raise ValueError(f"need at least one bucket, got {buckets}")
        return self.value(key) % buckets

    # ------------------------------------------------------------------
    # vectorized kernels (batch views of the same hash function)
    # ------------------------------------------------------------------
    def values_array(self, stable_keys: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`value` over pre-folded keys.

        ``stable_keys`` must be a uint64 array of :func:`stable_key`
        outputs (see :func:`stable_key_array`).  Returns uint64 values in
        ``[0, MERSENNE_PRIME)`` identical to the scalar path, evaluated
        by Horner's rule with the branch-free Mersenne ``mulmod``.
        """
        x = np.asarray(stable_keys, dtype=np.uint64)
        return _horner(np.array([self._coeffs], dtype=np.uint64), x.reshape(-1)).reshape(
            x.shape
        )

    def bernoulli_array(self, stable_keys: "np.ndarray", p: float) -> "np.ndarray":
        """Vectorized :meth:`bernoulli` (bool array)."""
        threshold = bernoulli_threshold(p)
        return self.values_array(stable_keys) < threshold

    def signs_array(self, stable_keys: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`sign` (int64 array of +-1)."""
        values = self.values_array(stable_keys)
        return np.where(values & np.uint64(1), 1, -1).astype(np.int64)

    def buckets_array(self, stable_keys: "np.ndarray", buckets: int) -> "np.ndarray":
        """Vectorized :meth:`bucket` (int64 array in ``[0, buckets)``)."""
        if buckets < 1:
            raise ValueError(f"need at least one bucket, got {buckets}")
        return (self.values_array(stable_keys) % np.uint64(buckets)).astype(np.int64)

    def choice4(self, key: Hashable, p0: float, p1: float, p2: float) -> int:
        """A four-way choice with probabilities ``p0, p1, p2, 1-p0-p1-p2``.

        Used by the three-pass algorithm's sub-sampling hash ``f`` of
        Section 5.1 (outputs 0/1/2/3).
        """
        if min(p0, p1, p2) < 0 or p0 + p1 + p2 > 1 + 1e-12:
            raise ValueError("probabilities must be non-negative and sum to <= 1")
        u = self.uniform(key)
        if u < p0:
            return 0
        if u < p0 + p1:
            return 1
        if u < p0 + p1 + p2:
            return 2
        return 3


def draw_coefficients(k: int, namespace: str, seeds: Iterable[Field]) -> List[List[int]]:
    """The coefficients of ``KWiseHash(k, seed, namespace)`` for each seed.

    The one draw :class:`KWiseHash` itself uses: seeds are derived with
    one shared digest prefix (:func:`~repro.seeding.derive_seeds`), and
    one generator is reseeded per function, so a batch of functions
    costs no object construction per member.
    """
    if k < 1:
        raise ValueError(f"independence degree must be >= 1, got {k}")
    rows: List[List[int]] = []
    rng = None
    for derived in derive_seeds("sketch:kwise-hash", k, namespace, seeds=seeds):
        if rng is None:
            rng = random.Random(derived)
        else:
            rng.seed(derived)
        # leading coefficient nonzero keeps the polynomial degree exact
        row = [rng.randrange(1, MERSENNE_PRIME)]
        row.extend(rng.randrange(MERSENNE_PRIME) for _ in range(k - 1))
        rows.append(row)
    return rows


def bernoulli_threshold(p: float) -> "np.uint64":
    """The uint64 bound ``t`` with ``value < t`` iff :meth:`KWiseHash.bernoulli`.

    The scalar path compares the exact integer value against the float
    ``p * P``; over integers ``value < p * P`` is ``value < ceil(p * P)``,
    which keeps the comparison exact in uint64.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    return np.uint64(math.ceil(p * MERSENNE_PRIME))


def unit_uniforms(values: "np.ndarray") -> "np.ndarray":
    """:meth:`KWiseHash.uniform` of raw hash values: ``(v + 1) / 2^61``.

    ``v + 1`` is formed in uint64 and rounded to float64 once; dividing
    by ``P + 1 = 2^61`` is then exact, so every entry equals the scalar
    path's correctly rounded ``(v + 1) / (P + 1)``.
    """
    return (values + _ONE).astype(np.float64) * _INV_2_61


class HashStack:
    """Same-degree :class:`KWiseHash` functions evaluated together.

    :meth:`values` runs one Horner pass over a ``(functions x keys)``
    uint64 matrix, so hashing a batch of keys under many functions (a
    bank of sketches with several rows each) costs a handful of numpy
    calls instead of one per function.  Row ``i`` equals
    ``hashes[i].values_array(keys)`` exactly.
    """

    def __init__(self, hashes: Sequence[KWiseHash]) -> None:
        degrees = {h.k for h in hashes}
        if len(degrees) != 1:
            raise ValueError(f"need functions of one degree, got degrees {sorted(degrees)}")
        self._coeffs = np.array([h._coeffs for h in hashes], dtype=np.uint64)

    def values(self, stable_keys: "np.ndarray") -> "np.ndarray":
        """A ``(len(hashes), len(stable_keys))`` matrix of raw hash values."""
        return _horner(self._coeffs, np.asarray(stable_keys, dtype=np.uint64))


def hash_family(
    count: int, k: int, seed: int, namespace: str = ""
) -> List[KWiseHash]:
    """``count`` independent ``KWiseHash`` functions derived from ``seed``.

    Member ``i`` lives in the sub-namespace ``f"{namespace}[{i}]"`` —
    structured derivation, not the old ``seed * 1_000_003 + 17 i + 1``
    arithmetic whose images could collide with other components' linear
    seed maps.
    """
    return [
        KWiseHash(k, seed=seed, namespace=f"{namespace}[{i}]") for i in range(count)
    ]
