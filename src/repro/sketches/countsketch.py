"""CountSketch: linear sketch with per-coordinate recovery.

Each of ``rows`` rows hashes keys into ``width`` buckets (pairwise
independent) with a 4-wise sign; a coordinate's value is recovered as
the median over rows of ``sign * bucket``.  The recovery error of any
single coordinate is ``O(sqrt(F2 / width))`` with high probability.

This is the workhorse inside the l2 sampler (Section 4.2.4) and is
independently useful, so it lives in the substrate.

The table is a numpy array and updates come in two flavors: the scalar
:meth:`update` (one key at a time) and the batched :meth:`update_batch`
(vectorized hashing + ``np.add.at`` scatter), which applies the exact
same arithmetic and is property-tested equal to a scalar update
sequence.

The table may be a view into a larger array: an
:class:`~repro.sketches.l2_sampler.L2SamplerBank` owns one table for
all its samplers' sketches and batch-updates them together, while
each sketch's own :meth:`update` and :meth:`query` keep working on its
rows.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np

from .estimators import median
from .hashing import KWiseHash, hash_family, stable_key_array


class CountSketch:
    """A ``rows x width`` CountSketch table.

    Args:
        rows: number of independent hash rows (median over these).
        width: buckets per row.
        seed: derives every hash function deterministically.
    """

    def __init__(
        self,
        rows: int = 5,
        width: int = 256,
        seed: int = 0,
        namespace: str = "",
    ) -> None:
        if rows < 1 or width < 1:
            raise ValueError("rows and width must be positive")
        self.rows = rows
        self.width = width
        prefix = f"{namespace}." if namespace else ""
        self._buckets: List[KWiseHash] = hash_family(
            rows, k=2, seed=seed, namespace=f"{prefix}countsketch.buckets"
        )
        self._signs: List[KWiseHash] = hash_family(
            rows, k=4, seed=seed, namespace=f"{prefix}countsketch.signs"
        )
        self._table = np.zeros((rows, width), dtype=np.float64)

    def _locate(self, key: Hashable) -> List[Tuple[int, int]]:
        """The (bucket, sign) of ``key`` in every row."""
        return [
            (self._buckets[r].bucket(key, self.width), self._signs[r].sign(key))
            for r in range(self.rows)
        ]

    def update(self, key: Hashable, delta: float = 1.0) -> None:
        """Apply ``f[key] += delta``."""
        for r, (bucket, sign) in enumerate(self._locate(key)):
            self._table[r, bucket] += delta * sign

    def update_batch(
        self,
        keys: Sequence[Hashable],
        deltas: Optional[Sequence[float]] = None,
    ) -> None:
        """Apply ``f[keys[i]] += deltas[i]`` for the whole batch at once.

        Equivalent to a loop of scalar :meth:`update` calls (exactly so
        for integer-valued deltas; up to float summation order in
        general), but hashes the batch with the vectorized polynomial
        kernels and scatters each row with ``np.add.at``.
        """
        stable = stable_key_array(
            keys if isinstance(keys, np.ndarray) else list(keys)
        )
        if stable.size == 0:
            return
        if deltas is None:
            delta_arr = np.ones(stable.size, dtype=np.float64)
        else:
            delta_arr = np.asarray(deltas, dtype=np.float64)
            if delta_arr.shape != (stable.size,):
                raise ValueError(
                    f"deltas shape {delta_arr.shape} does not match "
                    f"{stable.size} keys"
                )
        for r in range(self.rows):
            buckets = self._buckets[r].buckets_array(stable, self.width)
            signs = self._signs[r].signs_array(stable).astype(np.float64)
            np.add.at(self._table[r], buckets, delta_arr * signs)

    def query(self, key: Hashable) -> float:
        """Estimate ``f[key]`` (median over rows)."""
        return median(
            [sign * self._table[r, bucket] for r, (bucket, sign) in enumerate(self._locate(key))]
        )

    def merge(self, other: "CountSketch") -> None:
        """Combine with a sketch of another stream (same layout/seeds)."""
        if self.rows != other.rows or self.width != other.width:
            raise ValueError("can only merge sketches with identical layout")
        if any(a.seed != b.seed for a, b in zip(self._signs, other._signs)):
            raise ValueError("can only merge sketches with identical seeds")
        self._table += other._table

    @property
    def saturation(self) -> float:
        """Fraction of sketch buckets holding a nonzero value."""
        return float(np.count_nonzero(self._table)) / self._table.size

    @property
    def space_items(self) -> int:
        """Words of state: the table cells."""
        return self.rows * self.width
