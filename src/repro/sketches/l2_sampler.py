"""Approximate l2 sampling (Section 4.2.4's substrate).

Given a stream of updates to a vector ``f``, an l2 sampler outputs a
coordinate ``i`` with probability (approximately) proportional to
``f_i^2``, together with an estimate of ``f_i``.  We implement the
precision-sampling design of Jowhari–Saglam–Tardos / Andoni et al.:

* every coordinate gets a fixed pseudo-uniform ``u_i`` in (0, 1) from a
  hash function (so no per-coordinate state is needed);
* the stream is sketched with a CountSketch of the *scaled* vector
  ``g_i = f_i / sqrt(u_i)``;
* at extraction time, the largest ``|g_i|`` among the candidate domain
  is accepted iff ``g_i^2 >= F2(f) / accept_scale`` — which happens iff
  ``u_i <= accept_scale * f_i^2 / F2``, an event of probability
  proportional to ``f_i^2``.

A single :class:`L2Sampler` succeeds with probability about
``1 / accept_scale``; :class:`L2SamplerBank` runs many independent
copies so callers can draw many (approximately) independent samples
from one pass.

The bank has two update paths over one shared table.  The scalar
:meth:`L2SamplerBank.update` feeds one key to each sampler in turn and
is the test oracle.  :meth:`L2SamplerBank.update_batch` hashes a whole
batch (one adjacency block's wedge pairs) under every sampler's
bucket, sign and uniform functions in one stacked Horner pass
(:class:`~repro.sketches.hashing.HashStack`) and scatters it with one
``np.add.at``.  :meth:`L2SamplerBank.samples`
recovers the whole candidate array in every sampler at once.  Both
batched methods give bit-identical tables and samples to the scalar
path.

The candidate domain must be supplied at extraction time (we cannot
enumerate an implicit domain from the sketch alone); for the wedge
vector this is all vertex pairs, which is fine at experiment scale.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..seeding import derive_seed
from .countsketch import CountSketch
from .hashing import HashStack, KWiseHash, stable_key_array, unit_uniforms


class L2Sampler:
    """One precision-sampling copy (succeeds with prob ~ 1/accept_scale)."""

    def __init__(
        self,
        seed: int = 0,
        rows: int = 5,
        width: int = 512,
        accept_scale: float = 4.0,
    ) -> None:
        if accept_scale <= 1.0:
            raise ValueError(f"accept_scale must exceed 1, got {accept_scale}")
        self.accept_scale = accept_scale
        self._uniforms = KWiseHash(k=2, seed=seed, namespace="l2-sampler.uniforms")
        self._sketch = CountSketch(
            rows=rows, width=width, seed=seed, namespace="l2-sampler"
        )

    def update(self, key: Hashable, delta: float = 1.0) -> None:
        """Apply ``f[key] += delta`` (sketched as ``g[key] += delta/sqrt(u)``)."""
        scale = 1.0 / math.sqrt(self._uniforms.uniform(key))
        self._sketch.update(key, delta * scale)

    def sample(
        self, candidates: Iterable[Hashable], f2_estimate: float
    ) -> Optional[Tuple[Hashable, float]]:
        """Attempt to draw a sample.

        Args:
            candidates: the coordinate domain to search (e.g. all vertex
                pairs).  Coordinates outside it can never be returned.
            f2_estimate: an estimate of ``F2(f)`` (e.g. the wedge-vector
                F2 estimator, or exact bookkeeping) used for the
                acceptance threshold.

        Returns:
            ``(key, f_estimate)`` on success, ``None`` if this copy's
            scaled maximum did not clear the threshold (the expected
            outcome for most copies — run a bank of them).
        """
        if f2_estimate < 0:
            raise ValueError("F2 estimate cannot be negative")
        best_key: Optional[Hashable] = None
        best_scaled = 0.0
        for key in candidates:
            scaled = self._sketch.query(key)
            if abs(scaled) > abs(best_scaled):
                best_scaled = scaled
                best_key = key
        if best_key is None:
            return None
        threshold = f2_estimate / self.accept_scale
        if best_scaled * best_scaled < threshold:
            return None
        f_estimate = best_scaled * math.sqrt(self._uniforms.uniform(best_key))
        return best_key, f_estimate

    @property
    def space_items(self) -> int:
        return self._sketch.space_items

    @property
    def saturation(self) -> float:
        return self._sketch.saturation


class L2SamplerBank:
    """``count`` independent l2 samplers fed the same update stream.

    The bank owns one ``(count * rows, width)`` table; sampler ``j``'s
    CountSketch table is the view of rows ``j * rows`` to
    ``(j + 1) * rows``, so the scalar path (:meth:`update`, one sampler
    at a time) and the batched path (:meth:`update_batch`, all samplers
    at once) write the same state.
    """

    def __init__(
        self,
        count: int,
        seed: int = 0,
        rows: int = 5,
        width: int = 512,
        accept_scale: float = 4.0,
    ) -> None:
        if count < 1:
            raise ValueError(f"need at least one sampler, got {count}")
        self._samplers: List[L2Sampler] = [
            L2Sampler(
                seed=derive_seed("sketch:l2-sampler-bank", j, seed=seed),
                rows=rows,
                width=width,
                accept_scale=accept_scale,
            )
            for j in range(count)
        ]
        self._rows = rows
        self._table = np.zeros((count * rows, width), dtype=np.float64)
        for j, sampler in enumerate(self._samplers):
            sampler._sketch._table = self._table[j * rows : (j + 1) * rows]
        sketches = [sampler._sketch for sampler in self._samplers]
        # every sampler's row hashes, sampler-major, in table-row order
        self._buckets = HashStack([h for s in sketches for h in s._buckets])
        self._signs = HashStack([h for s in sketches for h in s._signs])
        self._uniforms = HashStack([s._uniforms for s in self._samplers])
        self._row_starts = (np.arange(count * rows) * width)[:, None]

    def __len__(self) -> int:
        return len(self._samplers)

    def update(self, key: Hashable, delta: float = 1.0) -> None:
        for sampler in self._samplers:
            sampler.update(key, delta)

    def _cells(self, stable: "np.ndarray") -> Tuple["np.ndarray", "np.ndarray"]:
        """Flat table index and +-1 sign of every (table row, key)."""
        width = self._table.shape[1]
        buckets = (self._buckets.values(stable) % np.uint64(width)).astype(np.int64)
        signs = np.where(self._signs.values(stable) & np.uint64(1), 1.0, -1.0)
        return self._row_starts + buckets, signs

    def update_batch(
        self, keys: Sequence[Hashable], deltas: Optional[Sequence[float]] = None
    ) -> None:
        """Apply :meth:`update` to every ``(keys[i], deltas[i])`` at once.

        Every sampler's bucket, sign and uniform hashes are evaluated in
        one stacked pass, and the scaled updates are scattered into the
        bank's table with one ``np.add.at``, which adds in key order
        within each cell.  The table therefore ends up bit-identical to
        the scalar :meth:`update` loop.
        """
        stable = stable_key_array(keys)
        if stable.size == 0:
            return
        if deltas is None:
            delta_arr = np.ones(stable.size, dtype=np.float64)
        else:
            delta_arr = np.asarray(deltas, dtype=np.float64)
            if delta_arr.shape != stable.shape:
                raise ValueError(
                    f"deltas shape {delta_arr.shape} does not match {stable.size} keys"
                )
        # the scalar path's delta * (1 / sqrt(u)), then * sign per row
        scaled = delta_arr * (1.0 / np.sqrt(unit_uniforms(self._uniforms.values(stable))))
        cells, signs = self._cells(stable)
        np.add.at(
            self._table.reshape(-1),
            cells.reshape(-1),
            (np.repeat(scaled, self._rows, axis=0) * signs).reshape(-1),
        )

    def samples(
        self, candidates: Iterable[Hashable], f2_estimate: float
    ) -> List[Tuple[Hashable, float]]:
        """Extract every successful sample across the bank.

        Equals calling :meth:`L2Sampler.sample` on each sampler in turn,
        but recovers every candidate in every sampler at once: gather the
        table cells, take the median over rows (the middle pair averaged
        for even ``rows``), and pick the first strict maximum of ``|g|``
        above 0, as the scalar loop does.  Only the winners' uniforms are
        hashed one key at a time.
        """
        if f2_estimate < 0:
            raise ValueError("F2 estimate cannot be negative")
        candidate_list = list(candidates)
        if not candidate_list:
            return []
        cells, signs = self._cells(stable_key_array(candidate_list))
        rows = self._rows
        recovered = (signs * self._table.reshape(-1)[cells]).reshape(
            len(self._samplers), rows, len(candidate_list)
        )
        recovered.sort(axis=1)
        mid = rows // 2
        if rows % 2:
            scaled = recovered[:, mid]
        else:
            scaled = 0.5 * (recovered[:, mid - 1] + recovered[:, mid])
        winners = np.abs(scaled).argmax(axis=1)
        best = scaled[np.arange(len(scaled)), winners]
        results: List[Tuple[Hashable, float]] = []
        for sampler, winner, best_scaled in zip(self._samplers, winners.tolist(), best):
            if best_scaled == 0.0:
                continue
            if best_scaled * best_scaled < f2_estimate / sampler.accept_scale:
                continue
            key = candidate_list[winner]
            results.append((key, best_scaled * math.sqrt(sampler._uniforms.uniform(key))))
        return results

    @property
    def space_items(self) -> int:
        return sum(sampler.space_items for sampler in self._samplers)

    @property
    def saturation(self) -> float:
        """Mean bucket saturation across the bank's sketches."""
        if not self._samplers:
            return 0.0
        return sum(s.saturation for s in self._samplers) / len(self._samplers)
