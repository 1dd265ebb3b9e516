"""Seeded fault injection for stream sources.

The paper's guarantees assume clean insert-only streams; production
feeds are not clean.  :class:`FaultyStream` decorates any
:class:`~repro.streams.models.StreamSource` and injects the fault
taxonomy of docs/robustness.md:

* **duplicate** — a token is emitted twice;
* **self_loop** — a spurious ``(u, u)`` token is inserted;
* **reverse**   — a token's endpoints are swapped (edge streams only);
* **drop**      — a token is silently lost;
* **truncate**  — the stream's suffix is cut off (a dying feed);
* **split_block** / **shuffle_blocks** — an adjacency list is split in
  two / the block order is permuted (adjacency sources only).

The corrupted sequence is built once at construction from ``seed``, so
every pass replays identical faults and a trial remains a pure function
of its seeds — the property the parallel engine's bit-identical
serial==parallel guarantee rests on.  Injected counts are available as
:attr:`FaultyStream.injected` and are emitted to the active telemetry
under ``faults.injected.<kind>``.

As a :class:`~repro.streams.models.StreamDecorator` it only transforms
the wrapped source's raw tokens (or blocks, for an adjacency source),
so it stacks over any source.  ``num_vertices`` / ``num_edges`` report
the *declared* (clean) values of the wrapped source: algorithms are
told the ``m`` the pipeline believes, while the tokens they actually
receive disagree — exactly the failure mode under study.  Pair with
:class:`~repro.streams.validation.ValidatedStream` to study the
repair / skip / strict policies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Dict, Iterator, List, Optional, Tuple

from ..graphs.graph import Vertex
from ..streams.models import StreamDecorator, StreamSource
from .. import obs as _obs

INJECTED_METRIC_PREFIX = "faults.injected."


@dataclass(frozen=True)
class FaultPlan:
    """Per-kind fault rates, all in ``[0, 1]``.

    ``duplicate_rate``/``self_loop_rate``/``reverse_rate``/``drop_rate``
    are per-token probabilities; ``truncate_fraction`` removes that
    fraction of the token suffix; ``split_block_rate`` is a per-block
    probability (adjacency sources); ``shuffle_blocks`` permutes block
    order.  The zero plan is a passthrough.
    """

    duplicate_rate: float = 0.0
    self_loop_rate: float = 0.0
    reverse_rate: float = 0.0
    drop_rate: float = 0.0
    truncate_fraction: float = 0.0
    split_block_rate: float = 0.0
    shuffle_blocks: bool = False

    def __post_init__(self) -> None:
        for spec in fields(self):
            if spec.name == "shuffle_blocks":
                continue
            value = getattr(self, spec.name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{spec.name} must be in [0, 1], got {value}")

    @classmethod
    def mixed(cls, rate: float) -> "FaultPlan":
        """An even mix: each token is duplicated / self-looped /
        reversed / dropped with probability ``rate / 4`` — so ``rate``
        is (approximately) the fraction of faulted tokens, the x-axis
        of the robustness-curve experiment (E16)."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
        quarter = rate / 4.0
        return cls(
            duplicate_rate=quarter,
            self_loop_rate=quarter,
            reverse_rate=quarter,
            drop_rate=quarter,
        )


class FaultyStream(StreamDecorator):
    """A stream source that replays a seeded corruption of its base."""

    def __init__(self, source: StreamSource, plan: FaultPlan, seed: int = 0) -> None:
        super().__init__(source)
        self._plan = plan
        self._seed = seed
        self.injected: Dict[str, int] = {}
        rng = random.Random(seed)
        self._block_list: Optional[List[Tuple[Vertex, List[Vertex]]]] = None
        if source.provides_adjacency:
            self._block_list = self._corrupt_blocks(rng)
            self._token_list = [
                (v, u) for v, neighbors in self._block_list for u in neighbors
            ]
        else:
            self._token_list = self._corrupt_tokens(rng)
        self._emit_injected()

    # -- corruption (construction time, deterministic in seed) ----------
    def _inject(self, kind: str, count: int = 1) -> None:
        if count:
            self.injected[kind] = self.injected.get(kind, 0) + count

    def _corrupt_tokens(self, rng: random.Random) -> List[Tuple[Vertex, Vertex]]:
        plan = self._plan
        out: List[Tuple[Vertex, Vertex]] = []
        for u, v in self._source._tokens():
            if plan.drop_rate and rng.random() < plan.drop_rate:
                self._inject("drop")
                continue
            token = (u, v)
            if plan.reverse_rate and rng.random() < plan.reverse_rate:
                token = (v, u)
                self._inject("reverse")
            out.append(token)
            if plan.duplicate_rate and rng.random() < plan.duplicate_rate:
                out.append(token)
                self._inject("duplicate")
            if plan.self_loop_rate and rng.random() < plan.self_loop_rate:
                out.append((token[0], token[0]))
                self._inject("self_loop")
        return self._truncate_tokens(out)

    def _truncate_tokens(self, tokens: List) -> List:
        fraction = self._plan.truncate_fraction
        if not fraction:
            return tokens
        keep = len(tokens) - int(len(tokens) * fraction)
        self._inject("truncated_tokens", len(tokens) - keep)
        return tokens[:keep]

    def _corrupt_blocks(
        self, rng: random.Random
    ) -> List[Tuple[Vertex, List[Vertex]]]:
        plan = self._plan
        blocks: List[Tuple[Vertex, List[Vertex]]] = []
        for vertex, neighbors in self._source._blocks():
            entries: List[Vertex] = []
            for u in neighbors:
                if plan.drop_rate and rng.random() < plan.drop_rate:
                    self._inject("drop")
                    continue
                entries.append(u)
                if plan.duplicate_rate and rng.random() < plan.duplicate_rate:
                    entries.append(u)
                    self._inject("duplicate")
                if plan.self_loop_rate and rng.random() < plan.self_loop_rate:
                    entries.append(vertex)  # a (vertex, vertex) self loop
                    self._inject("self_loop")
            if (
                plan.split_block_rate
                and len(entries) >= 2
                and rng.random() < plan.split_block_rate
            ):
                cut = 1 + rng.randrange(len(entries) - 1)
                blocks.append((vertex, entries[:cut]))
                blocks.append((vertex, entries[cut:]))
                self._inject("split_block")
            else:
                blocks.append((vertex, entries))
        if plan.shuffle_blocks:
            rng.shuffle(blocks)
            self._inject("shuffled_blocks", len(blocks))
        return self._truncate_blocks(blocks)

    def _truncate_blocks(
        self, blocks: List[Tuple[Vertex, List[Vertex]]]
    ) -> List[Tuple[Vertex, List[Vertex]]]:
        fraction = self._plan.truncate_fraction
        if not fraction:
            return blocks
        total = sum(len(neighbors) for _, neighbors in blocks)
        keep = total - int(total * fraction)
        out: List[Tuple[Vertex, List[Vertex]]] = []
        remaining = keep
        for vertex, neighbors in blocks:
            if remaining <= 0:
                break
            if len(neighbors) <= remaining:
                out.append((vertex, neighbors))
                remaining -= len(neighbors)
            else:  # the feed died mid-block
                out.append((vertex, neighbors[:remaining]))
                remaining = 0
        self._inject("truncated_tokens", total - keep)
        return out

    def _emit_injected(self) -> None:
        telemetry = _obs.current()
        if not telemetry.enabled:
            return
        for kind, count in self.injected.items():
            telemetry.metrics.inc(INJECTED_METRIC_PREFIX + kind, count)

    @property
    def stream_length(self) -> int:
        """The *actual* token count of one corrupted pass."""
        return len(self._token_list)

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    @property
    def seed(self) -> int:
        return self._seed

    # -- passes ----------------------------------------------------------
    def _tokens(self) -> Iterator[Tuple[Vertex, Vertex]]:
        return iter(self._token_list)

    def _blocks(self) -> Iterator[Tuple[Vertex, List[Vertex]]]:
        for vertex, neighbors in self._block_list:
            yield vertex, list(neighbors)
